//! End-to-end integration: Verilog source → labels → trained model →
//! prediction → annotation → optimization, across crate boundaries.

use rtl_timer_repro::rtl_timer::annotate::annotate_source;
use rtl_timer_repro::rtl_timer::optimize::{optimize_design, path_groups_from_scores};
use rtl_timer_repro::rtl_timer::pipeline::{DesignSet, RtlTimer, TimerConfig};

fn sources() -> Vec<(String, String)> {
    let mk = |name: &str, w: u32, body: &str| {
        (
            name.to_owned(),
            format!(
                "module {name}(input clk, input rst, input [{x}:0] a, input [{x}:0] b, output [{x}:0] q);
                   reg [{x}:0] r;
                   reg [{x}:0] s;
                   always @(posedge clk)
                     if (rst) begin r <= {w}'d0; s <= {w}'d0; end
                     else begin r <= {body}; s <= s + r; end
                   assign q = s;
                 endmodule",
                x = w - 1
            ),
        )
    };
    vec![
        mk("ia", 8, "a + b"),
        mk("ib", 10, "(a - b) ^ s"),
        mk("ic", 12, "(a & b) | (s >> 1)"),
        mk("id", 9, "a + (b << 1)"),
    ]
}

fn cfg() -> TimerConfig {
    TimerConfig {
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_annotates_and_optimizes() {
    let set = DesignSet::prepare_named_or_panic(&sources(), &cfg());
    let (train, test) = set.split(&["id"]);
    let model = RtlTimer::fit(&train, &cfg());
    let d = test[0];
    let pred = model.predict(d);

    // Predictions must cover all endpoints/signals with finite values.
    assert_eq!(pred.bit_pred.len(), d.labels_at.len());
    assert!(pred.bit_pred.iter().all(|p| p.is_finite()));
    assert_eq!(pred.signal_pred.len(), d.signals().len());

    // Annotation embeds every top-level signal.
    let annotated = annotate_source(d, &pred);
    for s in d.signals() {
        assert!(
            annotated.contains(&format!("({})", s.name)),
            "missing annotation for {}",
            s.name
        );
    }

    // Optimization flows run and produce plausible metrics.
    let outcome = optimize_design(d, &pred);
    assert!(outcome.default.area > 0.0);
    assert!(outcome.with_pred.area > 0.0);
    assert!(outcome.with_pred.wns <= 0.0);
    // Grouping must partition all endpoints.
    let pg = path_groups_from_scores(&pred.bit_pred);
    let total: usize = pg.groups.iter().map(|g| g.len()).sum();
    assert_eq!(total, d.labels_at.len());
}

#[test]
fn deterministic_preparation_and_prediction() {
    let set1 = DesignSet::prepare_named_or_panic(&sources()[..2], &cfg());
    let set2 = DesignSet::prepare_named_or_panic(&sources()[..2], &cfg());
    for (a, b) in set1.designs().iter().zip(set2.designs()) {
        assert_eq!(
            a.labels_at, b.labels_at,
            "{} labels must be reproducible",
            a.name
        );
        assert_eq!(a.wns, b.wns);
        assert_eq!(a.tns, b.tns);
    }
    let (train1, _) = set1.split(&["ia"]);
    let (train2, _) = set2.split(&["ia"]);
    let m1 = RtlTimer::fit(&train1, &cfg());
    let m2 = RtlTimer::fit(&train2, &cfg());
    let p1 = m1.predict(set1.get("ia").unwrap());
    let p2 = m2.predict(set2.get("ia").unwrap());
    assert_eq!(p1.bit_pred, p2.bit_pred);
    assert_eq!(p1.wns_pred, p2.wns_pred);
}

#[test]
fn design_data_round_trips_through_the_disk_store() {
    // A preparation written by one store instance must be readable by a
    // fresh instance over the same directory (the cross-process warm-cache
    // path of the bench binaries), and the decoded DesignData must be
    // bit-identical to the computed one — the byte-identical-tables
    // guarantee rests on this.
    use rtl_timer_repro::rtl_timer::cache::stage;
    use rtl_timer_repro::rtl_timer::PrepareStages;
    use rtlt_store::Store;

    let dir = std::env::temp_dir().join(format!("rtlt-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = cfg();
    let stages = PrepareStages::new(&config);
    let (name, src) = &sources()[0];

    let writer = Store::on_disk(&dir);
    let computed = stages.run_with(&writer, name, src).expect("compiles");

    let reader = Store::on_disk(&dir);
    let decoded = stages.run_with(&reader, name, src).expect("warm hit");
    let s = reader.stats().namespace(stage::FEATURIZE);
    assert_eq!((s.disk_hits, s.misses), (1, 0), "served from disk");

    assert_eq!(decoded.name, computed.name);
    assert_eq!(decoded.labels_at, computed.labels_at);
    assert_eq!(decoded.signal_names, computed.signal_names);
    assert_eq!(decoded.sog.nodes(), computed.sog.nodes());
    assert_eq!(decoded.sog.regs(), computed.sog.regs());
    assert_eq!(decoded.clock.to_bits(), computed.clock.to_bits());
    assert_eq!(decoded.wns.to_bits(), computed.wns.to_bits());
    assert_eq!(decoded.ast_feats, computed.ast_feats);
    assert_eq!(decoded.prepare_key, computed.prepare_key);
    for (dv, cv) in decoded.variant_data.iter().zip(&computed.variant_data) {
        assert_eq!(dv.variant, cv.variant);
        assert_eq!(dv.endpoint_sta_at, cv.endpoint_sta_at);
        assert_eq!(dv.groups, cv.groups);
        assert_eq!(dv.design_feats, cv.design_feats);
        assert_eq!(dv.rows.len(), cv.rows.len());
        for (dr, cr) in dv.rows.iter().zip(&cv.rows) {
            assert_eq!(dr.features, cr.features);
            assert_eq!(dr.endpoint, cr.endpoint);
        }
    }
    // Rows carry no tokens: the decoded design replays the computed one's.
    let (dt, ct) = (decoded.token_rows(), computed.token_rows());
    assert_eq!(dt.len(), ct.len());
    for (d, c) in dt.iter().zip(&ct) {
        assert_eq!(d.ops, c.ops);
        assert_eq!(d.tok_feats, c.tok_feats);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn labels_respond_to_structure() {
    // The register fed by a multiplier must have later ground-truth
    // arrivals than a pass-through register in the same design.
    let src = "module lt(input clk, input [11:0] a, input [11:0] b,
                        output [11:0] q1, output [11:0] q2);
                 reg [11:0] fast;
                 reg [11:0] slow;
                 always @(posedge clk) begin
                   fast <= a;
                   slow <= a * b;
                 end
                 assign q1 = fast;
                 assign q2 = slow;
               endmodule";
    let set = DesignSet::prepare_named_or_panic(&[("lt".to_owned(), src.to_owned())], &cfg());
    let d = set.get("lt").unwrap();
    let sig_at = |name: &str| -> f64 {
        let sig = d.signals().iter().find(|s| s.name == name).unwrap();
        sig.regs
            .iter()
            .map(|&b| d.labels_at[b as usize])
            .fold(f64::MIN, f64::max)
    };
    assert!(
        sig_at("slow") > sig_at("fast") + 0.05,
        "slow {} vs fast {}",
        sig_at("slow"),
        sig_at("fast")
    );
}

/// Sources that used to abort the process (stack overflow) or elaborate
/// for hours, each with the line its error names (`None`: the instance
/// budget, which trips wherever the hierarchy reaches it).
fn hostile_sources() -> Vec<(&'static str, String, Option<u32>)> {
    let assign = |expr: String| {
        format!("module m(input [3:0] a, output [3:0] y);\nassign y = {expr};\nendmodule")
    };
    let mut doubling = String::from("module m(input x, output y);\nassign y = ~x;\nendmodule\n");
    for i in 1..=16 {
        let child = if i == 1 {
            "m".to_owned()
        } else {
            format!("l{}", i - 1)
        };
        let name = if i == 16 {
            "top".to_owned()
        } else {
            format!("l{i}")
        };
        doubling.push_str(&format!(
            "module {name}(input x, output y);\nwire t;\n{child} u0(.x(x), .y(t));\n{child} u1(.x(t), .y(y));\nendmodule\n"
        ));
    }
    vec![
        (
            "m",
            "module m(input a, output y); m u(.a(a), .y(y)); endmodule".to_owned(),
            Some(1),
        ),
        (
            "m",
            "module m(input x, output y);\nb u(.x(x), .y(y));\nendmodule\nmodule b(input x, output y);\nm u(.x(x), .y(y));\nendmodule"
                .to_owned(),
            Some(5),
        ),
        (
            "m",
            assign(format!("{}a{}", "(".repeat(5_000), ")".repeat(5_000))),
            Some(2),
        ),
        ("m", assign(vec!["a"; 20_000].join(" ^ ")), Some(2)),
        ("m", assign(format!("{}a", "~".repeat(100_000))), Some(2)),
        ("top", doubling, None),
    ]
}

#[test]
fn hostile_sources_fail_to_prepare_with_their_frontend_error() {
    for (top, src, line) in hostile_sources() {
        let direct = rtl_timer_repro::verilog::compile(&src, top).expect_err("rejected");
        let err = DesignSet::prepare_named(&[(top.to_owned(), src)], &cfg()).expect_err("rejected");
        assert_eq!(err.design, top);
        assert_eq!(err.source, direct, "the frontend's own error");
        match line {
            Some(_) => assert_eq!(err.source.line, line, "{err}"),
            None => assert!(err.source.message.contains("exceeds the budget"), "{err}"),
        }
    }
}

#[test]
fn generated_designs_compile_within_the_frontend_bounds() {
    use rtl_timer_repro::designgen::{generate_all, hier};
    let mut sources = generate_all();
    // The deepest generated tree: the 192-lane top XORs every lane in one
    // chain.
    sources.push(("hier_soc".to_owned(), hier::soc("hier_soc", 192, 32, 3)));
    for (name, src) in sources {
        if let Err(e) = rtl_timer_repro::verilog::compile(&src, &name) {
            panic!("{name}: {e}");
        }
    }
}
