//! **Figure 4** — effect of the optimization options on the endpoint
//! arrival-time distribution: default synthesis vs `group_path` vs `retime`
//! vs both (conceptual figure rendered as ASCII histograms).

use rtl_timer::metrics::rank_groups;
use rtl_timer::optimize::{path_groups_from_scores, retime_set_from_scores};
use rtl_timer::pipeline::PrepareStages;
use rtlt_bench::{ascii_histogram, json::Json, positional_args, Bench};
use rtlt_liberty::Library;
use rtlt_synth::{synthesize, SynthOptions};

fn main() {
    let name = positional_args()
        .into_iter()
        .next()
        .unwrap_or_else(|| "b18_1".to_owned());
    let bench = Bench::from_env();
    let cfg = bench.cfg.clone();
    let src = rtlt_designgen::generate(&name).expect("catalog design");
    // Frontend artifacts come from the shared store (the blast
    // namespace), like every other bench binary.
    let blasted = PrepareStages::new(&cfg)
        .blasted_with(&bench.store, &name, &src)
        .expect("compiles");
    let sog = &blasted.sog;
    let lib = Library::nangate45_like();

    eprintln!("[fig4] default flow ...");
    let seed = cfg.seed ^ 0xF16;
    let default = synthesize(
        sog,
        &lib,
        &SynthOptions {
            seed,
            ..Default::default()
        },
    );
    let clock = default.clock_period;
    // Ground-truth ranking drives the option experiments (the figure is
    // about the options, not the predictor).
    let scores = default.endpoint_at.clone();
    let groups = path_groups_from_scores(&scores);
    let retime = retime_set_from_scores(&scores);

    let run = |pg: bool, rt: bool| {
        synthesize(
            sog,
            &lib,
            &SynthOptions {
                seed,
                clock_period: Some(clock),
                effort: 1.45,
                path_groups: pg.then(|| groups.clone()),
                retime_endpoints: if rt { retime.clone() } else { Vec::new() },
            },
        )
    };
    eprintln!("[fig4] w.group / w.retime / w.both flows ...");
    let w_group = run(true, false);
    let w_retime = run(false, true);
    let w_both = run(true, true);

    println!("\nFig. 4 — endpoint arrival distribution, design {name} @ clock {clock:.3}ns\n");
    for (label, res) in [
        ("default tool", &default),
        ("w. group", &w_group),
        ("w. retime", &w_retime),
        ("w. retime + group", &w_both),
    ] {
        let ats: Vec<f64> = res
            .endpoint_at
            .iter()
            .cloned()
            .filter(|a| a.is_finite())
            .collect();
        println!(
            "--- {label}: WNS {:.3} TNS {:.1} (max AT {:.3})",
            res.wns,
            res.tns,
            ats.iter().cloned().fold(f64::MIN, f64::max)
        );
        println!("{}", ascii_histogram(&ats, 12, 46));
    }
    let g = rank_groups(&scores);
    println!(
        "group sizes (g1..g4): {} / {} / {} / {}",
        g.iter().filter(|&&x| x == 0).count(),
        g.iter().filter(|&&x| x == 1).count(),
        g.iter().filter(|&&x| x == 2).count(),
        g.iter().filter(|&&x| x == 3).count()
    );

    let flow = |r: &rtlt_synth::SynthResult| {
        Json::obj([("wns", Json::Num(r.wns)), ("tns", Json::Num(r.tns))])
    };
    bench.write_report(
        "fig4",
        vec![
            ("design", Json::Str(name.clone())),
            ("clock_ns", Json::Num(clock)),
            (
                "flows",
                Json::obj([
                    ("default", flow(&default)),
                    ("w_group", flow(&w_group)),
                    ("w_retime", flow(&w_retime)),
                    ("w_both", flow(&w_both)),
                ]),
            ),
        ],
    );
}
