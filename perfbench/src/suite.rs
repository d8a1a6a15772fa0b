//! `suite_warm`: the 21-design suite prepared through an on-disk store and
//! cross-validated in 3 folds — any run of an `RTLT_FAST=1` table binary
//! after the first. The set-up is that first (cold) run: it fills the
//! store, and the traced run takes the cold layers' numbers from it.

use crate::speed::Bracketed;
use crate::stats::{mean, median, percentile};
use crate::trace::{Span, Trace};
use crate::{Report, Run, StoreTotals};
use rtl_timer::annotate::annotate_source;
use rtl_timer::cache::stage;
use rtl_timer::pipeline::{cross_validate_with, PredictScratch, Prediction};
use rtl_timer::{DesignSet, PrepareStages, RtlTimer, TimerConfig};
use rtlt_store::{ContentHash, KeyBuilder, StatsSnapshot, Store};
use std::time::Instant;

/// Cross-validation folds (`RTLT_FAST=1`).
const FOLDS: usize = 3;
/// Set-up repetitions per run (their median is `setup_s`).
const SETUP_REPS: usize = 2;

/// One prepare + cross-validate pass and what it produced.
struct Pass {
    prepare_s: f64,
    cv_s: f64,
    set: DesignSet,
    preds: Vec<Prediction>,
    stats: StatsSnapshot,
}

/// What the checks and layer metrics keep of a pass once its designs are
/// dropped (holding them would make `peak_rss_mb` count passes).
struct Summary {
    prepare_s: f64,
    cv_s: f64,
    /// `content_digest` of the prepared suite, where computed.
    digest: Option<ContentHash>,
    preds: ContentHash,
    complete: bool,
    bit_r: f64,
    signal_r: f64,
    stats: StatsSnapshot,
}

impl Summary {
    fn of(p: &Pass, sources: usize, with_digest: bool) -> Summary {
        Summary {
            prepare_s: p.prepare_s,
            cv_s: p.cv_s,
            digest: with_digest.then(|| p.set.content_digest()),
            preds: predictions_digest(&p.preds),
            complete: p.set.designs().len() == sources
                && p.preds.len() == sources
                && p.preds
                    .iter()
                    .all(|q| q.bit_r().is_finite() && q.signal_r().is_finite()),
            bit_r: mean(&p.preds.iter().map(Prediction::bit_r).collect::<Vec<_>>()),
            signal_r: mean(&p.preds.iter().map(Prediction::signal_r).collect::<Vec<_>>()),
            stats: p.stats.clone(),
        }
    }
}

/// Digest of every predicted number of a cross-validation, bit for bit.
fn predictions_digest(preds: &[Prediction]) -> ContentHash {
    let mut kb = KeyBuilder::new("perfbench.cv").u64(preds.len() as u64);
    for p in preds {
        kb = kb.str(&p.design);
        for v in p
            .variant_bit_preds
            .iter()
            .flatten()
            .chain(&p.bit_pred)
            .chain(&p.signal_pred)
            .chain(&p.signal_rank_score)
            .chain([&p.wns_pred, &p.tns_pred, &p.wns_direct, &p.tns_direct])
        {
            kb = kb.u64(v.to_bits());
        }
    }
    kb.finish()
}

/// [`cross_validate_with`] rebuilt from its public parts so fit and
/// predict can be timed: same folds, same parallelism, same order.
fn traced_cv(
    trace: &Trace,
    parent: u64,
    set: &DesignSet,
    cfg: &TimerConfig,
    store: &Store,
) -> Vec<Prediction> {
    let folds = set.folds(FOLDS);
    let results = rtlt_runtime::par_map(cfg.threads, &folds, |fold| {
        let names: Vec<&str> = fold.iter().map(|s| &**s).collect();
        let (train, test) = set.split(&names);
        if test.is_empty() {
            return Vec::new();
        }
        let model = trace.span(parent, "ml.fit", |_| RtlTimer::fit_with(store, &train, cfg));
        let mut scratch = PredictScratch::default();
        test.iter()
            .map(|d| {
                trace.span(parent, "ml.predict", |_| {
                    model.predict_with(d, &mut scratch)
                })
            })
            .collect::<Vec<_>>()
    });
    let mut out: Vec<Prediction> = results.into_iter().flatten().collect();
    out.sort_by(|a, b| a.design.cmp(&b.design));
    out
}

/// One pass against `store` under a root span named `root`, traced when
/// `trace` is on.
fn pass(
    trace: &Trace,
    root: &'static str,
    sources: &[(String, String)],
    cfg: &TimerConfig,
    store: &Store,
) -> Pass {
    trace.span(0, root, |op| {
        let t = Instant::now();
        let set = trace
            .span(op, "pipeline.prepare", |_| {
                DesignSet::prepare_named_with(sources, cfg, store)
            })
            .unwrap_or_else(|e| panic!("suite design failed to prepare: {e}"));
        let prepare_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let preds = trace.span(op, "pipeline.cv", |cv| {
            if trace.on() {
                traced_cv(trace, cv, &set, cfg, store)
            } else {
                cross_validate_with(&set, FOLDS, cfg, store)
            }
        });
        let cv_s = t.elapsed().as_secs_f64();
        Pass {
            prepare_s,
            cv_s,
            set,
            preds,
            stats: store.stats(),
        }
    })
}

pub fn run(run: &Run, trace: &Trace, report: &mut Report) {
    let cfg = run.cfg();
    let dir = run.work.join("store");
    let n = rtlt_designgen::generate_all().len();

    // Set-up: the populating cold pass into an emptied directory, repeated
    // (`setup_s` is the median). The cold passes must agree; the last one
    // fills the store the timed passes read, is the reference they are
    // checked against, and is what a traced run takes the cold layers'
    // numbers from.
    let sources = rtlt_designgen::generate_all();
    let mut setups: Vec<Summary> = Vec::new();
    let mut cold = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store directory");
        let p = pass(trace, "setup", &sources, &cfg, &Store::on_disk(&dir));
        report.setup_s.push(t.elapsed().as_secs_f64());
        setups.push(Summary::of(&p, n, true));
        cold = trace.on().then_some(p);
    }
    let reference = setups.last().expect("at least one set-up");
    report.check(
        setups
            .iter()
            .all(|s| s.complete && s.preds == reference.preds && s.digest == reference.digest),
        2 * n as u64,
        "cold passes agree",
    );

    // Timed passes, each through a fresh `Store::on_disk` handle so the
    // decoded front cache starts empty. In a traced run, untraced and
    // traced passes alternate; only untraced ones feed the end-to-end
    // metrics. Each pass is summarized (outside its timing) and dropped;
    // the suite digest is taken of the first one.
    let off = Trace::new(false);
    let deadline = Instant::now() + run.seconds;
    let mut passes: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut timed = Bracketed::new(cfg.threads);
    let mut order = Vec::new();
    let min_passes = if trace.on() { 2 } else { 1 };
    while passes.len() + traced.len() < min_passes || Instant::now() < deadline {
        let tracing = trace.on() && passes.len() > traced.len();
        timed.before();
        let p = pass(
            if tracing { trace } else { &off },
            "op",
            &sources,
            &cfg,
            &Store::on_disk(&dir),
        );
        timed.after((p.prepare_s + p.cv_s) * 1e3);
        order.push(tracing);
        let summary = Summary::of(&p, n, passes.is_empty());
        if tracing {
            traced.push(summary);
        } else {
            passes.push(summary);
        }
    }
    report.timed(&timed, &order);
    let _ = std::fs::remove_dir_all(&dir);

    // Output checks, outside the timed region. Every pass is compared
    // with the set-up's cold pass, and must take every prepare stage and
    // every fold model from the store; a mismatch fails all of that
    // pass's operations.
    for (i, s) in passes.iter().chain(&traced).enumerate() {
        report.attempted += 2 * n as u64;
        let prep = s.stats.aggregate(stage::PREPARE);
        let ok = s.complete
            && s.preds == reference.preds
            && s.digest.is_none_or(|d| Some(d) == reference.digest)
            && prep.misses == 0
            && s.stats.namespace(stage::MODEL).misses == 0;
        report.check(
            ok,
            2 * n as u64,
            &format!("pass {i} matches the set-up's cold pass"),
        );
    }

    let note = format!("median of {} untraced passes", passes.len());
    let prepare_s: Vec<f64> = passes.iter().map(|p| p.prepare_s).collect();
    let cv_s: Vec<f64> = passes.iter().map(|p| p.cv_s).collect();
    report.show("prepare_s", median(&prepare_s), "s", &note);
    report.show("cv_s", median(&cv_s), "s", &note);
    let cold_note = "the set-up's cold pass";
    report.show("cold_prepare_s", reference.prepare_s, "s", cold_note);
    report.show("cold_cv_s", reference.cv_s, "s", cold_note);
    // `bit_r` / `signal_r`: deterministic per seed, so an output check
    // (every warm pass predicts the cold pass's bits) rather than a timed
    // metric.
    let (bit_r, signal_r) = (reference.bit_r, reference.signal_r);
    report.check(bit_r > 0.5 && signal_r > 0.5, 0, "mean CV R above 0.5");
    report.show("bit_r", bit_r, "1", "mean per-design bit-level R over CV");
    report.show(
        "signal_r",
        signal_r,
        "1",
        "mean per-design signal-level R over CV",
    );

    if let Some(cold) = &cold {
        layers(trace, &sources, &cfg, cold, &traced, report);
    }
}

/// Per-layer metrics of a traced run: spans of the set-up's cold pass and
/// of the traced warm passes, plus three probes outside the timed passes
/// (an in-memory prepare, a serial stage-by-stage prepare, and annotation
/// rendering).
fn layers(
    trace: &Trace,
    sources: &[(String, String)],
    cfg: &TimerConfig,
    cold: &Pass,
    traced: &[Summary],
    report: &mut Report,
) {
    // Store writes: the cold on-disk prepare minus the same prepare on an
    // in-memory store.
    let digest = cold.set.content_digest();
    let t = Instant::now();
    let mem = trace.span(0, "probe.prepare_in_memory", |_| {
        DesignSet::prepare_named_with(sources, cfg, &Store::in_memory())
    });
    let in_memory = t.elapsed().as_secs_f64();
    report.check(
        mem.is_ok_and(|s| s.content_digest() == digest),
        0,
        "in-memory prepare matches the on-disk one",
    );
    report.layer("store.write_s", cold.prepare_s - in_memory);

    stage_probe(trace, sources, cfg, digest, report);

    for p in &cold.preds {
        let d = cold
            .set
            .get(&p.design)
            .expect("CV predicts prepared designs");
        let _ = trace.span(0, "annotate.render", |_| annotate_source(d, p));
    }

    // Store counters: what the cold pass wrote and computed into its empty
    // store, what a traced warm pass (a fresh handle over the populated
    // directory) read and hit.
    let written = StoreTotals::of(&cold.stats);
    let read = StoreTotals::of(&traced[0].stats);
    StoreTotals {
        read: read.read,
        hits: read.hits,
        lookups: read.lookups,
        ..written
    }
    .report(report);

    let seconds = |span| median(&trace.durations_ms(span)) / 1e3;
    report.layer("pipeline.prepare_s", seconds("pipeline.prepare"));
    report.layer("pipeline.cv_s", seconds("pipeline.cv"));
    // Models are fitted in the cold passes only; warm passes load them.
    let spans = trace.spans();
    let setups: Vec<&Span> = spans.iter().filter(|s| s.name == "setup").collect();
    let fits: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == "ml.fit"
                && setups
                    .iter()
                    .any(|u| u.start_ns <= s.start_ns && s.end_ns <= u.end_ns)
        })
        .map(Span::ms)
        .collect();
    report.layer("ml.fit_s", median(&fits) / 1e3);
    let predict = trace.durations_ms("ml.predict");
    report.layer("ml.predict_ms_p50", median(&predict));
    report.layer("ml.predict_ms_max", percentile(&predict, 100.0));
    report.layer(
        "annotate.render_ms",
        median(&trace.durations_ms("annotate.render")),
    );
}

/// Runs `compile → blast → label → featurize` serially for every source
/// (uncached), one span per stage call, and checks the result against
/// `expect` (the digest of the same designs prepared through the store).
pub fn stage_probe(
    trace: &Trace,
    sources: &[(String, String)],
    cfg: &TimerConfig,
    expect: ContentHash,
    report: &mut Report,
) {
    let stages = PrepareStages::new(cfg);
    let mut designs = Vec::with_capacity(sources.len());
    for (name, src) in sources {
        let compiled = trace.span(0, "verilog.compile", |_| stages.compile(name, src));
        let Ok(compiled) = compiled else {
            report.check(false, 1, &format!("{name} compiles"));
            return;
        };
        let blasted = trace.span(0, "bog.blast", |_| stages.blast(compiled));
        let labeled = trace.span(0, "synth.label", |_| stages.label(blasted));
        designs.push(trace.span(0, "dataset.featurize", |_| stages.featurize(labeled)));
    }
    report.check(
        DesignSet::new(designs).content_digest() == expect,
        0,
        "stage-by-stage prepare matches the store's",
    );
    for (layer, span) in [
        ("verilog.compile_ms", "verilog.compile"),
        ("bog.blast_ms", "bog.blast"),
        ("synth.label_ms", "synth.label"),
        ("dataset.featurize_ms", "dataset.featurize"),
    ] {
        report.layer(layer, trace.durations_ms(span).iter().sum());
    }
}
