//! `edit_local` and `edit_live`: seeded single-lane edit streams over the
//! 12-lane `hier::soc` design, re-annotated through one local
//! `IncrementalAnnotator` loop, or through two concurrent
//! `LiveAnnotator` sessions against one in-process `rtlt-annotated`.

use crate::edits::{splitmix64, Edit, EditStream};
use crate::speed::{Bracketed, IdleProbes, Interval};
use crate::stats::{mean, median, percentile};
use crate::trace::Trace;
use crate::{Report, Run, StoreTotals};
use rtl_timer::annotate::annotate_source;
use rtl_timer::incremental::ReannotateOutcome;
use rtl_timer::live::{self, LiveAnnotator, LiveService};
use rtl_timer::{DesignData, DesignSet, IncrementalAnnotator, RtlTimer, TimerConfig};
use rtlt_designgen::hier;
use rtlt_store::Store;
use rtlt_verilog::VerilogError;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOP: &str = "hier_soc";
const LANES: usize = 12;
const WIDTH: u32 = 32;
const DEPTH: u32 = 3;
const TRAINERS: usize = 2;
const SESSIONS: u32 = 2;
/// A live client's think time between a reply and its next edit is
/// uniform in `[0, THINK_MAX_US)`, seeded per session: without it the two
/// closed loops lock into step on the shared tick and the run measures
/// whichever phase they happened to lock into.
const THINK_MAX_US: u64 = 200_000;
/// Set-up repetitions per run (their median is `setup_s`).
const SETUP_REPS: usize = 2;

/// The prepared base design, its trainers, and the model fitted on them.
struct Base {
    sources: Vec<(String, String)>,
    set: DesignSet,
    model: Arc<RtlTimer>,
}

impl Base {
    /// Prepares the designs and fits the model through `store`, which is
    /// left warm for the edits.
    fn prepare(trace: &Trace, cfg: &TimerConfig, store: &Store) -> Base {
        let mut sources = vec![(TOP.to_owned(), hier::soc(TOP, LANES, WIDTH, DEPTH))];
        for i in 0..TRAINERS {
            let name = format!("soc_trainer{i}");
            let src = hier::soc(&name, LANES, WIDTH, DEPTH);
            sources.push((name, src));
        }
        let set = trace
            .span(0, "pipeline.prepare", |_| {
                DesignSet::prepare_named_with(&sources, cfg, store)
            })
            .unwrap_or_else(|e| panic!("soc design failed to prepare: {e}"));
        let (train, _) = set.split(&[TOP]);
        let model = trace.span(0, "ml.fit", |_| RtlTimer::fit_with(store, &train, cfg));
        Base {
            sources,
            set,
            model,
        }
    }

    fn design(&self) -> &DesignData {
        self.set.get(TOP).expect("base design prepared")
    }

    fn source(&self) -> &str {
        &self.sources[0].1
    }
}

/// One re-annotation through the resumable job, each phase in its own span
/// under `parent`. Returns the outcome and the phases' summed wall time.
fn traced_reannotate(
    trace: &Trace,
    parent: u64,
    annotator: &mut IncrementalAnnotator,
    source: &str,
    model: &RtlTimer,
    store: &Store,
) -> Result<(ReannotateOutcome, f64), VerilogError> {
    let t = Instant::now();
    let mut job = trace.span(parent, "incremental.begin", |_| {
        annotator.begin(source, store)
    })?;
    trace.span(parent, "incremental.step", |_| {
        while !job.step(store, usize::MAX) {}
    });
    let out = trace.span(parent, "incremental.finish", |_| job.finish(model, store));
    Ok((out, t.elapsed().as_secs_f64() * 1e3))
}

/// Whether an edit's outcome looks like the edit: only its lane is dirty
/// and at least one shard missed.
fn edit_shape_ok(edit: &Edit, dirty_modules: &[String], dirty_shards: u64) -> bool {
    dirty_shards >= 1 && dirty_modules == [hier::lane_name(edit.lane)]
}

/// Probes shared by both edit workloads' traced runs: predict + render on
/// the base design, the serial stage-by-stage prepare, and the store-write
/// share of a cold prepare of the same sources.
fn probes(run: &Run, trace: &Trace, base: &Base, report: &mut Report) {
    let cfg = run.cfg();
    for _ in 0..5 {
        let pred = trace.span(0, "ml.predict", |_| base.model.predict(base.design()));
        let _ = trace.span(0, "annotate.render", |_| {
            annotate_source(base.design(), &pred)
        });
    }
    let predict = trace.durations_ms("ml.predict");
    report.layer("ml.predict_ms_p50", median(&predict));
    report.layer("ml.predict_ms_max", percentile(&predict, 100.0));
    report.layer(
        "annotate.render_ms",
        median(&trace.durations_ms("annotate.render")),
    );
    report.layer("ml.fit_s", median(&trace.durations_ms("ml.fit")) / 1e3);
    report.layer(
        "pipeline.prepare_s",
        median(&trace.durations_ms("pipeline.prepare")) / 1e3,
    );

    crate::suite::stage_probe(
        trace,
        &base.sources,
        &cfg,
        base.set.content_digest(),
        report,
    );

    let time_prepare = |store: &Store| {
        let t = Instant::now();
        let ok = DesignSet::prepare_named_with(&base.sources, &cfg, store)
            .map(|s| s.content_digest() == base.set.content_digest())
            .unwrap_or(false);
        (t.elapsed().as_secs_f64(), ok)
    };
    let dir = run.work.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let (disk_s, disk_ok) = time_prepare(&Store::on_disk(&dir));
    let (mem_s, mem_ok) = time_prepare(&Store::in_memory());
    let _ = std::fs::remove_dir_all(&dir);
    report.check(disk_ok && mem_ok, 0, "probe prepares match the set-up's");
    report.layer("store.write_s", disk_s - mem_s);
}

fn incremental_layers(trace: &Trace, dirty: &[f64], reused: &[f64], report: &mut Report) {
    for (layer, span) in [
        ("incremental.begin_ms", "incremental.begin"),
        ("incremental.step_ms", "incremental.step"),
        ("incremental.finish_ms", "incremental.finish"),
    ] {
        report.layer(layer, median(&trace.durations_ms(span)));
    }
    report.layer("incremental.dirty_shards", mean(dirty));
    report.layer("incremental.reused_shards", mean(reused));
}

pub fn run_local(run: &Run, trace: &Trace, report: &mut Report) {
    let cfg = run.cfg();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let store = Store::in_memory();
        let base = Base::prepare(trace, &cfg, &store);
        let mut annotator = IncrementalAnnotator::new(base.design(), &cfg);
        let baseline = annotator
            .reannotate(base.source(), &base.model, &store)
            .expect("base design annotates");
        report.setup_s.push(t.elapsed().as_secs_f64());
        report.check(
            baseline.dirty_shards == 0,
            0,
            "baseline annotation fully warm",
        );
        state = Some((base, store, annotator));
    }
    let (base, store, mut annotator) = state.expect("at least one set-up");

    let mut stream = EditStream::new(base.source(), LANES, run.seed, 0, 1).expect("lane sites");
    let off = Trace::new(false);
    let before = StoreTotals::of(&store.stats());
    let mut last: Option<(String, String)> = None;
    let (mut dirty, mut reused) = (Vec::new(), Vec::new());
    let mut timed = Bracketed::new(1);
    // Traced runs alternate untraced and traced edits.
    let mut traced = Vec::new();
    let min_edits = if trace.on() { 2 } else { 1 };
    let deadline = Instant::now() + run.seconds;
    while traced.len() < min_edits || Instant::now() < deadline {
        let edit = stream.next_edit();
        let tracing = trace.on() && traced.len() % 2 == 1;
        traced.push(tracing);
        let (out, _) = timed.time(|| {
            if tracing {
                trace.span(0, "op", |op| {
                    traced_reannotate(trace, op, &mut annotator, &edit.source, &base.model, &store)
                })
            } else {
                traced_reannotate(&off, 0, &mut annotator, &edit.source, &base.model, &store)
            }
        });
        report.attempted += 1;
        match out {
            Ok((out, _)) => {
                report.check(
                    edit_shape_ok(&edit, &out.dirty_modules, out.dirty_shards),
                    1,
                    "edit dirties only its lane and at least one shard",
                );
                dirty.push(out.dirty_shards as f64);
                reused.push(out.reused_shards as f64);
                last = Some((edit.source, out.annotated));
            }
            Err(e) => report.check(false, 1, &format!("edit re-annotates: {e}")),
        }
    }
    report.timed(&timed, &traced);
    let after = StoreTotals::of(&store.stats());

    // The last revision against a cold recompute on an empty store.
    if let Some((source, annotated)) = &last {
        let cold = IncrementalAnnotator::new(base.design(), &cfg)
            .reannotate(source, &base.model, &Store::in_memory())
            .map(|c| &c.annotated == annotated)
            .unwrap_or(false);
        report.check(cold, 1, "last revision equals a cold recompute");
    }

    report_edits(report, "edits through one local loop");
    if trace.on() {
        incremental_layers(trace, &dirty, &reused, report);
        after.minus(&before).report(report);
        probes(run, trace, &base, report);
    }
}

/// One session's timed edit, as its client saw it.
struct SessionEdit {
    edit: Edit,
    timed: Interval,
    traced: bool,
    outcome: Result<live::LiveOutcome, String>,
}

pub fn run_live(run: &Run, trace: &Trace, report: &mut Report) {
    let cfg = run.cfg();
    let client_store = Store::in_memory();
    let mut state: Option<(Base, live::LiveHandle, Vec<LiveAnnotator>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, handle, _)) = state.take() {
            handle.stop();
        }
        let t = Instant::now();
        let store = Store::in_memory();
        let base = Base::prepare(trace, &cfg, &store);
        let svc = LiveService::new(
            Arc::clone(&base.model),
            store,
            &[base.design()],
            &cfg,
            live::DEFAULT_STEP_SHARDS,
        );
        let handle = live::spawn("127.0.0.1:0", svc).expect("bind loopback service");
        let addr = handle.addr.to_string();
        let mut sessions = Vec::new();
        for _ in 0..SESSIONS {
            let mut s = LiveAnnotator::with_remote(base.design(), &cfg, &addr);
            let baseline = s
                .reannotate(base.source(), &base.model, &client_store)
                .expect("base design annotates");
            report.check(baseline.remote, 0, "session opened remotely");
            sessions.push(s);
        }
        report.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((base, handle, sessions));
    }
    let (base, handle, sessions) = state.expect("at least one set-up");

    // Two client threads, one connection each, closed loop: each sends its
    // next edit a think time after the previous annotation arrives. The
    // service thread may run on either CPU, so host-speed probes are taken
    // on two threads, whenever no edit is in flight.
    let speed = IdleProbes::new(SESSIONS as usize);
    let deadline = Instant::now() + run.seconds;
    let model = &base.model;
    let client_store = &client_store;
    let speed_ref = &speed;
    let per_session: Vec<Vec<SessionEdit>> = std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, mut session)| {
                let mut stream =
                    EditStream::new(base.source(), LANES, run.seed, i as u32, SESSIONS)
                        .expect("lane sites");
                let mut think = run.seed ^ (i as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
                scope.spawn(move || {
                    let mut edits = Vec::new();
                    let min_edits = if trace.on() { 2 } else { 1 };
                    while edits.len() < min_edits || Instant::now() < deadline {
                        let edit = stream.next_edit();
                        let traced = trace.on() && edits.len() % 2 == 1;
                        let mut call = |_| session.reannotate(&edit.source, model, client_store);
                        let (outcome, timed) = speed_ref.time(|| {
                            if traced {
                                trace.span(0, "op", call)
                            } else {
                                call(0)
                            }
                        });
                        edits.push(SessionEdit {
                            edit,
                            timed,
                            traced,
                            outcome: outcome.map_err(|e| e.to_string()),
                        });
                        std::thread::sleep(Duration::from_micros(
                            splitmix64(&mut think) % THINK_MAX_US,
                        ));
                    }
                    edits
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    speed.probe_if_idle();
    handle.stop();
    for e in per_session.iter().flatten() {
        report.op(e.timed.ms, speed.at_ref(e.timed), e.traced);
    }
    report.probes_ms.extend(speed.probes());

    let mut turns = Vec::new();
    let (mut dirty, mut reused) = (Vec::new(), Vec::new());
    let mut remote = 0usize;
    for e in per_session.iter().flatten() {
        report.attempted += 1;
        match &e.outcome {
            Ok(out) => {
                remote += usize::from(out.remote);
                turns.push(out.round_trips as f64);
                dirty.push(out.dirty_shards as f64);
                reused.push(out.reused_shards as f64);
                report.check(
                    out.remote && edit_shape_ok(&e.edit, &out.dirty_modules, out.dirty_shards),
                    1,
                    "edit answered remotely, dirtying only its lane",
                );
            }
            Err(err) => report.check(false, 1, &format!("edit re-annotates: {err}")),
        }
    }

    // Each session's annotations against a local replay of its stream, one
    // replay thread per session over a store warmed with the base design.
    let replay_store = Store::in_memory();
    let warm = IncrementalAnnotator::new(base.design(), &cfg)
        .reannotate(base.source(), &base.model, &replay_store)
        .is_ok();
    report.check(warm, 0, "replay store warms");
    let replays: Vec<Vec<(bool, f64)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = per_session
            .iter()
            .map(|edits| {
                let (base, cfg, replay_store) = (&base, &cfg, &replay_store);
                scope.spawn(move || {
                    let mut twin = IncrementalAnnotator::new(base.design(), cfg);
                    edits
                        .iter()
                        .map(|e| {
                            let local = trace.span(0, "replay", |r| {
                                traced_reannotate(
                                    trace,
                                    r,
                                    &mut twin,
                                    &e.edit.source,
                                    &base.model,
                                    replay_store,
                                )
                            });
                            match (local, &e.outcome) {
                                (Ok((twin_out, local_ms)), Ok(out)) => {
                                    (twin_out.annotated == out.annotated, local_ms)
                                }
                                _ => (false, f64::NAN),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread"))
            .collect()
    });
    for (i, replay) in replays.iter().enumerate() {
        let mismatches = replay.iter().filter(|(same, _)| !same).count() as u64;
        report.check(
            mismatches == 0,
            mismatches,
            &format!("session {i} equals its local replay"),
        );
    }

    report_edits(report, "edits pooled over two live sessions");
    let n = per_session.iter().map(Vec::len).collect::<Vec<_>>();
    report.show(
        "sessions",
        SESSIONS as f64,
        "count",
        &format!("edits per session {n:?}"),
    );

    if trace.on() {
        let wait: Vec<f64> = per_session
            .iter()
            .flatten()
            .zip(replays.iter().flatten())
            .map(|(e, (_, local_ms))| e.timed.ms - local_ms)
            .filter(|w| w.is_finite())
            .collect();
        report.layer("live.turns_per_edit", mean(&turns));
        report.layer(
            "live.remote_frac",
            remote as f64 / per_session.iter().map(Vec::len).sum::<usize>() as f64,
        );
        report.layer("live.wait_ms_p50", median(&wait));
        report.layer("live.wait_ms_p90", percentile(&wait, 90.0));
        incremental_layers(trace, &dirty, &reused, report);
        StoreTotals::of(&replay_store.stats()).report(report);
        probes(run, trace, &base, report);
    }
}

/// Human-readable edit-latency lines (`edit_ms_*`, the same samples as
/// `op_ms_*`, with the sample count and the honest tail percentile).
fn report_edits(report: &mut Report, what: &str) {
    let ops = report.ops_ms.clone();
    let n = ops.len();
    let tail = crate::stats::tail_percentile(n)
        .map(|p| format!("p{p} = {:.3} ms", percentile(&ops, p)))
        .unwrap_or_else(|| "none (fewer than 20 samples)".to_owned());
    let note = format!("{n} untraced {what}; highest percentile with >= 10 samples beyond: {tail}");
    report.show("edit_ms_p50", median(&ops), "ms", &note);
    report.show("edit_ms_p90", percentile(&ops, 90.0), "ms", &note);
}
