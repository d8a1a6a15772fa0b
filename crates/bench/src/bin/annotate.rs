//! **Incremental annotation demo** — the paper's early-optimization loop
//! (§3.5.1, Fig. 3) end to end: prepare a hierarchical multi-module design,
//! train (or reuse) a model, open an [`IncrementalAnnotator`] session, edit
//! one lane module, and re-annotate.
//!
//! Asserts (and reports in `BENCH_annotate.json` under `incremental`) the
//! architecture's contract:
//!
//! 1. editing one module recomputes only the featurize shards of the cones
//!    it changes (the job's own shard counts),
//! 2. the warm incremental re-annotation is an order of magnitude faster
//!    than a cold full prepare of the same edited design, and
//! 3. the annotated output is byte-identical to a cold recompute, and its
//!    prediction equal to the cold one bit for bit.
//!
//! The session then runs a short multi-edit stream — further lanes edited
//! one after another, then a revert to the base — checking every revision
//! against a cold recompute and reusing the resident revision each time.
//! Each warm edit is timed per phase (`begin`/`step`/`finish`); the report
//! carries `edit_ms_p50` and the phase medians, which the CI smoke lane
//! gates against `warm_edit_ms` in `ci/bench-baseline.json`, and the path
//! rows and endpoints each edit re-walked through the forests
//! (`walked_rows` of `total_rows` for the first edit, `stream_*_max` over
//! the stream), which the lane holds to 5 % of the rows per edited lane.
//!
//! With `--selfcheck` the process exits non-zero when any of the structural
//! invariants (1) or (3) fail, or a streamed revision differs from its
//! cold recompute (annotation or prediction bits) or misses the resident
//! revision — the CI smoke job runs exactly that.
//!
//! Two extra modes turn the same loop into the live annotation service
//! (`rtlt-annotated`, see `docs/sessions.md`):
//!
//! - `--serve [--addr=HOST:PORT]` prepares the suite, trains the model,
//!   and serves OPEN/EDIT/ANNOTATE sessions for the base design on one
//!   single-threaded event loop (prints a `listening on` line when ready);
//! - `--connect=ADDR` drives the same edit through a [`LiveAnnotator`]
//!   session against that service, asserting byte-identity with the local
//!   incremental loop and reporting the per-edit round trips — and
//!   degrading to local recompute (same bytes) when the server is gone.

use rtl_timer::incremental::{IncrementalAnnotator, ReannotateOutcome};
use rtl_timer::live::{self, LiveAnnotator, LiveService};
use rtl_timer::pipeline::{DesignSet, PrepareStages, RtlTimer};
use rtlt_bench::{json::Json, median, positional_args, Bench};
use rtlt_designgen::hier;
use rtlt_store::Store;
use std::time::Instant;

const TOP: &str = "hier_soc";
const WIDTH: u32 = 32;
const DEPTH: u32 = 3;
/// Most lanes a `hier::soc` top can merge within the frontend's nesting
/// bound: one level for its `always` statement, one per lane.
const MAX_LANES: usize = rtlt_verilog::MAX_NESTING as usize - 1;

fn main() {
    let bench = Bench::from_env();
    let cfg = bench.cfg.clone();
    let args = positional_args();
    let selfcheck = args.iter().any(|a| a == "--selfcheck");
    let serve = args.iter().any(|a| a == "--serve");
    let listen_addr = args
        .iter()
        .find_map(|a| a.strip_prefix("--addr="))
        .unwrap_or("127.0.0.1:7463")
        .to_owned();
    let connect = args
        .iter()
        .find_map(|a| a.strip_prefix("--connect="))
        .map(str::to_owned);
    let lanes = match args.iter().find_map(|a| a.strip_prefix("--lanes=")) {
        None => 12,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if (1..=MAX_LANES).contains(&n) => n,
            _ => {
                eprintln!(
                    "error: --lanes={v}: need 1..={MAX_LANES} (the top XORs every lane in one \
                     chain, and the frontend nests at most {} levels)",
                    rtlt_verilog::MAX_NESTING
                );
                std::process::exit(2);
            }
        },
    };
    let trainers = if rtlt_bench::fast() { 2 } else { 4 };

    // Base design + a few sibling designs to train on.
    let base = hier::soc(TOP, lanes, WIDTH, DEPTH);
    let mut sources = vec![(TOP.to_owned(), base.clone())];
    for i in 0..trainers {
        let name = format!("soc_trainer{i}");
        sources.push((name.clone(), hier::soc(&name, lanes, WIDTH, DEPTH)));
    }
    eprintln!(
        "[annotate] preparing {} designs ({lanes} lanes each) ...",
        sources.len()
    );
    let t = Instant::now();
    let set = DesignSet::prepare_named_with(&sources, &cfg, &bench.store).expect("valid sources");
    eprintln!("[annotate] prepared in {:.2}s", t.elapsed().as_secs_f64());
    let (train, test) = set.split(&[TOP]);
    let model = RtlTimer::fit_with(&bench.store, &train, &cfg);
    let base_d = test[0];
    let t = Instant::now();
    let _ = model.predict(base_d);
    let predict_s = t.elapsed().as_secs_f64();
    eprintln!("[annotate] one full-design inference: {predict_s:.3}s");

    if serve {
        // Live annotation service: the suite's warm store and trained
        // model move into the event loop; sessions open against the base
        // design. Blocks until killed.
        let svc = LiveService::new(
            model,
            bench.store,
            &[base_d],
            &cfg,
            live::DEFAULT_STEP_SHARDS,
        );
        let listener = std::net::TcpListener::bind(&listen_addr).expect("bind live service");
        let bound = listener.local_addr().expect("local addr");
        println!("rtlt-annotated listening on {bound} (design {TOP}, {lanes} lanes)");
        let stop = std::sync::atomic::AtomicBool::new(false);
        live::serve_until(listener, svc, &stop);
        return;
    }
    if let Some(addr) = connect {
        live_connect(&bench, &model, base_d, &base, lanes, &addr, selfcheck);
        return;
    }

    // Session: pin the baseline clock, annotate the unedited source once.
    let mut annotator = IncrementalAnnotator::new(base_d, &cfg);
    let out0 = annotator
        .reannotate(&base, &model, &bench.store)
        .expect("baseline pass");
    println!(
        "baseline annotation @ clock {:.3}ns: {} shards, {} warm",
        annotator.clock(),
        out0.total_shards,
        out0.reused_shards
    );

    // The edit: one lane's first pipeline stage changes.
    let edited_lane = lanes / 2;
    let edited = hier::edit_lane(&base, edited_lane).expect("lane edit");
    let mut phases = PhaseTimes::default();
    let warm = phases.pass(&mut annotator, &edited, &model, &bench.store);
    let warm_s = phases.edit_ms[0] / 1e3;
    println!(
        "edit lane{edited_lane}: dirty modules {:?}, {} / {} shards recomputed in {:.3}s",
        warm.dirty_modules, warm.dirty_shards, warm.total_shards, warm_s
    );

    // Reference 1: a cold full prepare of the edited design (fresh store —
    // compile, blast, label synthesis, every shard).
    let t = Instant::now();
    let _cold_prep = PrepareStages::new(&cfg)
        .run_with(&Store::in_memory(), TOP, &edited)
        .expect("cold prepare");
    let cold_prepare_s = t.elapsed().as_secs_f64();
    let speedup = cold_prepare_s / warm_s.max(1e-9);
    println!(
        "cold full prepare of the edited design: {cold_prepare_s:.3}s → incremental speedup {speedup:.1}x"
    );

    // Reference 2: the same re-annotation against a cold store must be
    // byte-identical (incrementality changes reuse, never results).
    let mut cold_session = IncrementalAnnotator::new(base_d, &cfg);
    let cold = cold_session
        .reannotate(&edited, &model, &Store::in_memory())
        .expect("cold pass");
    let byte_identical =
        cold.annotated == warm.annotated && cold.prediction.same_bits(&warm.prediction);
    println!(
        "cold vs warm annotation: {}",
        if byte_identical {
            "byte-identical"
        } else {
            "MISMATCH"
        }
    );

    // A short multi-edit stream through the same session: three more
    // lanes edited one after another, then a revert to the base. Every
    // revision must equal a cold recompute and reuse the resident one.
    let mut stream = Vec::new();
    let mut rev = edited.clone();
    for lane in [0, lanes - 1, lanes / 4] {
        rev = hier::edit_lane(&rev, lane).expect("lane edit");
        stream.push(rev.clone());
    }
    stream.push(base.clone());
    let (mut stream_identical, mut stream_resident) = (true, true);
    // Maxima over the streamed edits; rows also per edited lane, since the
    // revert edits every lane the stream touched.
    let (mut stream_walked_rows, mut stream_walked_endpoints) = (0, 0);
    let mut stream_walked_rows_per_lane = 0;
    for source in &stream {
        let out = phases.pass(&mut annotator, source, &model, &bench.store);
        let cold = IncrementalAnnotator::new(base_d, &cfg)
            .reannotate(source, &model, &Store::in_memory())
            .expect("cold pass");
        stream_identical &=
            cold.annotated == out.annotated && cold.prediction.same_bits(&out.prediction);
        stream_resident &= out.reused_shards > 0;
        stream_walked_rows = stream_walked_rows.max(out.walked_rows);
        stream_walked_endpoints = stream_walked_endpoints.max(out.walked_endpoints);
        stream_walked_rows_per_lane = stream_walked_rows_per_lane
            .max(out.walked_rows / out.dirty_modules.len().max(1) as u64);
        println!(
            "streamed edit ({:?}): re-walked {} / {} path rows, {} / {} endpoints",
            out.dirty_modules,
            out.walked_rows,
            out.total_rows,
            out.walked_endpoints,
            out.total_endpoints
        );
    }
    let edit_ms_p50 = median(&phases.edit_ms);
    println!(
        "{} warm edits (1 + {} streamed): edit {edit_ms_p50:.1} ms p50 = begin {:.1} + step {:.1} + finish {:.1} ms (phase medians)",
        phases.edit_ms.len(),
        stream.len(),
        median(&phases.begin_ms),
        median(&phases.step_ms),
        median(&phases.finish_ms),
    );
    println!(
        "re-walked: {} / {} path rows, {} / {} endpoints on the first edit; at most {stream_walked_rows} rows, {stream_walked_endpoints} endpoints per streamed edit",
        warm.walked_rows, warm.total_rows, warm.walked_endpoints, warm.total_endpoints,
    );

    // A taste of the output.
    println!("\nannotated head:");
    for line in warm.annotated.lines().take(6) {
        println!("  {line}");
    }

    // Structural expectations. The provenance bound covers the edited
    // lane's DEPTH pipeline signals plus the top accumulator (it reads
    // every lane); the content keys refine that to the one cone the edit
    // actually reached (stage 0 of the edited lane), one shard per
    // representation. The edit computes exactly those shards; the rest
    // move over from the resident revision.
    let expected_bound = DEPTH as usize + 1;
    let checks = [
        ("baseline pass fully warm", out0.dirty_shards == 0),
        (
            "edit recomputes only the changed cone",
            warm.dirty_shards == 4,
        ),
        (
            "recomputation within the provenance bound",
            warm.dirty_cone_bound.len() == expected_bound
                && warm.dirty_shards <= 4 * warm.dirty_cone_bound.len() as u64,
        ),
        (
            "dirty modules = the edited lane",
            warm.dirty_modules == vec![hier::lane_name(edited_lane)],
        ),
        (
            "byte-identical to cold recompute, prediction bits too",
            byte_identical,
        ),
        (
            "every streamed revision byte-identical to cold recompute, prediction bits too",
            stream_identical,
        ),
        (
            "every streamed revision reuses the resident one",
            stream_resident,
        ),
    ];
    let mut failed = false;
    for (what, ok) in checks {
        println!("check: {what}: {}", if ok { "ok" } else { "FAIL" });
        failed |= !ok;
    }

    bench.write_report(
        "annotate",
        vec![(
            "incremental",
            Json::obj([
                ("lanes", Json::UInt(lanes as u64)),
                ("edited_lane", Json::UInt(edited_lane as u64)),
                ("total_shards", Json::UInt(warm.total_shards)),
                ("dirty_shards", Json::UInt(warm.dirty_shards)),
                ("reused_shards", Json::UInt(warm.reused_shards)),
                (
                    "dirty_cone_bound",
                    Json::UInt(warm.dirty_cone_bound.len() as u64),
                ),
                (
                    "dirty_modules",
                    Json::Arr(
                        warm.dirty_modules
                            .iter()
                            .map(|m| Json::Str(m.clone()))
                            .collect(),
                    ),
                ),
                ("reannotate_seconds", Json::Num(warm_s)),
                ("stream_revisions", Json::UInt(stream.len() as u64)),
                ("stream_byte_identical", Json::Bool(stream_identical)),
                ("edit_ms_p50", Json::Num(edit_ms_p50)),
                ("begin_ms_p50", Json::Num(median(&phases.begin_ms))),
                ("step_ms_p50", Json::Num(median(&phases.step_ms))),
                ("finish_ms_p50", Json::Num(median(&phases.finish_ms))),
                ("walked_rows", Json::UInt(warm.walked_rows)),
                ("total_rows", Json::UInt(warm.total_rows)),
                ("walked_endpoints", Json::UInt(warm.walked_endpoints)),
                ("total_endpoints", Json::UInt(warm.total_endpoints)),
                ("stream_walked_rows_max", Json::UInt(stream_walked_rows)),
                (
                    "stream_walked_rows_per_lane_max",
                    Json::UInt(stream_walked_rows_per_lane),
                ),
                (
                    "stream_walked_endpoints_max",
                    Json::UInt(stream_walked_endpoints),
                ),
                ("cold_prepare_seconds", Json::Num(cold_prepare_s)),
                ("speedup", Json::Num(speedup)),
                ("byte_identical", Json::Bool(byte_identical)),
                ("clock_ns", Json::Num(annotator.clock())),
            ]),
        )],
    );

    if selfcheck && failed {
        eprintln!("[annotate] selfcheck FAILED");
        std::process::exit(1);
    }
}

/// Per-phase wall times of the warm edits of a local session (ms).
#[derive(Default)]
struct PhaseTimes {
    begin_ms: Vec<f64>,
    step_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    edit_ms: Vec<f64>,
}

impl PhaseTimes {
    /// One re-annotation through the resumable job, timing each phase.
    fn pass(
        &mut self,
        annotator: &mut IncrementalAnnotator,
        source: &str,
        model: &RtlTimer,
        store: &Store,
    ) -> ReannotateOutcome {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let mut job = annotator.begin(source, store).expect("edit compiles");
        self.begin_ms.push(ms(t));
        let t_step = Instant::now();
        while !job.step(store, usize::MAX) {}
        self.step_ms.push(ms(t_step));
        let t_finish = Instant::now();
        let out = job.finish(model, store);
        self.finish_ms.push(ms(t_finish));
        self.edit_ms.push(ms(t));
        out
    }
}

/// `--connect=ADDR`: drive one scripted edit through a live session and
/// report timing, round trips, and byte-identity with the local loop.
///
/// Works unchanged when the server is unreachable or refuses sessions —
/// the [`LiveAnnotator`] degrades to local recompute, `used_remote` flips
/// to false in the report, and the byte-identity check still holds.
#[allow(clippy::too_many_arguments)]
fn live_connect(
    bench: &Bench,
    model: &RtlTimer,
    base_d: &rtl_timer::DesignData,
    base: &str,
    lanes: usize,
    addr: &str,
    selfcheck: bool,
) {
    let cfg = bench.cfg.clone();
    let mut session = LiveAnnotator::with_remote(base_d, &cfg, addr);
    let t = Instant::now();
    let out0 = session
        .reannotate(base, model, &bench.store)
        .expect("baseline pass");
    eprintln!(
        "[annotate] session open + baseline annotation: {:.3}s ({})",
        t.elapsed().as_secs_f64(),
        if out0.remote {
            "remote"
        } else {
            "local fallback"
        }
    );

    // The scripted edit: one lane's first pipeline stage changes. Warm
    // EDIT→ANNOTATE is what the designer's save-to-slack latency is.
    let edited_lane = lanes / 2;
    let edited = hier::edit_lane(base, edited_lane).expect("lane edit");
    let t = Instant::now();
    let warm = session
        .reannotate(&edited, model, &bench.store)
        .expect("edit pass");
    let warm_s = t.elapsed().as_secs_f64();
    println!(
        "edit lane{edited_lane} via {}: dirty modules {:?}, {} / {} shards in {:.3}s, {} round trip(s)",
        if warm.remote {
            "live session"
        } else {
            "local fallback"
        },
        warm.dirty_modules,
        warm.dirty_shards,
        warm.total_shards,
        warm_s,
        warm.round_trips
    );

    // Reference 1: a cold full prepare of the edited design — the smoke
    // lane gates warm session latency at a fraction of this.
    let t = Instant::now();
    let _ = PrepareStages::new(&cfg)
        .run_with(&Store::in_memory(), TOP, &edited)
        .expect("cold prepare");
    let cold_prepare_s = t.elapsed().as_secs_f64();
    let warm_over_cold = warm_s / cold_prepare_s.max(1e-9);
    println!(
        "cold full prepare: {cold_prepare_s:.3}s → warm session edit at {:.1}% of cold",
        warm_over_cold * 100.0
    );

    // Reference 2: a local twin replaying both revisions — the session's
    // output must be byte-identical to it, remote or degraded alike.
    let mut twin = IncrementalAnnotator::new(base_d, &cfg);
    let twin0 = twin
        .reannotate(base, model, &bench.store)
        .expect("twin baseline");
    let twin1 = twin
        .reannotate(&edited, model, &bench.store)
        .expect("twin edit");
    let byte_identical = out0.annotated == twin0.annotated && warm.annotated == twin1.annotated;

    // Round-trip accounting: the session client charges one turnaround
    // per edit to the store's `session` namespace, so the shared stats
    // table below reports it alongside the artifact tiers.
    let session_turns = bench.store.stats().namespace(live::SESSION_NS).round_trips;
    println!(
        "session round trips: {session_turns} total this process, {} for the timed edit",
        warm.round_trips
    );
    bench.print_store_stats();

    let checks = [
        (
            "session annotation byte-identical to local loop",
            byte_identical,
        ),
        (
            "shard accounting agrees with the local loop",
            warm.total_shards == twin1.total_shards,
        ),
    ];
    let mut failed = false;
    for (what, ok) in checks {
        println!("check: {what}: {}", if ok { "ok" } else { "FAIL" });
        failed |= !ok;
    }

    bench.write_report(
        "annotate",
        vec![(
            "live",
            Json::obj([
                ("addr", Json::Str(addr.to_owned())),
                ("used_remote", Json::Bool(warm.remote)),
                ("live_round_trips", Json::UInt(warm.round_trips)),
                ("session_round_trips", Json::UInt(session_turns)),
                ("warm_edit_seconds", Json::Num(warm_s)),
                ("cold_prepare_seconds", Json::Num(cold_prepare_s)),
                ("warm_over_cold", Json::Num(warm_over_cold)),
                ("byte_identical", Json::Bool(byte_identical)),
                ("dirty_shards", Json::UInt(warm.dirty_shards)),
                ("total_shards", Json::UInt(warm.total_shards)),
            ]),
        )],
    );

    if selfcheck && failed {
        eprintln!("[annotate] live selfcheck FAILED");
        std::process::exit(1);
    }
}
