//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <suite_warm|edit_local|edit_live>
//!           --seed <u64> --seconds <n> --trace <0|1> --work <dir> --out <dir>
//! ```
//!
//! Prints human-readable metric lines, then one JSON object as the last
//! line of standard output: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Exits 1 when an output check failed.
//! `perfbench/README.md` describes the workloads and every metric.

mod edits;
mod sessions;
mod speed;
mod stats;
mod suite;
mod trace;

use rtl_timer::cache::stage;
use rtl_timer::TimerConfig;
use rtlt_store::StatsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use trace::Trace;

/// End-to-end metrics, reported by every workload (`--trace 0`). Operation
/// latencies are at reference host speed (`ref_ms`, see [`speed`]); the
/// raw milliseconds are printed on the human-readable lines. The tail is
/// p75: a run of `run_seconds` = 15 holds 50–80 edits, and p75 is the
/// highest percentile with at least ten of them beyond it.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_refms_p50", "ref_ms"),
    ("op_refms_p75", "ref_ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer the workload never calls
/// reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("pipeline.prepare_s", "s"),
    ("pipeline.cv_s", "s"),
    ("verilog.compile_ms", "ms"),
    ("bog.blast_ms", "ms"),
    ("synth.label_ms", "ms"),
    ("dataset.featurize_ms", "ms"),
    ("store.write_s", "s"),
    ("store.written_mb", "MiB"),
    ("store.read_mb", "MiB"),
    ("store.hit_rate", "fraction"),
    ("store.conesta_evals", "count"),
    ("store.shard_lookups", "count"),
    ("ml.fit_s", "s"),
    ("ml.predict_ms_p50", "ms"),
    ("ml.predict_ms_max", "ms"),
    ("annotate.render_ms", "ms"),
    ("incremental.begin_ms", "ms"),
    ("incremental.step_ms", "ms"),
    ("incremental.finish_ms", "ms"),
    ("incremental.dirty_shards", "count"),
    ("incremental.reused_shards", "count"),
    ("live.turns_per_edit", "count"),
    ("live.remote_frac", "fraction"),
    ("live.wait_ms_p50", "ms"),
    ("live.wait_ms_p90", "ms"),
    ("op.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SuiteWarm,
    EditLocal,
    EditLive,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "suite_warm" => Workload::SuiteWarm,
            "edit_local" => Workload::EditLocal,
            "edit_live" => Workload::EditLive,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SuiteWarm => "suite_warm",
            Workload::EditLocal => "edit_local",
            Workload::EditLive => "edit_live",
        }
    }
}

/// One run's parameters.
pub struct Run {
    workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    trace: bool,
    /// Scratch directory of this run (on-disk stores); removed at exit.
    pub work: PathBuf,
    out: PathBuf,
}

impl Run {
    /// Pipeline configuration: the workload seed is the master seed;
    /// threads follow the machine.
    pub fn cfg(&self) -> TimerConfig {
        TimerConfig {
            seed: self.seed,
            ..TimerConfig::default()
        }
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Wall time of each set-up repetition (s).
    pub setup_s: Vec<f64>,
    /// Latency of each untraced operation (ms).
    pub ops_ms: Vec<f64>,
    /// The same latencies at reference host speed (`ref_ms`).
    pub ref_ops_ms: Vec<f64>,
    /// Host-speed probe times of the run (ms).
    pub probes_ms: Vec<f64>,
    /// Latency of each traced operation (ms) — traced runs only.
    pub traced_ops_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    lines: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a check; a failure fails `ops` operations (at least one).
    pub fn check(&mut self, ok: bool, ops: u64, what: &str) {
        if !ok {
            self.failed += ops.max(1);
            eprintln!("[perfbench] check FAILED: {what}");
        }
    }

    /// Records a workload's operations in order; `traced[i]` marks
    /// operation `i` as traced (kept out of the end-to-end metrics).
    pub fn timed(&mut self, ops: &speed::Bracketed, traced: &[bool]) {
        for ((ms, at_ref), traced) in ops.ms.iter().zip(ops.at_ref()).zip(traced) {
            self.op(*ms, at_ref, *traced);
        }
        self.probes_ms.extend(&ops.probes);
    }

    /// Records one operation: its raw latency (ms), the same at reference
    /// speed, and whether it was traced.
    pub fn op(&mut self, ms: f64, at_ref: f64, traced: bool) {
        if traced {
            self.traced_ops_ms.push(ms);
        } else {
            self.ops_ms.push(ms);
            self.ref_ops_ms.push(at_ref);
        }
    }

    /// A human-readable metric line.
    pub fn show(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.lines
            .push(format!("{name:<22} {value:>14.6} {unit:<8} {note}"));
    }

    /// A per-layer metric (must be one of [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// Store counters summed over every namespace.
#[derive(Clone, Copy)]
pub struct StoreTotals {
    written: u64,
    read: u64,
    hits: u64,
    lookups: u64,
    conesta_evals: u64,
    shard_lookups: u64,
}

impl StoreTotals {
    pub fn of(s: &StatsSnapshot) -> StoreTotals {
        let all = s.aggregate(s.namespaces.iter().map(|(n, _)| n.as_str()));
        StoreTotals {
            written: all.stored_bytes_written,
            read: all.stored_bytes_read,
            hits: all.hits(),
            lookups: all.lookups(),
            conesta_evals: s.namespace(stage::CONESTA).misses,
            shard_lookups: s.namespace(stage::SHARD).lookups(),
        }
    }

    pub fn minus(&self, before: &StoreTotals) -> StoreTotals {
        StoreTotals {
            written: self.written - before.written,
            read: self.read - before.read,
            hits: self.hits - before.hits,
            lookups: self.lookups - before.lookups,
            conesta_evals: self.conesta_evals - before.conesta_evals,
            shard_lookups: self.shard_lookups - before.shard_lookups,
        }
    }

    pub fn report(&self, report: &mut Report) {
        const MIB: f64 = 1024.0 * 1024.0;
        report.layer("store.written_mb", self.written as f64 / MIB);
        report.layer("store.read_mb", self.read as f64 / MIB);
        report.layer(
            "store.hit_rate",
            self.hits as f64 / self.lookups.max(1) as f64,
        );
        report.layer("store.conesta_evals", self.conesta_evals as f64);
        report.layer("store.shard_lookups", self.shard_lookups as f64);
    }
}

/// Peak resident set of this process (`VmHWM`, MiB).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <suite_warm|edit_local|edit_live> \
         --seed <u64> --seconds <n> --trace <0|1> --work <dir> --out <dir>"
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            usage(&format!("unexpected argument {a:?}"));
        };
        let Some(value) = args.next() else {
            usage(&format!("--{key} needs a value"));
        };
        flags.insert(key.to_owned(), value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing --{k}")))
    };
    let workload = Workload::parse(&get("workload")).unwrap_or_else(|| usage("unknown workload"));
    let seed = get("seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a u64"));
    let seconds: f64 = get("seconds")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .unwrap_or_else(|| usage("--seconds must be in (0, 600]"));
    let trace = match get("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let run_id = format!("{}-{seed}-{}", workload.name(), std::process::id());
    Run {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        work: PathBuf::from(get("work")).join(&run_id),
        out: PathBuf::from(get("out")),
    }
}

/// Formats a metric value for JSON: every digit, never NaN/inf.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let run = parse_args();
    let trace = Trace::new(run.trace);
    let mut report = Report::default();
    std::fs::create_dir_all(&run.work).expect("create work directory");
    eprintln!(
        "[perfbench] {} seed={} seconds={:?} trace={} threads={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        run.trace,
        run.cfg().threads
    );
    match run.workload {
        Workload::SuiteWarm => suite::run(&run, &trace, &mut report),
        Workload::EditLocal => sessions::run_local(&run, &trace, &mut report),
        Workload::EditLive => sessions::run_live(&run, &trace, &mut report),
    }
    let _ = std::fs::remove_dir_all(&run.work);

    let peak = peak_rss_mb();
    let e2e = [
        stats::median(&report.setup_s),
        stats::median(&report.ref_ops_ms),
        stats::percentile(&report.ref_ops_ms, 75.0),
        peak,
    ];
    let note = format!("{} untraced operations", report.ops_ms.len());
    report.show("op_ms_p50", stats::median(&report.ops_ms), "ms", &note);
    report.show(
        "op_ms_p75",
        stats::percentile(&report.ops_ms, 75.0),
        "ms",
        &note,
    );
    report.show(
        "probe_ms_p50",
        stats::median(&report.probes_ms),
        "ms",
        &format!(
            "{} host-speed probes; reference {} ms",
            report.probes_ms.len(),
            speed::REF_MS
        ),
    );
    let metrics: Vec<(&str, &str, f64)> = if run.trace {
        let untraced = stats::median(&report.ops_ms);
        let traced = stats::median(&report.traced_ops_ms);
        report.layer("trace.overhead_ms", traced - untraced);
        report.layer("op.self_ms", stats::median(&trace.self_ms("op")));
        let run_id = run
            .work
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("run");
        let path = run.out.join(format!("trace-{run_id}.jsonl"));
        match trace.write(&path, run.workload.name(), run_id) {
            Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
            Err(e) => report.check(false, 0, &format!("write spans: {e}")),
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, report.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    report.check(
        metrics.iter().all(|(_, _, v)| v.is_finite()),
        0,
        "every reported metric is a finite number",
    );
    for (name, unit, value) in &metrics {
        report.show(name, *value, unit, "");
    }
    let fail_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.show(
        "fail_rate",
        fail_rate,
        "fraction",
        &format!("{} of {} operations", report.failed, report.attempted),
    );

    println!("== {} (seed {}) ==", run.workload.name(), run.seed);
    for line in &report.lines {
        println!("{line}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
