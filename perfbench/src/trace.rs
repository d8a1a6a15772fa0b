//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are timed from the benchmark's side of each public entry point
//! (nothing inside the program is instrumented), kept in memory, and
//! written out as JSON lines when the run ends. A disabled trace runs the
//! wrapped call and records nothing.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span (0 at the root).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own children.
    pub fn span<R>(&self, parent: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Durations (ms) of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span named `name`: its duration minus the
    /// part of it that its children's intervals cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                let mut kids = children.get(&s.id).cloned().unwrap_or_default();
                kids.sort_unstable();
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ms() - covered as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path, workload: &str, run_id: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"run\":\"{run_id}\"}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let t = Trace::new(true);
        {
            let mut spans = t.spans.lock().unwrap();
            let mk = |id, parent, name, start_ns, end_ns| Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            };
            spans.push(mk(1, 0, "op", 0, 10_000_000));
            spans.push(mk(2, 1, "a", 1_000_000, 4_000_000));
            spans.push(mk(3, 1, "b", 3_000_000, 6_000_000));
            spans.push(mk(4, 2, "deep", 1_000_000, 2_000_000));
        }
        assert_eq!(t.self_ms("op"), vec![5.0]);
        assert_eq!(t.self_ms("a"), vec![2.0]);
        assert_eq!(t.durations_ms("b"), vec![3.0]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(false);
        assert_eq!(t.span(0, "x", |id| id + 1), 1);
        assert!(t.spans().is_empty());
    }
}
