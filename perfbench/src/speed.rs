//! Host-speed reference: a fixed computation timed between operations.
//!
//! On a shared host the same code runs up to ~1.6x slower for stretches
//! of seconds, and each CPU on its own schedule (a neighbour on the
//! sibling hyperthread, frequency steps), so raw latencies of sub-second
//! operations flip between modes from one run to the next. Each operation
//! is therefore also reported at reference speed: its latency scaled by
//! [`REF_MS`] over the mean time of the reference computation timed just
//! before and just after it, on as many threads as the operation keeps
//! busy. The computation is benchmark code only — a change to the program
//! moves the scaled latency exactly as it moves the raw one.

use crate::edits::splitmix64;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Nominal time of one [`probe_ms`] computation (ms): the scale of the
/// `ref_ms` unit. Close to what a 2-vCPU cloud VM measures in its fast
/// phase, so scaled values read near raw milliseconds there.
pub const REF_MS: f64 = 4.0;

/// Times one fixed computation (ms) on the calling thread, in two halves
/// that a busy neighbour slows by different factors: seeded integer
/// hashing into a 32 KiB table, then string keys formatted into a
/// `HashMap` of vectors (allocation, hashing, pointer chasing — the mix
/// the annotation pipeline itself runs).
pub fn probe_ms() -> f64 {
    let mut table = [0u64; 4096];
    let mut state = 0x5eed_0f5e_u64;
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..1_500_000 {
        let r = splitmix64(&mut state);
        let i = (r as usize) & (table.len() - 1);
        acc = acc.wrapping_add(table[i]).rotate_left(7) ^ r;
        table[i] = acc;
    }
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..8_000u64 {
        let r = splitmix64(&mut state);
        map.entry(format!("sig_{}_{}", r % 2_000, i % 7))
            .or_default()
            .push(r);
    }
    for (k, v) in &map {
        acc = acc.wrapping_add(k.len() as u64 + v.iter().fold(0u64, |a, x| a.wrapping_add(*x)));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// [`probe_ms`] on `width` threads at once, which the scheduler spreads
/// over `width` CPUs: their mean time (ms).
fn probe_width_ms(width: usize) -> f64 {
    if width <= 1 {
        return probe_ms();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..width).map(|_| s.spawn(probe_ms)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("probe thread does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / width as f64
}

/// Operations with a probe on each side: `probes[i]` and `probes[i + 1]`
/// bracket operation `i`.
pub struct Bracketed {
    /// Threads each probe runs on: the CPUs the operations keep busy.
    width: usize,
    /// Raw operation latencies (ms).
    pub ms: Vec<f64>,
    /// Probe times (ms), one more than operations once any ran.
    pub probes: Vec<f64>,
}

impl Bracketed {
    /// Brackets operations that keep `width` threads busy.
    pub fn new(width: usize) -> Bracketed {
        Bracketed {
            width,
            ms: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Call right before an operation: probes unless the previous
    /// operation's closing probe already stands right before it.
    pub fn before(&mut self) {
        if self.probes.len() == self.ms.len() {
            self.probes.push(probe_width_ms(self.width));
        }
    }

    /// Call right after the operation with its latency (ms).
    pub fn after(&mut self, ms: f64) {
        self.ms.push(ms);
        self.probes.push(probe_width_ms(self.width));
    }

    /// Runs `op` between two probes; returns its result and latency (ms).
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        self.before();
        let t = Instant::now();
        let out = op();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.after(ms);
        (out, ms)
    }

    /// Each operation's latency at reference speed (`ref_ms`).
    pub fn at_ref(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(self.probes.windows(2))
            .map(|(ms, p)| at_ref(*ms, p[0], p[1]))
            .collect()
    }
}

/// Probes for operations that overlap each other (concurrent clients of
/// one service). A probe right after an operation could share a CPU with
/// the service working for another client, and so time the program; here
/// a probe is taken only when no operation is in flight, and an operation
/// is scaled by the nearest probes before its start and after its end.
pub struct IdleProbes {
    width: usize,
    epoch: Instant,
    /// Operations in flight, and each probe as (taken at, ms since
    /// `epoch`; probe time, ms). Held while probing, so no operation
    /// starts during a probe.
    state: Mutex<(usize, Vec<(f64, f64)>)>,
}

/// When an operation ran (ms since the probes' epoch) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
    pub ms: f64,
}

impl IdleProbes {
    /// Probes on `width` threads (the CPUs the service may run on); takes
    /// a first probe now, before any operation.
    pub fn new(width: usize) -> IdleProbes {
        let probes = IdleProbes {
            width,
            epoch: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        };
        probes.probe_if_idle();
        probes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (usize, Vec<(f64, f64)>)> {
        self.state
            .lock()
            .expect("no thread panics while holding the probe state")
    }

    fn since_epoch(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Takes a probe unless an operation is in flight.
    pub fn probe_if_idle(&self) {
        let mut state = self.lock();
        if state.0 == 0 {
            let ms = probe_width_ms(self.width);
            let at = self.since_epoch();
            state.1.push((at, ms));
        }
    }

    /// Runs `op` as an operation in flight; probes before it when none is
    /// in flight, and after it when it was the last one in flight.
    pub fn time<R>(&self, op: impl FnOnce() -> R) -> (R, Interval) {
        {
            let mut state = self.lock();
            if state.0 == 0 {
                let ms = probe_width_ms(self.width);
                let at = self.since_epoch();
                state.1.push((at, ms));
            }
            state.0 += 1;
        }
        let start = self.since_epoch();
        let t = Instant::now();
        let out = op();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let end = self.since_epoch();
        self.lock().0 -= 1;
        self.probe_if_idle();
        (out, Interval { start, end, ms })
    }

    /// An operation's latency at reference speed (`ref_ms`).
    pub fn at_ref(&self, op: Interval) -> f64 {
        let state = self.lock();
        let before = state.1.iter().rev().find(|(at, _)| *at <= op.start);
        let after = state.1.iter().find(|(at, _)| *at >= op.end);
        match (before, after) {
            (Some(b), Some(a)) => at_ref(op.ms, b.1, a.1),
            (Some(p), None) | (None, Some(p)) => at_ref(op.ms, p.1, p.1),
            (None, None) => f64::NAN,
        }
    }

    /// Every probe time (ms).
    pub fn probes(&self) -> Vec<f64> {
        self.lock().1.iter().map(|(_, ms)| *ms).collect()
    }
}

/// `ms` scaled to reference speed by the probes timed around it.
pub fn at_ref(ms: f64, before: f64, after: f64) -> f64 {
    ms * REF_MS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_bracketing_probes() {
        assert_eq!(at_ref(100.0, 4.0, 4.0), 100.0);
        assert_eq!(at_ref(100.0, 6.0, 10.0), 50.0);
    }

    #[test]
    fn idle_probes_skip_busy_moments_and_bracket_by_the_nearest() {
        let probes = IdleProbes::new(1);
        let ((), outer) = probes.time(|| {
            // Ends while `outer` is still in flight: no probe after it.
            let ((), inner) = probes.time(|| ());
            assert_eq!(probes.probes().len(), 2);
            assert!(inner.start <= inner.end);
        });
        let taken = probes.probes();
        assert_eq!(taken.len(), 3, "at creation, before `outer`, after it");
        let expect = at_ref(outer.ms, taken[1], taken[2]);
        assert_eq!(probes.at_ref(outer), expect);
    }

    #[test]
    fn each_operation_is_bracketed_by_its_own_probes() {
        for width in [1, 2] {
            let mut b = Bracketed::new(width);
            assert_eq!(b.time(|| 7).0, 7);
            b.before();
            b.after(12.5);
            assert_eq!(b.ms.len(), 2);
            assert_eq!(b.ms[1], 12.5);
            assert_eq!(b.probes.len(), 3);
            assert!(b.probes.iter().all(|p| *p > 0.0));
            let expect: Vec<f64> = (0..2)
                .map(|i| at_ref(b.ms[i], b.probes[i], b.probes[i + 1]))
                .collect();
            assert_eq!(b.at_ref(), expect);
        }
    }
}
