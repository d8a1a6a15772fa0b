//! Shared parallel-execution layer for the RTL-Timer workspace.
//!
//! Every CPU-parallel site in the workspace (suite preparation,
//! cross-validation fits and predictions, per-design optimization flows)
//! goes through the indexed work-queue executor here instead of
//! hand-rolling `std::thread::scope` + `AtomicUsize` + result slots.
//! Centralizing the pattern gives one place to later add sharding,
//! batching, or an async backend without touching call sites.
//!
//! * [`par_map`] — order-preserving parallel map,
//! * [`try_par_map`] — fallible variant that surfaces the error of the
//!   **lowest-indexed** failing item (deterministic regardless of thread
//!   interleaving),
//! * [`par_map_indexed`] / [`try_par_map_indexed`] — the same with the item
//!   index passed to the closure (for per-index seeds and progress labels),
//! * [`par_map_with`] / [`try_par_map_with`] — the same with a per-worker
//!   state value threaded through every call a worker makes (for scratch
//!   buffers reused across items without cross-thread sharing).
//!
//! Work distribution is a single shared atomic cursor: threads pull the
//! next unclaimed index until the queue drains, so heterogeneous item costs
//! (one huge design among twenty small ones) cannot idle a whole static
//! chunk. Worker panics are propagated to the caller after all threads have
//! been joined.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `threads` worker threads, preserving
/// input order in the returned vector.
///
/// `threads` is clamped to `[1, items.len()]`; with one item or one thread
/// the work runs on the calling thread without spawning.
///
/// # Panics
///
/// Re-raises the first worker panic (after joining all workers).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(threads, items, |_, item| f(item))
}

/// [`par_map`] with the item index passed to the closure.
///
/// # Panics
///
/// Re-raises the first worker panic (after joining all workers).
pub fn par_map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let results = try_par_map_indexed(threads, items, |i, item| Ok::<R, Never>(f(i, item)));
    match results {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Error type with no values: a `Result<_, Never>` is statically `Ok`.
enum Never {}

/// [`par_map`] with a per-worker state value: `mk_state` runs once on each
/// worker thread, and the resulting `&mut S` is passed to every `f` call
/// that worker makes. Use it for scratch buffers that are expensive to
/// allocate per item but must not be shared across threads.
///
/// # Panics
///
/// Re-raises the first worker panic (after joining all workers).
pub fn par_map_with<T, R, S, M, F>(threads: usize, items: &[T], mk_state: M, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let results = try_par_map_with(threads, items, mk_state, |s, i, item| {
        Ok::<R, Never>(f(s, i, item))
    });
    match results {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// [`try_par_map_indexed`] with a per-worker state value (see
/// [`par_map_with`]). Error selection is identical: the lowest-indexed
/// failure wins deterministically.
///
/// # Errors
///
/// Returns the lowest-indexed `Err` produced by `f`.
///
/// # Panics
///
/// Re-raises the first worker panic (after joining all workers).
pub fn try_par_map_with<T, R, E, S, M, F>(
    threads: usize,
    items: &[T],
    mk_state: M,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = threads.clamp(1, n);

    // Fast path: one worker, one state, no coordination.
    if workers == 1 {
        let mut state = mk_state();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    // `failed` is the hot-path flag; the Mutex is only touched when an error
    // is actually recorded, so the infallible par_map path never contends.
    let failed = AtomicBool::new(false);
    let error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = mk_state();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // Cheap early-out once any item has failed; results
                        // of already-claimed items are simply discarded.
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        match f(&mut state, i, &items[i]) {
                            Ok(r) => *slots[i].lock().expect("slot lock") = Some(r),
                            Err(e) => {
                                let mut guard = error.lock().expect("error lock");
                                if guard.as_ref().is_none_or(|(j, _)| i < *j) {
                                    *guard = Some((i, e));
                                }
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    if let Some((_, e)) = error.into_inner().expect("error lock") {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("all items completed")
        })
        .collect())
}

/// Fallible parallel map: returns the mapped vector, or the error produced
/// by the **lowest-indexed** failing item.
///
/// The choice of surfaced error is deterministic: even if a higher-indexed
/// item fails first in wall-clock time, the error reported is the one with
/// the smallest index. After any failure, workers stop claiming new items
/// (items already in flight still run to completion).
///
/// # Errors
///
/// Returns the lowest-indexed `Err` produced by `f`.
///
/// # Panics
///
/// Re-raises the first worker panic (after joining all workers).
pub fn try_par_map<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    try_par_map_indexed(threads, items, |_, item| f(item))
}

/// [`try_par_map`] with the item index passed to the closure.
///
/// # Errors
///
/// Returns the lowest-indexed `Err` produced by `f`.
///
/// # Panics
///
/// Re-raises the first worker panic (after joining all workers).
pub fn try_par_map_indexed<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_par_map_with(threads, items, || (), |(), i, item| f(i, item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(8, &items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(4, &none, |&x| x).is_empty());
        assert_eq!(par_map(4, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn uses_at_least_two_threads_when_asked() {
        // With as many items as workers and a barrier inside the closure,
        // the map can only finish if at least `k` distinct threads run
        // concurrently.
        let k = 2;
        let barrier = Barrier::new(k);
        let items: Vec<usize> = (0..k).collect();
        let ids = par_map(k, &items, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), k);
    }

    #[test]
    fn indexed_variant_sees_correct_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = par_map_indexed(3, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn par_map_with_reuses_worker_state() {
        // Each worker's scratch starts empty and grows monotonically; the
        // total number of mk_state calls is bounded by the worker count.
        let states = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_with(
            4,
            &items,
            || {
                states.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, _, &x| {
                scratch.push(x);
                (x * 2, scratch.len())
            },
        );
        assert_eq!(out.iter().map(|(v, _)| *v).collect::<Vec<_>>(), {
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        });
        // Some worker must have processed more than one item with the same
        // scratch (64 items, ≤ 4 states).
        assert!(out.iter().any(|(_, len)| *len > 1));
        assert!(states.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn try_par_map_with_single_worker_uses_one_state() {
        let states = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let out: Result<Vec<usize>, Never> = try_par_map_with(
            1,
            &items,
            || {
                states.fetch_add(1, Ordering::Relaxed);
            },
            |(), i, &x| Ok(i + x),
        );
        assert_eq!(out.unwrap_or_default().len(), 10);
        assert_eq!(states.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn try_par_map_ok_round_trip() {
        let items: Vec<i64> = (0..100).collect();
        let out: Result<Vec<i64>, String> = try_par_map(4, &items, |&x| Ok(x * x));
        assert_eq!(out.unwrap()[99], 99 * 99);
    }

    #[test]
    fn try_par_map_surfaces_first_error_deterministically() {
        // Items 30 and 70 fail; 30 must win regardless of scheduling. Slow
        // down item 30 to make late-arriving low-index errors the common
        // interleaving.
        let items: Vec<usize> = (0..100).collect();
        for _ in 0..20 {
            let err = try_par_map(8, &items, |&x| {
                if x == 30 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    Err(format!("fail {x}"))
                } else if x == 70 {
                    Err(format!("fail {x}"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err, "fail 30");
        }
    }

    #[test]
    fn try_par_map_single_thread_short_circuits() {
        let items: Vec<usize> = (0..1000).collect();
        let visited = AtomicUsize::new(0);
        let err = try_par_map(1, &items, |&x| {
            visited.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err("boom")
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(visited.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(4, &items, |&x| {
                assert!(x != 7, "panicking on 7");
                x
            })
        });
        assert!(result.is_err());
    }
}
