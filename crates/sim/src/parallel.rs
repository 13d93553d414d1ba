//! Order-preserving parallel fan-out for sweep grids.
//!
//! Every simulation run is a self-contained, seeded [`crate::Machine`]:
//! runs share no mutable state, so sweeps can execute their points on
//! worker threads and still produce **bit-identical results in the same
//! order** as a serial loop — each output slot is
//! written by exactly the task that owns its index, regardless of how the
//! OS schedules the workers (`tests/determinism_and_stats.rs` asserts
//! this).
//!
//! Implemented on `std::thread::scope` (the container bakes in no rayon);
//! the queue is a single atomic cursor over the input vector, which is
//! ample for experiment-level granularity (each task is a whole
//! simulation run, milliseconds to minutes).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set on the worker threads [`par_map_sink_threads`] spawns.
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a worker of a parallel map. Work nested
/// inside a task (a machine's frontend producers) runs inline there
/// instead of oversubscribing the workers' threads.
#[must_use]
pub fn in_worker() -> bool {
    WORKER.with(Cell::get)
}

/// Process-wide `--jobs` override (0 = unset). Takes precedence over
/// `NDP_THREADS`; binaries set it once at startup.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or, with 0, clears) the worker-count override installed by a
/// `--jobs` CLI flag. Wins over `NDP_THREADS` and the machine default.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The `--jobs` override, if one was set.
#[must_use]
pub fn jobs_override() -> Option<usize> {
    match JOBS_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Parses an `NDP_THREADS` value: a positive integer (whitespace
/// tolerated).
///
/// # Errors
///
/// Returns a descriptive message for anything else — silently substituting
/// a default for a typo (`NDP_THREADS=abc`) used to hide misconfigured
/// benchmarking runs.
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("NDP_THREADS must be a positive integer, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "NDP_THREADS must be a positive integer, got {raw:?}"
        )),
    }
}

/// Reads and validates the `NDP_THREADS` environment variable:
/// `Ok(None)` when unset or empty (use the machine default), `Ok(Some)`
/// for a valid count.
///
/// # Errors
///
/// Returns the [`parse_thread_count`] message for a malformed value.
/// Binaries call this up front to exit cleanly instead of panicking
/// mid-run.
pub fn env_thread_count() -> Result<Option<usize>, String> {
    match std::env::var("NDP_THREADS") {
        Ok(v) if !v.trim().is_empty() => parse_thread_count(&v).map(Some),
        _ => Ok(None),
    }
}

/// Worker threads used by [`par_map`]: the [`set_jobs`] override if one
/// was installed, else `NDP_THREADS` if set (and non-empty), else the
/// machine's available parallelism.
///
/// # Panics
///
/// Panics with the [`parse_thread_count`] message when `NDP_THREADS` is
/// set to something that isn't a positive integer. Binaries validate via
/// [`env_thread_count`] up front for a clean exit instead.
#[must_use]
pub fn default_threads() -> usize {
    if let Some(jobs) = jobs_override() {
        return jobs;
    }
    match env_thread_count() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, usize::from),
        Err(e) => panic!("{e}"),
    }
}

/// Maps `f` over `items` on [`default_threads`] workers, returning the
/// results in input order.
pub fn par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    par_map_threads(default_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (`1` runs inline). The
/// result is identical for every `threads` value — the determinism tests
/// compare multi-threaded output against `threads = 1`.
pub fn par_map_threads<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    par_map_sink_threads(threads, items, f, |_, _| ())
}

/// [`par_map_sink_threads`] on [`default_threads`] workers.
pub fn par_map_sink<I, T, F, S>(items: Vec<I>, f: F, sink: S) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
    S: FnMut(usize, &T) + Send,
{
    par_map_sink_threads(default_threads(), items, f, sink)
}

/// Work-stealing map with an **in-order result sink**: `sink(i, &result)`
/// is invoked for `i = 0, 1, 2, …` as soon as every result up to and
/// including `i` has completed — regardless of completion order — so
/// incremental consumers (the JSONL sweep writer) observe a growing
/// contiguous prefix. Returns all results in input order, bit-identical
/// to a serial loop at any thread count.
///
/// The queue is a shared atomic cursor over the input (workers steal the
/// next index when free); each output slot is written by exactly the
/// task that owns it, and the flush cursor only ever advances over
/// completed slots while holding the sink lock.
pub fn par_map_sink_threads<I, T, F, S>(threads: usize, items: Vec<I>, f: F, mut sink: S) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
    S: FnMut(usize, &T) + Send,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let result = f(item);
                sink(i, &result);
                result
            })
            .collect();
    }

    let tasks: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Flush cursor + sink, advanced under one lock: whichever worker
    // finishes a task drains the contiguous completed prefix.
    let flush: Mutex<(usize, &mut S)> = Mutex::new((0, &mut sink));
    let f = &f;
    let tasks = &tasks;
    let slots = &slots;
    let cursor = &cursor;
    let flush = &flush;

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(move || {
                WORKER.with(|w| w.set(true));
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let item = tasks[idx]
                        .lock()
                        .expect("task mutex poisoned")
                        .take()
                        .expect("each task index is claimed once");
                    let result = f(item);
                    *slots[idx].lock().expect("slot mutex poisoned") = Some(result);
                    // Drain the completed prefix. No worker ever holds a
                    // slot lock while waiting for the flush lock (stores
                    // release theirs first), so flush -> slot lock order
                    // cannot deadlock.
                    let mut guard = flush.lock().expect("flush mutex poisoned");
                    let (next, sink) = &mut *guard;
                    while *next < n {
                        let slot = slots[*next].lock().expect("slot mutex poisoned");
                        match slot.as_ref() {
                            Some(value) => {
                                sink(*next, value);
                                drop(slot);
                                *next += 1;
                            }
                            None => break,
                        }
                    }
                }
            });
        }
    });

    slots
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("slot mutex poisoned")
                .take()
                .expect("every slot filled by its owning task")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(par_map_threads(8, items.clone(), |x| x * x), expect);
        assert_eq!(par_map_threads(1, items.clone(), |x| x * x), expect);
        assert_eq!(par_map(items, |x| x * x), expect);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(
            par_map_threads(4, Vec::<u64>::new(), |x| x),
            Vec::<u64>::new()
        );
        assert_eq!(par_map_threads(4, vec![9u64], |x| x + 1), vec![10]);
    }

    #[test]
    fn threads_spawn_for_real_work() {
        // More tasks than threads; each records which thread ran it.
        let ids = par_map_threads(4, (0..64).collect::<Vec<u64>>(), |_| {
            format!("{:?}", std::thread::current().id())
        });
        assert_eq!(ids.len(), 64);
    }

    #[test]
    fn default_thread_count_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// Deliberately uneven per-item cost: item `i` spins a
    /// pseudo-random amount so fast tasks constantly overtake slow ones
    /// and the completion order differs from the input order.
    fn uneven(i: u64) -> u64 {
        let spin = (i * 37) % 11;
        let mut acc = i;
        for _ in 0..(spin * spin * 500) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        i * i
    }

    #[test]
    fn uneven_cost_batches_are_bit_identical_across_thread_counts() {
        let items: Vec<u64> = (0..64).collect();
        let serial = par_map_threads(1, items.clone(), uneven);
        for threads in [2, 8] {
            assert_eq!(
                par_map_threads(threads, items.clone(), uneven),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn sink_sees_every_index_in_order_under_any_schedule() {
        for threads in [1usize, 2, 8] {
            let mut seen = Vec::new();
            let results =
                par_map_sink_threads(threads, (0..64).collect::<Vec<u64>>(), uneven, |i, v| {
                    seen.push((i, *v))
                });
            let expect: Vec<(usize, u64)> = (0..64u64).map(|i| (i as usize, i * i)).collect();
            assert_eq!(seen, expect, "threads = {threads}");
            assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn sink_handles_empty_and_single() {
        let mut seen = Vec::new();
        let out = par_map_sink_threads(4, Vec::<u64>::new(), |x| x, |i, v| seen.push((i, *v)));
        assert!(out.is_empty() && seen.is_empty());
        let out = par_map_sink_threads(4, vec![7u64], |x| x + 1, |i, v| seen.push((i, *v)));
        assert_eq!(out, vec![8]);
        assert_eq!(seen, vec![(0, 8)]);
    }

    #[test]
    fn jobs_override_wins_until_cleared() {
        // Serialized via the env-free override only; restore state after.
        assert_eq!(jobs_override(), None);
        set_jobs(3);
        assert_eq!(jobs_override(), Some(3));
        assert_eq!(default_threads(), 3);
        set_jobs(0);
        assert_eq!(jobs_override(), None);
    }

    #[test]
    fn thread_count_parsing_is_strict() {
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 8 "), Ok(8));
        assert!(parse_thread_count("abc").unwrap_err().contains("abc"));
        assert!(parse_thread_count("0").unwrap_err().contains('0'));
        assert!(parse_thread_count("-2").is_err());
        assert!(parse_thread_count("4.5").is_err());
    }
}
