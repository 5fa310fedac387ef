//! Deterministic scoped-thread fan-out of independent work: the samples of
//! the evaluation harnesses above this crate and the proposals of the IMC
//! placement search. The kernels in this crate do not fan out: a
//! convolution, matmul or linear layer runs on its caller's thread.
//!
//! # Determinism contract
//!
//! [`map_chunks`] partitions the items into **contiguous, disjoint** chunks
//! and concatenates the results in **chunk-index order**. Each item's output
//! is computed by the same serial code whatever chunk it lands in, so results
//! are **bitwise identical** for any worker count — `DTSNN_THREADS=1` is the
//! serial path, and `DTSNN_THREADS=N` reproduces it.
//!
//! # Worker-count knob
//!
//! The worker count comes from, in priority order:
//!
//! 1. a process-wide override installed with [`set_threads`] (used by tests
//!    and benches to compare thread counts inside one process),
//! 2. the `DTSNN_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! Zero and absurd values are clamped into `1..=MAX_THREADS`; unparsable
//! values fall back to the hardware default.

use crate::env_knob::EnvKnob;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard upper bound on the worker count; requests beyond it are clamped.
pub const MAX_THREADS: usize = 256;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
pub(crate) static ENV_THREADS: EnvKnob<usize> = EnvKnob::new(
    "DTSNN_THREADS",
    "a worker count; using the hardware default",
    |raw| raw.trim().parse().ok().map(clamp_threads),
);

/// Clamps a requested worker count into the valid range (`0` → `1`).
fn clamp_threads(n: usize) -> usize {
    n.clamp(1, MAX_THREADS)
}

thread_local! {
    /// Set while this thread runs a chunk of a fan-out (worker 0 included).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count a fan-out starting on this thread may use: the
/// configured one (override → `DTSNN_THREADS` → hardware), or `1` on a
/// thread that is already a fan-out worker. There is **one level of
/// fan-out**: the outermost [`map_chunks`] takes the workers and every
/// fan-out nested under it runs serially, so a process never has more
/// than the configured count of busy threads. (Serial and parallel results
/// are bitwise equal, so the rule cannot change an output.)
pub fn num_threads() -> usize {
    if IN_WORKER.get() {
        return 1;
    }
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    ENV_THREADS.get_or(hardware_threads)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(MAX_THREADS)
}

/// Installs a process-wide worker-count override (clamped); `0` restores the
/// environment/hardware default. Returns the previous override (0 = none).
///
/// Because every parallel result is bitwise thread-count-invariant, flipping
/// this concurrently from another thread cannot change any numeric output —
/// the override only exists so tests and benches can pin the worker count.
pub fn set_threads(n: usize) -> usize {
    let value = if n == 0 { 0 } else { clamp_threads(n) };
    OVERRIDE.swap(value, Ordering::Relaxed)
}

/// Runs `f` with the worker count pinned to `n`, restoring the previous
/// override afterwards.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = set_threads(n);
    let out = f();
    set_threads(prev);
    out
}

/// Maps `f` over contiguous chunks of `items` (one chunk per worker) and
/// concatenates the per-chunk outputs in chunk order, preserving item order.
/// The first chunk runs on the caller's thread (worker 0), each other on a
/// scoped thread, every one of them marked a worker meanwhile.
///
/// `f(first_index, chunk)` must return one output per item. Workers that need
/// per-worker state (e.g. a cloned network) build it once per chunk.
pub fn map_chunks<T, O, F>(items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &[T]) -> Vec<O> + Sync,
{
    let threads = num_threads().min(items.len().max(1));
    if threads <= 1 {
        return f(0, items);
    }
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.set(self.0);
        }
    }
    let per_chunk = items.len().div_ceil(threads);
    let as_worker = |i: usize, chunk: &[T]| {
        let _restore = Restore(IN_WORKER.replace(true));
        f(i * per_chunk, chunk)
    };
    std::thread::scope(|scope| {
        let mut chunks = items.chunks(per_chunk).enumerate();
        let first = chunks.next();
        let as_worker = &as_worker;
        let spawned: Vec<_> =
            chunks.map(|(i, chunk)| scope.spawn(move || as_worker(i, chunk))).collect();
        let mut results = Vec::with_capacity(items.len());
        results.extend(first.into_iter().flat_map(|(i, chunk)| as_worker(i, chunk)));
        for h in spawned {
            results.extend(h.join().expect("parallel worker panicked"));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Tests that mutate the process-wide override serialize on this lock so
    // they cannot observe each other's override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn zero_and_absurd_worker_counts_are_clamped() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        assert_eq!(clamp_threads(0), 1);
        assert_eq!(clamp_threads(usize::MAX), MAX_THREADS);
        with_threads(1_000_000, || {
            assert_eq!(num_threads(), MAX_THREADS);
        });
        // set_threads(0) removes the override rather than forcing 0 workers
        let prev = set_threads(0);
        assert!(num_threads() >= 1);
        set_threads(prev);
    }

    #[test]
    fn with_threads_restores_previous_value() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let before = set_threads(3);
        with_threads(7, || assert_eq!(num_threads(), 7));
        assert_eq!(num_threads(), 3);
        set_threads(before);
    }

    #[test]
    fn map_chunks_preserves_item_order() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..29).collect();
        for threads in [1, 2, 4, 16] {
            let mapped = with_threads(threads, || {
                map_chunks(&items, |first, chunk| {
                    chunk.iter().enumerate().map(|(i, &v)| (first + i, v * 10)).collect()
                })
            });
            assert_eq!(mapped.len(), items.len());
            for (i, (idx, v)) in mapped.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*v, i * 10);
            }
        }
    }

    #[test]
    fn nested_fan_outs_share_one_level_of_workers() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..8).collect();
        let run = |threads: usize| {
            // every outer worker must reach the innermost closure once, with
            // the whole slice, and all of them meet at the barrier: the
            // high-water mark is then exactly the worker count
            let barrier = std::sync::Barrier::new(threads);
            let [live, peak, calls] = [0, 0, 0].map(AtomicUsize::new);
            let out = with_threads(threads, || {
                map_chunks(&items, |first, chunk| {
                    let tripled = map_chunks(&items, |_, outer| {
                        map_chunks(outer, |_, inner| {
                            calls.fetch_add(1, Ordering::SeqCst);
                            let now_live = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now_live, Ordering::SeqCst);
                            barrier.wait();
                            live.fetch_sub(1, Ordering::SeqCst);
                            inner.iter().map(|&v| v * 3).collect()
                        })
                    });
                    let sum = tripled.iter().sum::<usize>();
                    (first..).take(chunk.len()).map(|i| sum + i).collect()
                })
            });
            assert_eq!(calls.into_inner(), threads, "a nested fan-out split its items");
            assert_eq!(peak.into_inner(), threads, "closures live at once");
            assert!(!IN_WORKER.get(), "worker 0's mark must not outlive the fan-out");
            out
        };
        assert_eq!(run(4), run(1));
    }
}
