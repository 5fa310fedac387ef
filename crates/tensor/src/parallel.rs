//! Deterministic scoped-thread parallelism for the hot kernels and the
//! data-parallel evaluation harnesses above this crate.
//!
//! # Determinism contract
//!
//! Every helper here partitions work into **contiguous, disjoint** chunks and
//! merges results in **chunk-index order**. Combined with kernels that keep
//! the per-element float accumulation order unchanged (each worker owns a
//! disjoint slice of output rows), results are **bitwise identical** for any
//! worker count — `DTSNN_THREADS=1` reproduces today's serial path exactly,
//! and `DTSNN_THREADS=N` reproduces it too.
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
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard upper bound on the worker count; requests beyond it are clamped.
pub const MAX_THREADS: usize = 256;

/// Work below this many scalar operations runs serially: scoped-thread spawn
/// costs tens of microseconds, so tiny kernels would lose more than they gain.
/// The threshold depends only on the problem size — never on the thread
/// count — so it cannot break thread-count invariance.
const MIN_PARALLEL_WORK: usize = 1 << 15;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
pub(crate) static ENV_THREADS: EnvKnob<usize> = EnvKnob::new(
    "DTSNN_THREADS",
    "a worker count; using the hardware default",
    |raw| raw.trim().parse().ok().map(clamp_threads),
);

/// Clamps a requested worker count into the valid range (`0` → `1`).
pub fn clamp_threads(n: usize) -> usize {
    n.clamp(1, MAX_THREADS)
}

/// The configured worker count (override → `DTSNN_THREADS` → hardware).
pub fn num_threads() -> usize {
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

/// Worker count to use for a kernel touching `work` scalar operations over
/// `rows` partitionable rows.
fn threads_for(work: usize, rows: usize) -> usize {
    if work < MIN_PARALLEL_WORK {
        1
    } else {
        num_threads().min(rows.max(1))
    }
}

/// Splits `out` (a `rows × row_len` row-major buffer) into contiguous
/// row-chunks, one per worker, and calls `f(first_row, chunk)` on each from a
/// scoped thread. `work` is the kernel's total scalar-op estimate used to
/// gate parallelism.
///
/// Chunks are disjoint `&mut` slices, so each output element is written by
/// exactly one worker and per-element accumulation order is whatever `f`
/// does serially for that row — bitwise identical to a single `f(0, out)`.
pub fn for_each_row_chunk<F>(out: &mut [f32], row_len: usize, rows: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_len.max(1));
    let threads = threads_for(work, rows);
    if threads <= 1 || rows == 0 {
        f(0, out);
        return;
    }
    let rows_per_chunk = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut chunks = out.chunks_mut(rows_per_chunk * row_len);
        let first = chunks.next().expect("rows > 0");
        for (i, chunk) in chunks.enumerate() {
            let f = &f;
            scope.spawn(move || f((i + 1) * rows_per_chunk, chunk));
        }
        // the caller's thread is worker 0
        f(0, first);
    });
}

/// Maps `f` over contiguous chunks of `items` (one chunk per worker) and
/// concatenates the per-chunk outputs in chunk order, preserving item order.
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
    if threads <= 1 || items.len() <= 1 {
        return f(0, items);
    }
    let per_chunk = items.len().div_ceil(threads);
    let mut results: Vec<Vec<O>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut chunks = items.chunks(per_chunk);
        let first = chunks.next().expect("items nonempty");
        for (i, chunk) in chunks.enumerate() {
            let f = &f;
            handles.push(scope.spawn(move || f((i + 1) * per_chunk, chunk)));
        }
        let head = f(0, first);
        results.push(head);
        for h in handles {
            results.push(h.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for r in results {
        out.extend(r);
    }
    out
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
    fn row_chunks_cover_every_row_exactly_once() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1, 2, 3, 8] {
            with_threads(threads, || {
                let rows = 13;
                let row_len = 4;
                let mut buf = vec![0.0f32; rows * row_len];
                for_each_row_chunk(&mut buf, row_len, rows, usize::MAX, |first_row, chunk| {
                    for (r, row) in chunk.chunks_mut(row_len).enumerate() {
                        for v in row.iter_mut() {
                            *v += (first_row + r) as f32;
                        }
                    }
                });
                for r in 0..rows {
                    for c in 0..row_len {
                        assert_eq!(buf[r * row_len + c], r as f32, "row {r} col {c}");
                    }
                }
            });
        }
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
    fn small_work_stays_serial() {
        // threads_for gates on the work estimate, not the thread knob
        assert_eq!(threads_for(10, 100), 1);
        assert!(threads_for(usize::MAX, 100) >= 1);
    }
}
