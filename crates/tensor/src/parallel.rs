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
use std::cell::Cell;
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

thread_local! {
    /// Set while this thread runs a chunk of a fan-out (worker 0 included).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count a fan-out starting on this thread may use: the
/// configured one (override → `DTSNN_THREADS` → hardware), or `1` on a
/// thread that is already a fan-out worker. There is **one level of
/// fan-out**: whichever helper is reached first takes the workers and
/// everything nested under it runs serially, so a process never has more
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

/// Worker count to use for a kernel touching `work` scalar operations over
/// `rows` partitionable rows.
fn threads_for(work: usize, rows: usize) -> usize {
    if work < MIN_PARALLEL_WORK {
        1
    } else {
        num_threads().min(rows.max(1))
    }
}

/// The chunk-and-`scope` skeleton of both helpers: `f(i, chunk)` for every
/// chunk, the first on the caller's thread (worker 0) and each other on a
/// scoped thread, every one of them marked a worker meanwhile; results in
/// chunk order.
fn scope_chunks<C: Send, R: Send>(
    chunks: impl Iterator<Item = C>,
    f: impl Fn(usize, C) -> R + Sync,
) -> Vec<R> {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.set(self.0);
        }
    }
    let as_worker = |i: usize, chunk: C| {
        let _restore = Restore(IN_WORKER.replace(true));
        f(i, chunk)
    };
    std::thread::scope(|scope| {
        let mut chunks = chunks.enumerate();
        let first = chunks.next();
        let as_worker = &as_worker;
        let spawned: Vec<_> =
            chunks.map(|(i, chunk)| scope.spawn(move || as_worker(i, chunk))).collect();
        let mut results = Vec::with_capacity(spawned.len() + 1);
        results.extend(first.map(|(i, chunk)| as_worker(i, chunk)));
        results.extend(spawned.into_iter().map(|h| h.join().expect("parallel worker panicked")));
        results
    })
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
    scope_chunks(out.chunks_mut(rows_per_chunk * row_len), |i, chunk| f(i * rows_per_chunk, chunk));
}

/// [`for_each_row_chunk`] with a second buffer split by the same rows: the
/// worker that gets rows `first_row..` of `out` (`row_len` elements each)
/// also gets the same rows of `scratch` (`scratch_len` elements each), a
/// per-row scratch that no other worker touches.
pub(crate) fn for_each_row_chunk_with<S, F>(
    (out, row_len): (&mut [f32], usize),
    (scratch, scratch_len): (&mut [S], usize),
    rows: usize,
    work: usize,
    f: F,
) where
    S: Send,
    F: Fn(usize, &mut [f32], &mut [S]) + Sync,
{
    debug_assert_eq!((out.len(), scratch.len()), (rows * row_len, rows * scratch_len));
    let threads = threads_for(work, rows);
    if threads <= 1 || rows == 0 {
        f(0, out, scratch);
        return;
    }
    let per = rows.div_ceil(threads);
    let chunks = out.chunks_mut(per * row_len).zip(scratch.chunks_mut(per * scratch_len));
    scope_chunks(chunks, |i, (out, scratch)| f(i * per, out, scratch));
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
    if threads <= 1 {
        return f(0, items);
    }
    let per_chunk = items.len().div_ceil(threads);
    scope_chunks(items.chunks(per_chunk), |i, chunk| f(i * per_chunk, chunk))
        .into_iter()
        .flatten()
        .collect()
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
    fn row_chunks_with_scratch_split_both_buffers_by_the_same_rows() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1, 2, 3, 8] {
            with_threads(threads, || {
                let (rows, row_len, scratch_len) = (13, 4, 3);
                let mut buf = vec![0.0f32; rows * row_len];
                let mut scratch = vec![0usize; rows * scratch_len];
                let split = ((&mut buf[..], row_len), (&mut scratch[..], scratch_len));
                for_each_row_chunk_with(split.0, split.1, rows, usize::MAX, |first, chunk, s| {
                    assert_eq!(chunk.len() / row_len, s.len() / scratch_len);
                    let pairs = chunk.chunks_mut(row_len).zip(s.chunks_mut(scratch_len));
                    for (r, (row, s)) in (first..).zip(pairs) {
                        row.fill(r as f32);
                        s.fill(r);
                    }
                });
                for r in 0..rows {
                    assert!(buf[r * row_len..][..row_len].iter().all(|&v| v == r as f32));
                    assert!(scratch[r * scratch_len..][..scratch_len].iter().all(|&s| s == r));
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
    fn nested_fan_outs_share_one_level_of_workers() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..8).collect();
        let run = |threads: usize| {
            // every row-chunk worker must reach the innermost closure once,
            // with the whole slice, and all of them meet at the barrier: the
            // high-water mark is then exactly the worker count
            let barrier = std::sync::Barrier::new(threads);
            let [live, peak, calls] = [0, 0, 0].map(AtomicUsize::new);
            let mut buf = vec![0.0f32; 8];
            with_threads(threads, || {
                for_each_row_chunk(&mut buf, 1, 8, usize::MAX, |first_row, chunk| {
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
                    for (r, v) in chunk.iter_mut().enumerate() {
                        *v = (tripled.iter().sum::<usize>() + first_row + r) as f32;
                    }
                });
            });
            assert_eq!(calls.into_inner(), threads, "a nested fan-out split its items");
            assert_eq!(peak.into_inner(), threads, "closures live at once");
            assert!(!IN_WORKER.get(), "worker 0's mark must not outlive the fan-out");
            buf
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn small_work_stays_serial() {
        // threads_for gates on the work estimate, not the thread knob
        assert_eq!(threads_for(10, 100), 1);
        assert!(threads_for(usize::MAX, 100) >= 1);
    }
}
