//! Reusable scratch arena for the zero-allocation timestep loop.
//!
//! An SNN forward pass allocates the same handful of buffer shapes — conv
//! output tiles, layer outputs, membrane temporaries — once per layer per
//! timestep, `T` times per sample; a training step adds the backward caches
//! and the gradients passed between layers. [`Workspace`] parks those
//! buffers on a freelist instead: [`Workspace::take`] hands back a
//! zero-filled buffer (reusing a parked one when capacity allows) and
//! [`Workspace::recycle`] returns it. After one warm-up timestep (or one
//! training step) every size class is populated and the steady-state loop
//! performs **no heap allocations**, in either mode — [`Workspace::stats`]
//! counts hits and misses so benches and tests can assert exactly that.
//!
//! # Lifetime rules
//!
//! - A workspace belongs to **one** network/evaluation loop at a time; the
//!   clone-pool evaluation harnesses give every worker its own (a cloned
//!   `Snn` starts with a fresh, empty workspace), so no locking is needed
//!   or performed.
//! - Buffers obtained from [`Workspace::take`] are always fully
//!   zero-filled; kernels may rely on that the same way they rely on
//!   [`crate::Tensor::zeros`]. A kernel that writes every element of its
//!   output asks for [`Workspace::take_overwrite`] instead and skips the
//!   fill (NaN-poisoned in debug builds, so a skipped element shows).
//! - Recycling is optional — a buffer that escapes (e.g. a returned layer
//!   output that the caller keeps) is simply a future miss. The freelist is
//!   capped so unrecycled traffic cannot grow it without bound.
//! - Contents of recycled buffers are dead immediately; the arena clears
//!   them on the next `take`.
//! - Every buffer is an [`AlignedVec`]: arena data starts on a 64-byte
//!   boundary and stays aligned across recycling, so the SIMD kernels see
//!   cache-line-aligned rows for the life of the loop.

use crate::{AlignedVec, AlignedWords, Tensor};

/// Freelist cap: more parked buffers than this and the smallest is dropped.
/// An Eval pass keeps a few dozen live scratch shapes; a training step parks
/// its whole BPTT window of backward caches when backward ends, about 20
/// per timestep in resnet_small, so a 10-step window (the event preset's)
/// needs ~200 (`snn`'s `train_arena` test misses at 128). Beyond that the
/// cap only guards against unbounded growth when callers recycle more than
/// they take.
const MAX_FREE: usize = 256;

/// Allocation counters for the zero-allocation claim.
///
/// `takes` counts every [`Workspace::take`] and
/// [`Workspace::take_overwrite`] (and every take of the convolution's
/// nonzero-word scratch); `misses` counts the subset that had to allocate
/// (no parked buffer with sufficient capacity). A warmed-up steady state
/// shows `misses == 0` while `takes` keeps rising.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Total buffer requests served.
    pub takes: u64,
    /// Requests that fell back to a fresh heap allocation.
    pub misses: u64,
}

/// Scratch-buffer arena threaded through the timestep loop: the forward in
/// both modes, and the training step's backward.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<AlignedVec>,
    words: AlignedWords,
    takes: u64,
    misses: u64,
}

impl Workspace {
    /// An empty arena; buffers are adopted lazily as the first pass runs.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Counts a request and serves it from the best-fitting parked buffer
    /// (smallest sufficient capacity) or a fresh one: `len` elements of
    /// unspecified content.
    fn take_stale(&mut self, len: usize) -> AlignedVec {
        self.takes += 1;
        let mut best: Option<(usize, usize)> = None; // (slot, capacity)
        for (slot, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((slot, cap));
            }
        }
        let mut buf = match best {
            Some((slot, _)) => self.free.swap_remove(slot),
            None => {
                self.misses += 1;
                AlignedVec::with_capacity(len)
            }
        };
        buf.set_len(len);
        buf
    }

    /// Hands out a zero-filled buffer of exactly `len` elements, reusing
    /// the best-fitting parked buffer when one exists.
    pub fn take(&mut self, len: usize) -> AlignedVec {
        let mut buf = self.take_stale(len);
        buf.fill(0.0);
        buf
    }

    /// [`Workspace::take`] without the zero fill, for a kernel that
    /// **overwrites every element**: the contents are whatever the parked
    /// buffer last held. Debug builds (the workspace's `test` profile
    /// included) hand out NaN instead, so an element the kernel skips fails
    /// the bitwise suites rather than leaking an older layer's value.
    pub fn take_overwrite(&mut self, len: usize) -> AlignedVec {
        let mut buf = self.take_stale(len);
        if cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
        buf
    }

    /// Parks a buffer for reuse. Beyond the freelist cap the smallest
    /// parked buffer is dropped, keeping the most useful capacities.
    pub fn recycle(&mut self, buf: AlignedVec) {
        if buf.capacity() == 0 {
            return;
        }
        self.free.push(buf);
        if self.free.len() > MAX_FREE {
            let smallest = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("freelist nonempty");
            self.free.swap_remove(smallest);
        }
    }

    /// Parks a tensor's backing buffer for reuse.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_aligned());
    }

    /// Borrows the arena's `u64` scratch at `len` words of unspecified
    /// content (the convolution's nonzero pass writes every word it reads);
    /// return it with [`Workspace::recycle_words`]. Counted like
    /// [`Workspace::take`]: a miss when it has to grow.
    pub(crate) fn take_words(&mut self, len: usize) -> AlignedWords {
        self.takes += 1;
        let mut words = std::mem::take(&mut self.words);
        if words.capacity() < len {
            self.misses += 1;
        }
        words.set_len(len);
        words
    }

    /// Returns the scratch taken with [`Workspace::take_words`].
    pub(crate) fn recycle_words(&mut self, words: AlignedWords) {
        self.words = words;
    }

    /// Current allocation counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats { takes: self.takes, misses: self.misses }
    }

    /// Zeroes the allocation counters (parked buffers stay parked) — call
    /// after warm-up, before the span whose allocations you want to count.
    pub fn reset_stats(&mut self) {
        self.takes = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_even_after_recycling_garbage() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        buf.iter_mut().for_each(|v| *v = 7.0);
        ws.recycle(buf);
        let again = ws.take(8);
        assert_eq!(&again[..], &[0.0; 8]);
        ws.recycle(again);
        // shrinking reuse also re-zeroes
        let small = ws.take(3);
        assert_eq!(&small[..], &[0.0; 3]);
    }

    #[test]
    fn take_overwrite_skips_the_fill_and_is_poisoned_in_debug_builds() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(40);
        buf.fill(7.0);
        ws.recycle(buf);
        let stale = ws.take_overwrite(24);
        assert_eq!(stale.len(), 24);
        // growing within the parked capacity must not expose a short slice
        ws.recycle(stale);
        let grown = ws.take_overwrite(40);
        assert_eq!(grown.len(), 40);
        for buf in [&grown, &ws.take_overwrite(9)] {
            if cfg!(debug_assertions) {
                assert!(buf.iter().all(|v| v.is_nan()), "debug builds poison with NaN");
            } else {
                assert!(buf.iter().all(|&v| v == 7.0 || v == 0.0), "stale or fresh, never junk");
            }
        }
    }

    #[test]
    fn take_overwrite_accounts_and_reuses_exactly_like_take() {
        // the same request sequence through either take: same buffers chosen
        // (best fit), same takes / misses, same freelist afterwards
        let run = |overwrite: bool| {
            let mut ws = Workspace::new();
            for cap in [160, 16, 64, 640] {
                ws.recycle(AlignedVec::with_capacity(cap));
            }
            let mut caps = Vec::new();
            for len in [60, 8, 600, 100, 700, 0] {
                let buf = if overwrite { ws.take_overwrite(len) } else { ws.take(len) };
                assert_eq!(buf.len(), len);
                caps.push(buf.capacity());
                if len == 100 {
                    ws.recycle(buf);
                }
            }
            let mut parked: Vec<usize> = ws.free.iter().map(AlignedVec::capacity).collect();
            parked.sort_unstable();
            (caps, ws.stats(), parked)
        };
        let (caps, stats, parked) = run(false);
        assert_eq!(caps[..4], [64, 16, 640, 160], "smallest sufficient capacity wins");
        assert_eq!(stats, WorkspaceStats { takes: 6, misses: 1 }, "only 700 has to allocate");
        assert_eq!(run(true), (caps, stats, parked));
    }

    #[test]
    fn steady_state_has_no_misses() {
        let mut ws = Workspace::new();
        // warm-up: one take/recycle per size class
        for len in [16, 64, 256] {
            let b = ws.take(len);
            ws.recycle(b);
        }
        ws.reset_stats();
        for _ in 0..10 {
            let a = ws.take(16);
            let b = ws.take(64);
            let c = ws.take(256);
            ws.recycle(a);
            ws.recycle(b);
            ws.recycle(c);
        }
        let stats = ws.stats();
        assert_eq!(stats.takes, 30);
        assert_eq!(stats.misses, 0, "warmed workspace must not allocate");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        ws.recycle(AlignedVec::with_capacity(100));
        ws.recycle(AlignedVec::with_capacity(10));
        let b = ws.take(8);
        assert!(b.capacity() < 100, "should reuse the 10-cap buffer");
        ws.reset_stats();
        let big = ws.take(90); // only the 100-cap buffer fits
        assert_eq!(ws.stats().misses, 0);
        assert!(big.capacity() >= 90);
    }

    #[test]
    fn freelist_is_capped() {
        let mut ws = Workspace::new();
        for i in 0..(MAX_FREE + 10) {
            ws.recycle(AlignedVec::with_capacity(i + 1));
        }
        assert!(ws.free.len() <= MAX_FREE);
    }

    #[test]
    fn full_freelist_still_serves_best_fit_under_eviction_pressure() {
        // Fill the freelist to its cap with distinct capacities, then check
        // the boundary behaviors: best-fit `take` with a full list, eviction
        // of the smallest buffer when recycling past the cap, and an honest
        // miss when no parked buffer is large enough.
        // capacities are multiples of the 16-float lane so the parked
        // sizes are exact (AlignedVec rounds capacity up to whole lanes)
        let mut ws = Workspace::new();
        for i in 1..=MAX_FREE {
            ws.recycle(AlignedVec::with_capacity(16 * i));
        }
        assert_eq!(ws.free.len(), MAX_FREE);
        ws.reset_stats();

        // best-fit with a full freelist: smallest sufficient capacity wins
        let buf = ws.take(60); // fits the 64-cap buffer, not 48
        assert_eq!(ws.stats().misses, 0);
        assert!(buf.capacity() >= 60 && buf.capacity() < 72, "cap={}", buf.capacity());
        ws.recycle(buf); // back to exactly MAX_FREE parked buffers
        assert_eq!(ws.free.len(), MAX_FREE);

        // recycling one more evicts the smallest parked buffer, not the new one
        ws.recycle(AlignedVec::with_capacity(16 * (MAX_FREE + 1)));
        assert_eq!(ws.free.len(), MAX_FREE);
        let min_cap = ws.free.iter().map(AlignedVec::capacity).min().unwrap();
        assert!(min_cap >= 32, "smallest (16) must be evicted, min now {min_cap}");

        // a request larger than every parked buffer is an honest miss even
        // under full-freelist pressure
        ws.reset_stats();
        let huge = ws.take(16 * (MAX_FREE + 2));
        assert_eq!(ws.stats(), WorkspaceStats { takes: 1, misses: 1 });
        ws.recycle(huge);
        assert_eq!(ws.free.len(), MAX_FREE);
    }

    #[test]
    fn dynamic_batch_width_reuses_warmed_buffers_under_full_freelist() {
        // The continuous-batching serving loop requests the same per-layer
        // shapes at a row count that grows and shrinks every window. Once
        // warmed at the maximum width, every narrower width must be served
        // from the freelist (best-fit reuses a larger parked buffer), with
        // the cap still enforced — this extends the eviction-pressure test
        // to the serving engine's width trajectory.
        let mut ws = Workspace::new();
        let row = 32usize; // per-row elements of one fake layer activation
        let max_width = 8usize;
        // fill the freelist to its cap; the largest entries are the warmed
        // max-width buffers the serving loop parked
        for i in 1..=(MAX_FREE - 2) {
            ws.recycle(AlignedVec::with_capacity(i));
        }
        ws.recycle(AlignedVec::with_capacity(row * max_width));
        ws.recycle(AlignedVec::with_capacity(row * max_width));
        assert_eq!(ws.free.len(), MAX_FREE);
        ws.reset_stats();

        // width trajectory of a window: grow to max, shrink, grow again
        for &width in &[max_width, 3, 1, 5, max_width, 2] {
            let a = ws.take(row * width);
            let b = ws.take(row * width);
            assert_eq!(a.len(), row * width);
            assert!(a.iter().all(|&v| v == 0.0), "reused buffers must be re-zeroed");
            ws.recycle(a);
            ws.recycle(b);
            assert!(ws.free.len() <= MAX_FREE, "cap must hold across width changes");
        }
        assert_eq!(
            ws.stats(),
            WorkspaceStats { takes: 12, misses: 0 },
            "every width at or below the warmed maximum must hit the freelist"
        );

        // one width beyond the warmed maximum is an honest miss, after which
        // the new size class is itself warmed
        let wide = ws.take(row * (max_width + 2));
        assert_eq!(ws.stats().misses, 1);
        ws.recycle(wide);
        ws.reset_stats();
        let again = ws.take(row * (max_width + 2));
        assert_eq!(ws.stats(), WorkspaceStats { takes: 1, misses: 0 });
        ws.recycle(again);
        assert!(ws.free.len() <= MAX_FREE);
    }

    #[test]
    fn arena_buffers_stay_64_byte_aligned_across_recycling() {
        // The SIMD-tier satellite invariant: fresh takes, recycled reuse
        // (including shrink/grow reuse) and tensor round-trips all hand
        // back data on a cache-line boundary.
        let mut ws = Workspace::new();
        for len in [1usize, 8, 100, 513] {
            let buf = ws.take(len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0, "fresh take({len})");
            ws.recycle(buf);
            let again = ws.take(len / 2 + 1);
            assert_eq!(again.as_slice().as_ptr() as usize % 64, 0, "reuse({len})");
            ws.recycle(again);
        }
        let t = Tensor::from_aligned(ws.take(51), &[3, 17]).unwrap();
        assert_eq!(t.data().as_ptr() as usize % 64, 0, "tensor");
        ws.recycle_tensor(t);
        let t2 = Tensor::from_aligned(ws.take(51), &[3, 17]).unwrap();
        assert_eq!(t2.data().as_ptr() as usize % 64, 0, "recycled tensor");
    }
}
