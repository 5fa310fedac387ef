//! Deterministic random number source for the whole workspace.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna) seeded
//! through SplitMix64 — no external crates, so the workspace builds offline
//! and the exact bit stream is pinned by this file alone.

/// Deterministic random number source used for every stochastic operation in
/// the workspace (weight init, dataset synthesis, device-variation noise).
///
/// Keeping the seeding policy in one newtype lets higher crates split
/// reproducible sub-streams per component.
///
/// # Example
///
/// ```
/// use dtsnn_tensor::TensorRng;
///
/// let mut a = TensorRng::seed_from(42);
/// let mut b = TensorRng::seed_from(42);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    state: [u64; 4],
}

/// SplitMix64 step: expands a 64-bit seed into well-mixed words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Seeding goes through SplitMix64 so that structured seeds (0, 1, small
    /// integers, bit masks) still produce well-mixed state. The all-zero
    /// xoshiro state is a fixed point that would emit zeros forever; SplitMix
    /// cannot reach it from any seed by construction, but the guard below
    /// pins that invariant locally instead of relying on it at a distance.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        let mut state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        if state == [0, 0, 0, 0] {
            state = [
                0x9E37_79B9_7F4A_7C15,
                0xBF58_476D_1CE4_E5B9,
                0x94D0_49BB_1331_11EB,
                0x2545_F491_4F6C_DD1D,
            ];
        }
        TensorRng { state }
    }

    /// Next raw 64-bit word (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Uniform sample in `[0, 1)` with 24 bits of mantissa entropy.
    fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Derives an independent child stream; deterministic in `(self, tag)`.
    ///
    /// Different `tag` values give decorrelated streams, so components can
    /// draw noise without perturbing each other's sequences.
    pub fn fork(&mut self, tag: u64) -> Self {
        let base = self.next_u64();
        TensorRng::seed_from(base ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit_f32()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Lemire's multiply-shift; bias is at most n / 2^64 — negligible for
        // every n this workspace uses.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample scaled to `mean + std * z` via Box–Muller.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        // Box–Muller keeps us off external distribution crates.
        let u1 = self.unit_f32().max(f32::EPSILON);
        let u2 = self.unit_f32();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f32) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit_f32() < p
    }

    /// Fills `out` with i.i.d. normal samples.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std: f32) {
        for v in out.iter_mut() {
            *v = self.normal(mean, std);
        }
    }

    /// Fisher–Yates shuffle of `indices`.
    pub fn shuffle(&mut self, indices: &mut [usize]) {
        for i in (1..indices.len()).rev() {
            let j = self.below(i + 1);
            indices.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = TensorRng::seed_from(7);
        let mut b = TensorRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn zero_seed_stream_is_not_degenerate() {
        // seed 0 must behave like any other seed: nonzero internal state,
        // no all-zero output stream, and decorrelated from neighboring seeds
        let mut zero = TensorRng::seed_from(0);
        assert_ne!(zero.state, [0, 0, 0, 0]);
        let words: Vec<u64> = (0..64).map(|_| zero.next_u64()).collect();
        assert!(words.iter().any(|&w| w != 0), "all-zero stream from seed 0");
        let distinct: std::collections::HashSet<u64> = words.iter().copied().collect();
        assert!(distinct.len() > 60, "seed-0 stream repeats: {} distinct", distinct.len());
        let mut one = TensorRng::seed_from(1);
        let other: Vec<u64> = (0..64).map(|_| one.next_u64()).collect();
        assert_ne!(words, other);
        // uniform draws stay well-spread, not collapsed to a constant
        let mut zero = TensorRng::seed_from(0);
        let xs: Vec<f32> = (0..1000).map(|_| zero.uniform(0.0, 1.0)).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "seed-0 uniform mean {mean}");
    }

    #[test]
    fn forked_streams_decorrelate() {
        let mut root = TensorRng::seed_from(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let xs: Vec<f32> = (0..16).map(|_| a.uniform(0.0, 1.0)).collect();
        let ys: Vec<f32> = (0..16).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = TensorRng::seed_from(3);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 0.5)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.02, "mean={mean}");
        assert!((var - 0.25).abs() < 0.02, "var={var}");
    }

    #[test]
    fn uniform_stays_in_range_and_covers_it() {
        let mut rng = TensorRng::seed_from(17);
        let mut lo_seen = 1.0f32;
        let mut hi_seen = 0.0f32;
        for _ in 0..10_000 {
            let v = rng.uniform(0.0, 1.0);
            assert!((0.0..1.0).contains(&v));
            lo_seen = lo_seen.min(v);
            hi_seen = hi_seen.max(v);
        }
        assert!(lo_seen < 0.01 && hi_seen > 0.99);
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = TensorRng::seed_from(11);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f32 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::seed_from(5);
        let mut idx: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut idx);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = TensorRng::seed_from(9);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
