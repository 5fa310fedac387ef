//! Runtime-dispatched SIMD kernel tier (AVX2 → SSE2 → scalar).
//!
//! Every kernel in this crate keeps one discipline: **each output element
//! accumulates its terms in exactly the serial order**, so results are
//! bitwise identical across thread counts. The vector code here preserves
//! that discipline by vectorizing **across the output-column (`j`)
//! dimension**: each SIMD lane owns one independent
//! output accumulator, so no lane ever reorders another element's terms,
//! there is no horizontal float reduction, and every term is an explicit
//! multiply followed by an explicit add — **never an FMA** (scalar Rust
//! emits separate `mulss`/`addss`; a fused contraction would change the
//! rounding and break every golden trace).
//!
//! # Dispatch ladder
//!
//! The active [`SimdLevel`] resolves, in priority order, from:
//!
//! 1. a process-wide override installed with [`set_level`] / [`with_level`]
//!    (tests and benches pin the tier to compare),
//! 2. the `DTSNN_SIMD` environment variable
//!    (`auto|off|scalar|sse2|avx2`, read once; malformed values warn once
//!    and fall back to `auto`),
//! 3. runtime CPU-feature detection (`is_x86_feature_detected!`), cached in
//!    a `OnceLock`.
//!
//! A request above the host's capability is capped at the detected level —
//! forcing `avx2` on an SSE2-only host runs SSE2 rather than faulting — so
//! every resolved level is safe to execute. Non-`x86_64` targets always
//! resolve to [`SimdLevel::Scalar`]; the scalar bodies double as the
//! conformance oracle for the vector paths.
//!
//! # Dispatch granularity
//!
//! A `#[target_feature]` function never inlines into a caller without the
//! feature, so the dispatch sits where that call is amortized:
//!
//! - **Whole kernels** ([`lif_step`], [`bn_affine`], the convolution's
//!   per-sample scatter): the body is safe Rust with plain loops, marked
//!   `#[inline(always)]` and instantiated inside one AVX2 entry function
//!   (its baseline build serves SSE2 and scalar). One call per kernel call;
//!   LLVM vectorizes the loops at the tier's width and everything between
//!   them inlines. Per event these kernels do a handful of adds, so a call
//!   per row was most of their time.
//! - **Row primitives** ([`add_row`], [`add_scaled_row`], [`quant_dot`],
//!   [`matmul_nt_chunk`]): hand-written intrinsics taking the level as an
//!   argument, called per row by the `linalg` and `quant` matmul kernels.
//!   Their rows are a weight matrix's width (hundreds of floats),
//!   `matmul_nt_chunk` needs a register blocking no vectorizer derives, and
//!   rows under 32 floats inline the scalar loop instead of paying the call.
//!
//! # Exactness notes
//!
//! - f32 paths: lane-parallel over `j`, per-element op order unchanged →
//!   bitwise identical to scalar (pinned by the unit tests here, fuzz
//!   oracle 13 and the `DTSNN_SIMD=off` vs `auto` CI stage).
//! - int8 quantized dot: i16→i32 sign-extended widening multiplies; integer
//!   accumulation is associative, so the lane reduction is exact on the
//!   i32 grid — same integer, same single f32 rescale.
//! - Compiler-vectorized kernels: the loops are elementwise (nothing to
//!   reassociate) and a multiply and an add cannot contract — no `fma`
//!   feature is enabled and Rust never permits contraction — so every tier
//!   is the same arithmetic. LIF/BatchNorm keep the literal expression
//!   (`u · (1 − s)`, not a mask select: an `inf` membrane that spikes still
//!   yields `NaN`).

// The only unsafety here is calling `#[target_feature]` functions; every
// call site is guarded by the dispatch ladder, which never resolves above
// the detected CPU capability.
#![allow(unsafe_code)]

use crate::env_knob::EnvKnob;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The instruction tiers the kernels can dispatch to, ordered by
/// capability: a level's kernels may be used whenever the host supports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Plain Rust loops — the conformance oracle and non-x86_64 path.
    Scalar,
    /// 128-bit SSE2 vectors (x86_64 baseline).
    Sse2,
    /// 256-bit AVX2 vectors.
    Avx2,
}

impl SimdLevel {
    /// All levels in ascending capability order.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];

    /// Stable lowercase name (used in bench JSON context and CI logs).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    fn to_index(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 2,
            SimdLevel::Avx2 => 3,
        }
    }

    fn from_index(i: usize) -> Option<SimdLevel> {
        match i {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Sse2),
            3 => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

// Packed override: 0 = none, otherwise SimdLevel::to_index.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
/// `None` is auto (detected) dispatch.
pub(crate) static ENV_LEVEL: EnvKnob<Option<SimdLevel>> = EnvKnob::new(
    "DTSNN_SIMD",
    "one of auto|off|scalar|sse2|avx2; using auto dispatch",
    parse_simd,
);

/// The `DTSNN_SIMD` grammar; the outer `None` flags a malformed value. A
/// level above the host's capability parses (and is capped by [`level`]),
/// with a notice.
fn parse_simd(raw: &str) -> Option<Option<SimdLevel>> {
    let level = match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => None,
        "off" | "scalar" | "none" => Some(SimdLevel::Scalar),
        "sse2" => Some(SimdLevel::Sse2),
        "avx2" => Some(SimdLevel::Avx2),
        _ => return None,
    };
    if level.is_some_and(|l| l > detected()) {
        eprintln!(
            "dtsnn: warning: DTSNN_SIMD={raw:?} exceeds this host's capability; capping at {}",
            detected().name()
        );
    }
    Some(level)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else if std::arch::is_x86_feature_detected!("sse2") {
        SimdLevel::Sse2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// The host's best supported level (cached runtime detection).
pub fn detected() -> SimdLevel {
    *DETECTED.get_or_init(detect)
}

/// Comma-separated list of the vector features the host supports, recorded
/// next to `host_cores` in bench JSON context blocks so committed numbers
/// stay interpretable across machines.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        for (name, have) in [
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
        ] {
            if have {
                feats.push(name);
            }
        }
        if feats.is_empty() {
            "none".to_string()
        } else {
            feats.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "non-x86_64".to_string()
    }
}

/// The level the kernels will actually run at: the forced level (override →
/// `DTSNN_SIMD`) capped at the host capability, or the detected level.
/// Kernels hoist this once per call and pass it down, so the inner loops
/// never touch the atomics.
pub fn level() -> SimdLevel {
    let cap = detected();
    let packed = OVERRIDE.load(Ordering::Relaxed);
    if packed != 0 {
        return SimdLevel::from_index(packed).unwrap_or(SimdLevel::Scalar).min(cap);
    }
    ENV_LEVEL.get_or(|| None).map_or(cap, |l| l.min(cap))
}

/// Installs a process-wide level override (capped at the host capability at
/// use time); `None` restores env/auto dispatch. Returns the previous
/// override. Safe to flip concurrently: every level produces bitwise
/// identical f32 results, so the knob can never change a numeric output.
pub fn set_level(level: Option<SimdLevel>) -> Option<SimdLevel> {
    let packed = level.map_or(0, SimdLevel::to_index);
    SimdLevel::from_index(OVERRIDE.swap(packed, Ordering::Relaxed))
}

/// Runs `f` with the SIMD tier pinned to `level`, restoring the previous
/// override afterwards — the scoped guard the equivalence tests and the
/// speedup bench use to compare tiers in one process.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    let prev = set_level(Some(level));
    let out = f();
    set_level(prev);
    out
}

// --------------------------------------------------------------------------
// Row primitives: the vectorizable inner loops of the matmul kernels. `c`
// and `b` are equal-length row slices; each lane owns one output column, so
// the per-element op order is exactly the scalar loop's.
// --------------------------------------------------------------------------

/// `c[j] += b[j]` — the bias broadcast.
#[inline]
pub fn add_row(c: &mut [f32], b: &[f32], level: SimdLevel) {
    #[cfg(target_arch = "x86_64")]
    {
        // short rows inline the scalar loop: the vector fns cannot inline
        // across the #[target_feature] boundary and the call costs more
        // than it saves under ~4 vectors (both tiers are bitwise equal,
        // so the gate is invisible to everything but the clock)
        if c.len() >= 32 {
            match level {
                // SAFETY: level() caps at the detected capability, so the
                // required CPU features are present.
                SimdLevel::Avx2 => return unsafe { add_row_avx2(c, b) },
                SimdLevel::Sse2 => return unsafe { add_row_sse2(c, b) },
                SimdLevel::Scalar => {}
            }
        }
    }
    let _ = level;
    for (cv, &bv) in c.iter_mut().zip(b) {
        *cv += bv;
    }
}

/// `c[j] += a * b[j]` — the scaled row-add of the blocked matmul kernels.
/// Explicit multiply-then-add per lane; never an FMA.
#[inline]
pub fn add_scaled_row(c: &mut [f32], a: f32, b: &[f32], level: SimdLevel) {
    #[cfg(target_arch = "x86_64")]
    {
        // same short-row gate as `add_row` — see the comment there
        if c.len() >= 32 {
            match level {
                // SAFETY: level() caps at the detected capability.
                SimdLevel::Avx2 => return unsafe { add_scaled_row_avx2(c, a, b) },
                SimdLevel::Sse2 => return unsafe { add_scaled_row_sse2(c, a, b) },
                SimdLevel::Scalar => {}
            }
        }
    }
    let _ = level;
    for (cv, &bv) in c.iter_mut().zip(b) {
        *cv += a * bv;
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;

    /// K-tile of the packed `matmul_nt` kernel: rows of packed `b` columns
    /// held in a stack tile (`NT_BLOCK_K × 8` floats = 4 KiB at AVX2 width).
    /// Per output element the tiles are visited in ascending order and the
    /// partial accumulator round-trips through `out` between tiles — an
    /// exact f32 store/load, so blocking stays bitwise neutral.
    pub(super) const NT_BLOCK_K: usize = 128;

    macro_rules! elementwise {
        ($name:ident, $feat:literal, $width:expr, $loadu:ident, $storeu:ident,
         |$va:ident, $vb:ident| $vec:expr, |$sa:ident, $sb:ident| $scalar:expr) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(c: &mut [f32], b: &[f32]) {
                let n = c.len().min(b.len());
                let mut j = 0;
                // SAFETY: j + WIDTH <= n bounds every pointer access.
                unsafe {
                    while j + $width <= n {
                        let $va = $loadu(c.as_ptr().add(j));
                        let $vb = $loadu(b.as_ptr().add(j));
                        $storeu(c.as_mut_ptr().add(j), $vec);
                        j += $width;
                    }
                }
                for jj in j..n {
                    let $sa = c[jj];
                    let $sb = b[jj];
                    c[jj] = $scalar;
                }
            }
        };
    }

    elementwise!(add_row_avx2, "avx2", 8, _mm256_loadu_ps, _mm256_storeu_ps,
        |a, b| _mm256_add_ps(a, b), |x, y| x + y);
    elementwise!(add_row_sse2, "sse2", 4, _mm_loadu_ps, _mm_storeu_ps,
        |a, b| _mm_add_ps(a, b), |x, y| x + y);

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_scaled_row_avx2(c: &mut [f32], a: f32, b: &[f32]) {
        let n = c.len().min(b.len());
        let mut j = 0;
        // SAFETY: j + 8 <= n bounds every pointer access.
        unsafe {
            let av = _mm256_set1_ps(a);
            while j + 8 <= n {
                let cv = _mm256_loadu_ps(c.as_ptr().add(j));
                let bv = _mm256_loadu_ps(b.as_ptr().add(j));
                // mul then add — not fused, matching scalar rounding
                _mm256_storeu_ps(c.as_mut_ptr().add(j), _mm256_add_ps(cv, _mm256_mul_ps(av, bv)));
                j += 8;
            }
        }
        for jj in j..n {
            c[jj] += a * b[jj];
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn add_scaled_row_sse2(c: &mut [f32], a: f32, b: &[f32]) {
        let n = c.len().min(b.len());
        let mut j = 0;
        // SAFETY: j + 4 <= n bounds every pointer access.
        unsafe {
            let av = _mm_set1_ps(a);
            while j + 4 <= n {
                let cv = _mm_loadu_ps(c.as_ptr().add(j));
                let bv = _mm_loadu_ps(b.as_ptr().add(j));
                _mm_storeu_ps(c.as_mut_ptr().add(j), _mm_add_ps(cv, _mm_mul_ps(av, bv)));
                j += 4;
            }
        }
        for jj in j..n {
            c[jj] += a * b[jj];
        }
    }

    macro_rules! nt_chunk {
        ($name:ident, $feat:literal, $width:expr, $set1:ident, $loadu:ident,
         $storeu:ident, $add:ident, $mul:ident, $and:ident, $nonzero:ident) => {
            /// One worker's row chunk of `out[m,n] += a[m,k] × bᵀ[n,k]` over
            /// a zero-filled chunk: packs `$width` columns of `bᵀ` per
            /// k-tile into a stack-resident tile, broadcasts `a[i][p]` and
            /// does lane-parallel mul-then-add, the product masked to
            /// `+0.0` where `a[i][p]` is zero. Tail columns fall back to the
            /// scalar dot (same ascending-k order, same masking, overwrite
            /// of a zero).
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(
                a: &[f32],
                k: usize,
                first_row: usize,
                rows: usize,
                b: &[f32],
                n: usize,
                c: &mut [f32],
            ) {
                const W: usize = $width;
                let mut tile = [0.0f32; NT_BLOCK_K * $width];
                let jmain = n - n % W;
                for jb in (0..jmain).step_by(W) {
                    for pb in (0..k).step_by(NT_BLOCK_K) {
                        let pend = (pb + NT_BLOCK_K).min(k);
                        for l in 0..W {
                            let brow = &b[(jb + l) * k + pb..(jb + l) * k + pend];
                            for (pi, &bv) in brow.iter().enumerate() {
                                tile[pi * W + l] = bv;
                            }
                        }
                        for li in 0..rows {
                            let i = first_row + li;
                            let arow = &a[i * k + pb..i * k + pend];
                            // SAFETY: li * n + jb + W <= rows * n == c.len()
                            // (jb + W <= jmain <= n) and pi * W + W bounds
                            // the tile; loads/stores stay in range.
                            unsafe {
                                let cptr = c.as_mut_ptr().add(li * n + jb);
                                let mut acc = $loadu(cptr);
                                for (pi, &av) in arow.iter().enumerate() {
                                    let (av, bv) = ($set1(av), $loadu(tile.as_ptr().add(pi * W)));
                                    // mul then add — never fused; a zero
                                    // `av` adds +0.0 whatever the weight
                                    acc = $add(acc, $and($mul(av, bv), $nonzero(av)));
                                }
                                $storeu(cptr, acc);
                            }
                        }
                    }
                }
                for li in 0..rows {
                    let i = first_row + li;
                    let arow = &a[i * k..(i + 1) * k];
                    for j in jmain..n {
                        let brow = &b[j * k..(j + 1) * k];
                        c[li * n + j] = super::dot_skipping_zeros(arow, brow);
                    }
                }
            }
        };
    }

    /// All-ones lanes where `v != 0.0` (NaN counts as nonzero, as it does
    /// in scalar code).
    #[target_feature(enable = "avx2")]
    fn nonzero_avx2(v: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps())
    }

    #[target_feature(enable = "sse2")]
    fn nonzero_sse2(v: __m128) -> __m128 {
        _mm_cmpneq_ps(v, _mm_setzero_ps())
    }

    nt_chunk!(nt_chunk_avx2, "avx2", 8, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps,
        _mm256_add_ps, _mm256_mul_ps, _mm256_and_ps, nonzero_avx2);
    nt_chunk!(nt_chunk_sse2, "sse2", 4, _mm_set1_ps, _mm_loadu_ps, _mm_storeu_ps,
        _mm_add_ps, _mm_mul_ps, _mm_and_ps, nonzero_sse2);

    /// Builds a 32-byte mask (0xFF per set bit) from a 32-bit spike word
    /// half: broadcast the dword, shuffle byte `i/8` into byte `i`, test
    /// bit `i%8`.
    #[target_feature(enable = "avx2")]
    fn mask_from_bits32(bits: u32) -> __m256i {
        // intrinsics without memory access are safe inside a matching
        // #[target_feature] fn; only the pointer loads/stores need unsafe
        let v = _mm256_set1_epi32(bits as i32);
        #[rustfmt::skip]
        let group = _mm256_setr_epi8(
            0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
            2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
        );
        #[rustfmt::skip]
        let sel = _mm256_setr_epi8(
            1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
            1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
        );
        let bytes = _mm256_shuffle_epi8(v, group);
        _mm256_cmpeq_epi8(_mm256_and_si256(bytes, sel), sel)
    }

    /// Quantized dot of one packed spike row against one `i8` weight row:
    /// mask the active codes, sign-extend i8→i16, widen-multiply by one
    /// into i32 lanes, reduce exactly (integer adds are associative).
    /// Returns the same `i32` as the scalar bit-scan for any bit pattern.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quant_dot_avx2(words: &[u64], q: &[i8]) -> i32 {
        let k = q.len();
        // SAFETY: full words guarantee base + 64 <= k, so the two 32-byte
        // code loads stay in bounds; partial trailing words take the scalar
        // scan below.
        unsafe {
            let ones = _mm256_set1_epi16(1);
            let mut acc = _mm256_setzero_si256();
            let mut tail = 0i32;
            for (wi, &word) in words.iter().enumerate() {
                if word == 0 {
                    continue;
                }
                let base = wi * 64;
                if base + 64 <= k {
                    for half in 0..2u32 {
                        let bits = (word >> (32 * half)) as u32;
                        if bits == 0 {
                            continue;
                        }
                        let mask = mask_from_bits32(bits);
                        let codes =
                            _mm256_loadu_si256(q.as_ptr().add(base + 32 * half as usize).cast());
                        let sel = _mm256_and_si256(codes, mask);
                        let lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(sel));
                        let hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(sel));
                        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(lo, ones));
                        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(hi, ones));
                    }
                } else {
                    let mut bits = word;
                    while bits != 0 {
                        let p = base + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        tail += i32::from(q[p]);
                    }
                }
            }
            let s = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256::<1>(acc));
            let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_11_10>(s));
            let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
            _mm_cvtsi128_si32(s).wrapping_add(tail)
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{
    add_row_avx2, add_row_sse2, add_scaled_row_avx2, add_scaled_row_sse2, nt_chunk_avx2,
    nt_chunk_sse2, quant_dot_avx2,
};

/// One worker's row chunk of the `matmul_nt` kernel
/// (`out[m,n] += a[m,k] × bᵀ[n,k]`, `b` stored `[n, k]`) over a
/// **zero-filled** chunk `c` of `rows` output rows starting at `first_row`.
/// The vector tiers pack `b` columns into a stack tile and keep eight (or
/// four) independent column accumulators per register; the scalar tier is
/// a straight-line dot. All tiers accumulate each output element in
/// ascending `p` with explicit mul-then-add, a zero `a[i][p]` adding `+0.0`
/// whatever the weight, so results are bitwise identical.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the raw kernel signature
pub fn matmul_nt_chunk(
    a: &[f32],
    k: usize,
    first_row: usize,
    rows: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
    level: SimdLevel,
) {
    #[cfg(target_arch = "x86_64")]
    {
        match level {
            // SAFETY: level() caps at the detected capability.
            SimdLevel::Avx2 => return unsafe { nt_chunk_avx2(a, k, first_row, rows, b, n, c) },
            SimdLevel::Sse2 => return unsafe { nt_chunk_sse2(a, k, first_row, rows, b, n, c) },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    for (local_i, crow) in c.chunks_mut(n).enumerate().take(rows) {
        let i = first_row + local_i;
        let arow = &a[i * k..(i + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv = dot_skipping_zeros(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `Σ a[p]·b[p]` in ascending `p`, explicit multiply then add, a zero
/// `a[p]` contributing `+0.0` whatever `b[p]` — the scalar form of every
/// tier's `matmul_nt` term. Bitwise neutral for finite operands (the sum
/// starts at `+0.0` and can never become `-0.0`), and it keeps a weight
/// behind a silent input out of the sum, as the skip of the row-add kernels
/// does. A mask, not a branch: the loop is bound by the add chain, and a
/// branch on spike data mispredicts.
#[inline(always)]
fn dot_skipping_zeros(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0;
    for (&av, &bv) in a.iter().zip(b) {
        // all ones iff `av` is nonzero (written on the bits: LLVM turns
        // an `if` back into the branch)
        let keep = u32::from(av != 0.0).wrapping_neg();
        acc += f32::from_bits((av * bv).to_bits() & keep);
    }
    acc
}

/// Exact integer dot of a packed spike row (`words`, bit `p` set ⇔ input
/// `p` active) against an `i8` code row of length `q.len()`: the sum of the
/// active codes as `i32`. The AVX2 tier uses sign-extended widening
/// multiplies; integer accumulation is associative, so the lane reduction
/// returns the identical integer for every tier.
#[inline]
pub fn quant_dot(words: &[u64], q: &[i8], level: SimdLevel) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        // The widening path needs AVX2; SSE2 falls back to the scalar scan.
        if level == SimdLevel::Avx2 {
            // SAFETY: level() caps at the detected capability.
            return unsafe { quant_dot_avx2(words, q) };
        }
    }
    let _ = level;
    let mut acc = 0i32;
    for (wi, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let p = wi * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            acc += i32::from(q[p]);
        }
    }
    acc
}

// --------------------------------------------------------------------------
// Whole kernels, dispatched once per call (module docs, "Dispatch
// granularity"). These read the active level internally — one atomic load
// amortized over a whole sample / activation buffer.
// --------------------------------------------------------------------------

/// Defines `$name` as `$body` — a safe `#[inline(always)]` function of plain
/// loops — compiled once inside an AVX2 entry function, so LLVM vectorizes
/// it 256 bits wide, and once for the baseline, which serves SSE2 and
/// scalar. The entry is a plain function taking its arguments by value:
/// behind a closure handed to one generic entry, the captures were reloaded
/// after every `f32` store. For the same reason a body keeps its hot loops
/// out of closures — one that LLVM declines to inline stays a call into
/// baseline code.
macro_rules! per_tier {
    ($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;) => {
        $(#[$doc])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if level() == SimdLevel::Avx2 {
                    // SAFETY: level() caps at the detected capability.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

per_tier! {
    /// One sample of the direct convolution at the active tier.
    pub(crate) fn conv_scatter_sample(
        src: &[f32],
        dims: [usize; 3],
        out_hw: (usize, usize),
        w_t: &[f32],
        spec: crate::Conv2dSpec,
        tile: &mut [f32],
    ) = crate::conv::scatter_sample;
}

/// The neuron constants of one [`lif_step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifStep {
    /// Leak factor `τ`.
    pub tau: f32,
    /// Firing threshold `V_th`.
    pub v_th: f32,
    /// Reset by subtraction (`u − V_th·s`) instead of to zero (`u·(1 − s)`).
    pub soft_reset: bool,
    /// Smooth-spike temperature `b`; `None` fires the exact Heaviside step.
    pub smooth_spike: Option<f32>,
}

per_tier! {
    /// One LIF timestep in one pass over the activation: charge
    /// `u_pre = prev·τ + x` (explicit multiply, then add; `u_pre = x` on a
    /// sequence's first step, `prev = None`), fire `s = [u_pre > V_th]` (NaN
    /// compares false) or the smooth step `½·(tanh(b·(u_pre − V_th)) + 1)`,
    /// reset by the literal `u_pre·(1 − s)` (so an `inf` membrane that spikes
    /// yields NaN) or `u_pre − V_th·s`. Writes every element of `u` (the
    /// membrane to carry) and `s`, stores the nonzero share of each of the
    /// `row_densities.len()` equal rows of `s` and returns the total nonzero
    /// count — the integers [`crate::Tensor::density_rows`] and
    /// [`crate::Tensor::density`] count.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree or do not split into whole rows.
    pub fn lif_step(
        p: LifStep,
        x: &[f32],
        prev: Option<&[f32]>,
        u: &mut [f32],
        s: &mut [f32],
        row_densities: &mut [f32],
    ) -> usize = lif_step_body;
}

#[inline(always)]
fn lif_step_body(
    p: LifStep,
    x: &[f32],
    prev: Option<&[f32]>,
    u: &mut [f32],
    s: &mut [f32],
    row_densities: &mut [f32],
) -> usize {
    let rows = row_densities.len().max(1);
    let row_len = x.len() / rows;
    assert!(
        rows * row_len == x.len()
            && (u.len(), s.len()) == (x.len(), x.len())
            && prev.is_none_or(|m| m.len() == x.len()),
        "lif_step: buffers must be {rows} rows of one length"
    );
    let mut fired = 0;
    for r in 0..rows {
        let at = r * row_len..(r + 1) * row_len;
        let (x, u, s) = (&x[at.clone()], &mut u[at.clone()], &mut s[at.clone()]);
        // one instantiation per loop-invariant choice keeps each a straight
        // vectorizable loop (tanh has no vector form and stays scalar)
        let count = match (prev.map(|m| &m[at]), p.smooth_spike.is_some()) {
            (Some(m), false) => lif_row::<true, false>(p, x, m, u, s),
            (None, false) => lif_row::<false, false>(p, x, x, u, s),
            (Some(m), true) => lif_row::<true, true>(p, x, m, u, s),
            (None, true) => lif_row::<false, true>(p, x, x, u, s),
        };
        if let Some(d) = row_densities.get_mut(r) {
            *d = count as f32 / row_len as f32;
        }
        fired += count;
    }
    fired
}

/// One row of [`lif_step`]: `CHARGE` from the carried membrane `m` (unread
/// on a first step), `SMOOTH` or Heaviside firing.
#[inline(always)]
fn lif_row<const CHARGE: bool, const SMOOTH: bool>(
    p: LifStep,
    x: &[f32],
    m: &[f32],
    u: &mut [f32],
    s: &mut [f32],
) -> usize {
    let b = p.smooth_spike.unwrap_or(0.0);
    let mut count = 0;
    // counted per block in 32 bits: a 64-bit lane counter would halve the
    // width the whole loop vectorizes at
    for block in (0..x.len()).step_by(1 << 16) {
        let mut fired = 0u32;
        for i in block..x.len().min(block + (1 << 16)) {
            let up = if CHARGE { m[i] * p.tau + x[i] } else { x[i] };
            let sp = if SMOOTH {
                0.5 * ((b * (up - p.v_th)).tanh() + 1.0)
            } else if up > p.v_th {
                1.0
            } else {
                0.0
            };
            s[i] = sp;
            u[i] = if p.soft_reset { up - p.v_th * sp } else { up * (1.0 - sp) };
            fired += u32::from(sp != 0.0);
        }
        count += fired as usize;
    }
    count
}

per_tier! {
    /// Eval-mode BatchNorm affine `dst[i] = g * (src[i] - mean) * inv_std + b`
    /// over one contiguous channel plane, left-to-right association.
    pub fn bn_affine(dst: &mut [f32], src: &[f32], g: f32, mean: f32, inv_std: f32, b: f32)
        = bn_affine_body;
}

#[inline(always)]
fn bn_affine_body(dst: &mut [f32], src: &[f32], g: f32, mean: f32, inv_std: f32, b: f32) {
    for (o, &xv) in dst.iter_mut().zip(src) {
        *o = g * (xv - mean) * inv_std + b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;
    use std::sync::Mutex;

    // Tests that flip the process-wide level override serialize here so
    // they cannot observe each other's override. Property tests that force
    // thread counts as well take this lock first for a stable order.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn levels_to_test() -> Vec<SimdLevel> {
        SimdLevel::ALL.iter().copied().filter(|&l| l <= detected()).collect()
    }

    fn randn(n: usize, rng: &mut TensorRng) -> Vec<f32> {
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v, 0.0, 1.0);
        v
    }

    #[test]
    fn override_guard_shadows_restores_and_caps() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        assert_eq!(set_level(None), None);
        with_level(SimdLevel::Scalar, || {
            assert_eq!(level(), SimdLevel::Scalar);
            with_level(SimdLevel::Avx2, || {
                // capped at the host capability, never above
                assert_eq!(level(), SimdLevel::Avx2.min(detected()));
            });
            assert_eq!(level(), SimdLevel::Scalar);
        });
        assert_eq!(set_level(None), None);
        // unforced dispatch never exceeds the detected capability; with no
        // DTSNN_SIMD in the environment it is exactly the detected level
        // (the env knob may lower the baseline — the CI simd stage runs
        // this very suite under DTSNN_SIMD=off)
        assert!(level() <= detected());
        if std::env::var_os("DTSNN_SIMD").is_none() {
            assert_eq!(level(), detected());
        }
    }

    #[test]
    fn level_names_are_stable() {
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Sse2.name(), "sse2");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn row_primitives_match_scalar_bitwise() {
        let mut rng = TensorRng::seed_from(401);
        // lengths straddle vector widths and tails, plus tricky values
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 64, 257] {
            let b = randn(n, &mut rng);
            let base = randn(n, &mut rng);
            for &a in &[0.0f32, 1.0, -0.37, 1e-30] {
                for lvl in levels_to_test() {
                    let mut want = base.clone();
                    for (cv, &bv) in want.iter_mut().zip(&b) {
                        *cv += a * bv;
                    }
                    let mut got = base.clone();
                    add_scaled_row(&mut got, a, &b, lvl);
                    assert_eq!(
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "add_scaled_row n={n} a={a} {lvl:?}"
                    );

                    let mut want = base.clone();
                    for (cv, &bv) in want.iter_mut().zip(&b) {
                        *cv += bv;
                    }
                    let mut got = base.clone();
                    add_row(&mut got, &b, lvl);
                    assert_eq!(
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "add_row n={n} {lvl:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nt_chunk_matches_scalar_bitwise() {
        let mut rng = TensorRng::seed_from(402);
        // shapes straddle the j-tile width and the k-tile depth
        for (m, k, n) in [(1, 5, 3), (3, 40, 17), (2, 200, 8), (5, 300, 21), (4, 64, 16)] {
            let a = randn(m * k, &mut rng);
            let b = randn(n * k, &mut rng);
            let mut want = vec![0.0f32; m * n];
            matmul_nt_chunk(&a, k, 0, m, &b, n, &mut want, SimdLevel::Scalar);
            for lvl in levels_to_test() {
                let mut got = vec![0.0f32; m * n];
                matmul_nt_chunk(&a, k, 0, m, &b, n, &mut got, lvl);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "nt m={m} k={k} n={n} {lvl:?}"
                );
            }
        }
    }

    #[test]
    fn quant_dot_matches_scalar_exactly() {
        let mut rng = TensorRng::seed_from(403);
        for k in [1usize, 63, 64, 65, 128, 200, 400] {
            let words_len = k.div_ceil(64);
            for density in [0.0f32, 0.1, 0.5, 1.0] {
                let mut words = vec![0u64; words_len];
                for p in 0..k {
                    if rng.bernoulli(density) {
                        words[p / 64] |= 1 << (p % 64);
                    }
                }
                let q: Vec<i8> =
                    (0..k).map(|_| (rng.uniform(-128.0, 128.0) as i32).clamp(-128, 127) as i8).collect();
                let want = quant_dot(&words, &q, SimdLevel::Scalar);
                for lvl in levels_to_test() {
                    assert_eq!(want, quant_dot(&words, &q, lvl), "k={k} d={density} {lvl:?}");
                }
            }
        }
    }

    #[test]
    fn bn_affine_matches_scalar_bitwise_including_nonfinite() {
        // (the LIF step is pinned against the plain-tensor `LifNeuron::forward`
        // at every tier in dtsnn-snn's tests/lif_step.rs)
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let mut rng = TensorRng::seed_from(404);
        for n in [1usize, 7, 8, 9, 100] {
            let mut x = randn(n, &mut rng);
            if n > 2 {
                x[0] = f32::INFINITY;
                x[1] = f32::NAN;
            }
            let run = || {
                let mut bn = vec![0.0f32; n];
                bn_affine(&mut bn, &x, 1.3, -0.2, 0.9, 0.1);
                bn.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let scalar = with_level(SimdLevel::Scalar, run);
            for lvl in levels_to_test() {
                assert_eq!(scalar, with_level(lvl, run), "bn n={n} {lvl:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lif_step")]
    fn lif_step_rejects_buffers_that_do_not_split_into_whole_rows() {
        let p = LifStep { tau: 0.5, v_th: 1.0, soft_reset: false, smooth_spike: None };
        let (mut u, mut s) = ([0.0; 7], [0.0; 7]);
        lif_step(p, &[0.0; 7], None, &mut u, &mut s, &mut [0.0; 2]);
    }

    #[test]
    fn kernel_families_match_scalar_bitwise_across_thread_counts() {
        // Every public matmul entry point, f32 (dense and spike operands)
        // and quantized, forced-scalar vs each vector tier, at 1 and 4
        // workers — all compared to_bits.
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let mut rng = TensorRng::seed_from(405);
        let a = crate::Tensor::randn(&[13, 150], 0.0, 1.0, &mut rng);
        let b = crate::Tensor::randn(&[150, 37], 0.0, 1.0, &mut rng);
        let bt = crate::Tensor::randn(&[37, 150], 0.0, 1.0, &mut rng);
        let mut spikes = crate::Tensor::zeros(&[13, 150]);
        for v in spikes.data_mut().iter_mut() {
            if rng.bernoulli(0.2) {
                *v = 1.0;
            }
        }
        let qw = crate::QuantizedWeights::from_tensor(&bt, 8).unwrap();
        let run = || {
            let mm = a.matmul(&b).unwrap();
            let tn = b.matmul_tn(&bt.transpose2d().unwrap()).unwrap();
            let nt = a.matmul_nt(&bt).unwrap();
            let sp_mm = spikes.matmul(&b).unwrap();
            let sp_nt = spikes.matmul_nt(&bt).unwrap();
            let q = qw.matmul_nt(&spikes).unwrap();
            [mm, tn, nt, sp_mm, sp_nt, q]
                .iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        for threads in [1usize, 4] {
            let want = crate::parallel::with_threads(threads, || {
                with_level(SimdLevel::Scalar, run)
            });
            for lvl in levels_to_test() {
                let got = crate::parallel::with_threads(threads, || with_level(lvl, run));
                assert_eq!(want, got, "threads={threads} {lvl:?}");
            }
        }
    }
}
