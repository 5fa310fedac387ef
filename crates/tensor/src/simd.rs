//! Runtime-dispatched vector width for every kernel (AVX-512 → AVX2 →
//! baseline).
//!
//! Every kernel in this crate keeps one discipline: **each output element
//! accumulates its terms in exactly the order of the plain scalar loop**, so
//! results are bitwise identical at every vector width. Vector code
//! preserves that discipline by vectorizing **across the output-column
//! (`j`) dimension**:
//! each lane owns one independent output accumulator, so no lane ever
//! reorders another element's terms, there is no horizontal float reduction,
//! and every term is an explicit multiply followed by an explicit add —
//! **never an FMA** (a fused contraction would change the rounding and break
//! every golden trace).
//!
//! There is one mechanism. A kernel is a safe `#[inline(always)]` function of
//! plain loops, and `per_tier!` compiles it three times: inside an
//! `#[target_feature(enable = "avx512f")]` entry and an
//! `#[target_feature(enable = "avx2")]` one, where LLVM vectorizes the loops
//! 512 and 256 bits wide, and for the target's baseline (128-bit SSE2 on
//! x86_64, whatever the target has elsewhere). No kernel is written in
//! intrinsics and none takes a level as an argument.
//!
//! # Dispatch ladder
//!
//! The active [`SimdLevel`] resolves, in priority order, from:
//!
//! 1. a process-wide override installed with [`set_level`] / [`with_level`]
//!    (tests and benches pin the tier to compare),
//! 2. the `DTSNN_SIMD` environment variable (`auto|off|scalar|avx2|avx512`,
//!    read once; `sse2` is accepted as a synonym of `off` — x86_64's
//!    baseline *is* SSE2; malformed values warn once and fall back to
//!    `auto`),
//! 3. runtime CPU-feature detection (`is_x86_feature_detected!`: AVX-512F,
//!    else AVX2, else the baseline), cached in a `OnceLock`.
//!
//! A request above the host's capability is capped at the detected level —
//! forcing `avx512` on an AVX2 host runs the AVX2 build rather than faulting
//! — so every resolved level is safe to execute. Non-`x86_64` targets always
//! resolve to [`SimdLevel::Scalar`]; the baseline build doubles as the
//! conformance oracle for the vector ones.
//!
//! # Dispatch granularity
//!
//! A `#[target_feature]` function never inlines into a caller without the
//! feature, so each entry sits where that call is amortized and everything
//! under it inlines: one call per [`lif_step`] / [`bn_affine`] / BatchNorm
//! Train pass / average pool or its backward, one per sample of the
//! convolution's scatter and of its input gradient, one per call of a matmul,
//! of the linear kernel, of the convolution's weight gradient and of its
//! epilogue (the entry loops over the rows itself; it is never called per
//! row). The epilogue's entry, `conv_epilogue`, reorders a whole output
//! (tile -> NCHW with the bias, or NCHW -> rows for the backward), its
//! instantiations with literal `(c_out, ow)` ((32, 16), (64, 8), (64, 4),
//! then one reading them at run time) picked by a `match` once per call.
//! The scatter's entry is still one per sample: its nonzero pass and its
//! instantiations with literal kernel extent and `c_out` (3×3 at 32 and 64,
//! then one reading the extents at run time per stride class) are all
//! inlined into it, picked by a `match` on the layer's shape once per
//! sample. A body keeps its hot loops out of closures and non-inlined
//! helpers: a callee LLVM declines to inline is compiled for the baseline
//! and called from the vector entry — bitwise correct, at the wrong width
//! (`scripts/ci.sh`'s `vector_width` stage reads the disassembly for exactly
//! that).
//!
//! # Exactness notes
//!
//! - The loops are elementwise over output columns (nothing to reassociate)
//!   and a multiply and an add are never contracted. The AVX2 entry does not
//!   enable `fma`; the AVX-512 one does (rustc's `avx512f` implies it), but
//!   Rust never permits contraction of a separate `*` and `+`, so all three
//!   builds of a body are the same arithmetic, bit for bit (pinned by the
//!   unit tests here, `tests/zero_skip.rs`, `tests/conv_direct.rs`, fuzz
//!   oracle 13 and the `DTSNN_SIMD=off` vs `auto` CI stages; the
//!   `vector_width` stage rejects any FMA instruction in an entry).
//! - Width changes how many independent accumulator chains a vector
//!   register holds, never the order inside one: the linear kernel's
//!   sixteen column accumulators are four baseline chains, two AVX2 chains
//!   or one AVX-512 chain.
//! - LIF/BatchNorm keep the literal expression (`u · (1 − s)`, not a mask
//!   select: an `inf` membrane that spikes still yields `NaN`).
//! - A reduction is never split across lanes. BatchNorm's Train sums run a
//!   group of channels at once, one accumulator each, every channel adding
//!   its terms in its own serial order: independent chains in registers
//!   (scalar, so the same at every width), because one channel alone is one
//!   latency-bound chain.

// The only unsafety here is `per_tier!`'s calls of its `#[target_feature]`
// entries, guarded by the dispatch ladder, which never resolves above the
// detected CPU capability.
#![allow(unsafe_code)]

use crate::env_knob::EnvKnob;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The builds of a kernel body the dispatch can pick, ordered by capability:
/// a level may be used whenever the host supports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The target's baseline build (128-bit SSE2 on x86_64) — the
    /// conformance oracle and the non-x86_64 path.
    Scalar,
    /// The body compiled with 256-bit AVX2 vectors enabled.
    Avx2,
    /// The body compiled with 512-bit AVX-512F vectors enabled.
    Avx512,
}

impl SimdLevel {
    /// All levels in ascending capability order.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Stable lowercase name (used in bench JSON context and CI logs).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    fn to_index(self) -> usize {
        self as usize + 1
    }

    fn from_index(i: usize) -> Option<SimdLevel> {
        SimdLevel::ALL.get(i.wrapping_sub(1)).copied()
    }
}

// Packed override: 0 = none, otherwise SimdLevel::to_index.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
/// `None` is auto (detected) dispatch.
pub(crate) static ENV_LEVEL: EnvKnob<Option<SimdLevel>> = EnvKnob::new(
    "DTSNN_SIMD",
    "one of auto|off|scalar|avx2|avx512; using auto dispatch",
    parse_simd,
);

/// The `DTSNN_SIMD` grammar; the outer `None` flags a malformed value.
/// `sse2` stays a synonym of `off`: it named a tier that resolved to the
/// baseline build. A level above the host's capability parses (and is capped
/// by [`level`]), with a notice.
fn parse_simd(raw: &str) -> Option<Option<SimdLevel>> {
    let level = match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => None,
        "off" | "scalar" | "none" | "sse2" => Some(SimdLevel::Scalar),
        "avx2" => Some(SimdLevel::Avx2),
        "avx512" => Some(SimdLevel::Avx512),
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
    use std::arch::is_x86_feature_detected as has;
    // rustc's `avx512f` implies `avx2`, `fma` and `f16c`: the entry compiled
    // for it may use any of them, so the level needs all four
    if has!("avx512f") && has!("avx2") && has!("fma") && has!("f16c") {
        SimdLevel::Avx512
    } else if has!("avx2") {
        SimdLevel::Avx2
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
/// `DTSNN_SIMD`) capped at the host capability, or the detected level. Read
/// once per `per_tier!` entry, so the inner loops never touch the atomics.
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
/// benchmark's `tensor.simd_speedup` probe use to compare tiers in one
/// process.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    let prev = set_level(Some(level));
    let out = f();
    set_level(prev);
    out
}

// --------------------------------------------------------------------------
// The kernels, each dispatched once per entry (module docs, "Dispatch
// granularity"). An entry reads the active level itself — one atomic load
// amortized over a whole sample / activation buffer / row chunk.
// --------------------------------------------------------------------------

/// Defines `$name` as `$body` — a safe `#[inline(always)]` function of plain
/// loops — compiled inside an AVX-512F and an AVX2 entry function, so LLVM
/// vectorizes it 512 and 256 bits wide, and once for the baseline. The entry
/// is a plain function taking its arguments by value: behind a closure
/// handed to one generic entry, the captures were reloaded after every `f32`
/// store. For the same reason a body keeps its hot loops out of closures —
/// one that LLVM declines to inline stays a call into baseline code.
macro_rules! per_tier {
    ($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;) => {
        $(#[$doc])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f")]
                fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                match level() {
                    // SAFETY: `avx512` needs AVX-512F and the features it
                    // implies, and level() never resolves above what
                    // `detected()` found on this CPU.
                    SimdLevel::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: `avx2` needs AVX2, and level() never resolves
                    // above what `detected()` found on this CPU.
                    SimdLevel::Avx2 => return unsafe { avx2($($arg),*) },
                    SimdLevel::Scalar => {}
                }
            }
            $body($($arg),*)
        }
    };
}

per_tier! {
    /// One sample of the direct convolution at the active tier.
    pub(crate) fn conv_scatter_sample(
        input: (&[f32], &mut [u64]),
        dims: [usize; 3],
        out_hw: (usize, usize),
        w_t: &[f32],
        spec: crate::Conv2dSpec,
        tile: &mut [f32],
    ) = crate::conv::scatter_sample;
}

per_tier! {
    /// A convolution output between pixel-major rows and `NCHW`, one way or
    /// the other, at the active tier.
    pub(crate) fn conv_epilogue(dir: crate::conv::Reorder<'_>, dims: [usize; 4])
        = crate::conv::epilogue;
}

per_tier! {
    /// The convolution's weight gradient at the active tier.
    pub(crate) fn conv_weight_grad_chunk(
        input: (&[f32], &mut [u64]),
        dims: [usize; 4],
        out_hw: (usize, usize),
        gmat: &[f32],
        spec: crate::Conv2dSpec,
        dw: &mut [f32],
    ) = crate::conv::weight_grad_chunk;
}

per_tier! {
    /// One sample of the convolution's input gradient at the active tier.
    pub(crate) fn conv_input_grad_sample(
        g: &[f32],
        weight: &[f32],
        dims: [usize; 3],
        out_hw: (usize, usize),
        spec: crate::Conv2dSpec,
        scratch: (&mut [f32], &mut [usize]),
        dx: &mut [f32],
    ) = crate::conv::input_grad_sample;
}

per_tier! {
    /// `out[m,n] += a[m,k] × b[k,n]` over the rows of `out`.
    pub(crate) fn matmul_chunk(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
    ) = crate::linalg::matmul_chunk;
}

per_tier! {
    /// `out[m,n] += aᵀ × b`, `a` stored `[k, m]`.
    pub(crate) fn matmul_tn_chunk(
        a: &[f32],
        k: usize,
        m: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
    ) = crate::linalg::matmul_tn_chunk;
}

per_tier! {
    /// `out[m,n] = a[m,k] × wᵀ + bias` over the rows of `out`, `w` packed
    /// for the linear kernel; every element of `c` written.
    pub(crate) fn linear_chunk(
        a: &[f32],
        k: usize,
        w: &[f32],
        n: usize,
        bias: &[f32],
        c: &mut [f32],
    ) = crate::linalg::linear_chunk;
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
    /// membrane to carry), `s` and, when given, `pre` (the pre-reset
    /// `u_pre` a Train step keeps for BPTT), stores the nonzero share of each
    /// of the `row_densities.len()` equal rows of `s` and returns the total
    /// nonzero count — the integers [`crate::Tensor::density_rows`] and
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
        pre: Option<&mut [f32]>,
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
    mut pre: Option<&mut [f32]>,
    row_densities: &mut [f32],
) -> usize {
    let rows = row_densities.len().max(1);
    let row_len = x.len() / rows;
    assert!(
        rows * row_len == x.len()
            && (u.len(), s.len()) == (x.len(), x.len())
            && prev.is_none_or(|m| m.len() == x.len())
            && pre.as_deref().is_none_or(|q| q.len() == x.len()),
        "lif_step: buffers must be {rows} rows of one length"
    );
    let mut fired = 0;
    for r in 0..rows {
        let at = r * row_len..(r + 1) * row_len;
        let (x, u, s) = (&x[at.clone()], &mut u[at.clone()], &mut s[at.clone()]);
        let (m, q) = (prev.map(|m| &m[at.clone()]), pre.as_deref_mut().map(|q| &mut q[at]));
        let count = if p.smooth_spike.is_some() {
            lif_row_of::<true>(p, x, m, u, s, q)
        } else {
            lif_row_of::<false>(p, x, m, u, s, q)
        };
        if let Some(d) = row_densities.get_mut(r) {
            *d = count as f32 / row_len as f32;
        }
        fired += count;
    }
    fired
}

/// One instantiation of [`lif_row`] per loop-invariant choice keeps each a
/// straight vectorizable loop (tanh has no vector form and stays scalar);
/// the Eval ones (`pre = None`) never see the pre-reset store.
#[inline(always)]
fn lif_row_of<const SMOOTH: bool>(
    p: LifStep,
    x: &[f32],
    m: Option<&[f32]>,
    u: &mut [f32],
    s: &mut [f32],
    pre: Option<&mut [f32]>,
) -> usize {
    match (m, pre) {
        (Some(m), None) => lif_row::<true, SMOOTH, false>(p, x, m, u, s, &mut []),
        (None, None) => lif_row::<false, SMOOTH, false>(p, x, x, u, s, &mut []),
        (Some(m), Some(q)) => lif_row::<true, SMOOTH, true>(p, x, m, u, s, q),
        (None, Some(q)) => lif_row::<false, SMOOTH, true>(p, x, x, u, s, q),
    }
}

/// One row of [`lif_step`]: `CHARGE` from the carried membrane `m` (unread
/// on a first step), `SMOOTH` or Heaviside firing, `KEEP` the pre-reset
/// membrane in `pre` (unread otherwise).
#[inline(always)]
fn lif_row<const CHARGE: bool, const SMOOTH: bool, const KEEP: bool>(
    p: LifStep,
    x: &[f32],
    m: &[f32],
    u: &mut [f32],
    s: &mut [f32],
    pre: &mut [f32],
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
            if KEEP {
                pre[i] = up;
            }
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

/// Channels a BatchNorm Train reduction carries at once: one accumulator
/// each, so the group's serial sums are independent add chains.
const BN_GROUP: usize = 8;

/// The per-channel state a BatchNorm Train forward reads (`gamma`, `beta`,
/// `momentum`, `eps`) and updates (the running statistics).
#[derive(Debug)]
pub struct BnTrainState<'a> {
    /// Scale `γ`, one per channel.
    pub gamma: &'a [f32],
    /// Shift `β`, one per channel.
    pub beta: &'a [f32],
    /// EMA momentum of the running statistics.
    pub momentum: f32,
    /// Variance floor `ε`.
    pub eps: f32,
    /// Running mean, updated with this batch's mean.
    pub running_mean: &'a mut [f32],
    /// Running (biased) variance, updated with this batch's variance.
    pub running_var: &'a mut [f32],
}

per_tier! {
    /// BatchNorm's Train forward over `x` (`[n, c, plane]`): per channel the
    /// batch mean `Σx / m` and variance `Σ(x − mean)² / m` (`m = n·plane`,
    /// terms in `(n, plane)` order) folded into the running statistics,
    /// `inv_std = 1 / √(running_var + ε)`, then `x̂ = (x − running_mean) ·
    /// inv_std` and `y = γ·x̂ + β` in one contiguous pass. Writes every
    /// element of `inv_std`, `x_hat` and `y`.
    pub fn bn_train_forward(
        x: &[f32],
        dims: [usize; 3],
        st: BnTrainState<'_>,
        inv_std: &mut [f32],
        x_hat: &mut [f32],
        y: &mut [f32],
    ) = bn_train_forward_body;
}

#[inline(always)]
fn bn_train_forward_body(
    x: &[f32],
    [n, c, plane]: [usize; 3],
    mut st: BnTrainState<'_>,
    inv_std: &mut [f32],
    x_hat: &mut [f32],
    y: &mut [f32],
) {
    let mut c0 = 0;
    while c0 < c {
        if c0 + BN_GROUP <= c {
            bn_stats_group::<BN_GROUP>(x, [n, c, plane], c0, &mut st);
            c0 += BN_GROUP;
        } else {
            bn_stats_group::<1>(x, [n, c, plane], c0, &mut st);
            c0 += 1;
        }
    }
    for (is, &var) in inv_std[..c].iter_mut().zip(st.running_var.iter()) {
        *is = 1.0 / (var + st.eps).sqrt();
    }
    let channels = st.running_mean.iter().zip(inv_std.iter()).zip(st.gamma).zip(st.beta);
    for ni in 0..n {
        for (ci, (((&mean, &is), &g), &b)) in channels.clone().take(c).enumerate() {
            let at = (ni * c + ci) * plane;
            let (xs, xh, ys) = (&x[at..][..plane], &mut x_hat[at..][..plane], &mut y[at..][..plane]);
            for ((o, h), &xv) in ys.iter_mut().zip(xh.iter_mut()).zip(xs) {
                let v = (xv - mean) * is;
                *h = v;
                *o = g * v + b;
            }
        }
    }
}

/// The batch statistics of channels `c0..c0 + G`, folded into the running
/// ones. Each channel owns one accumulator and adds its terms in `(n,
/// plane)` order, exactly as a loop over that channel alone.
#[inline(always)]
fn bn_stats_group<const G: usize>(
    x: &[f32],
    [n, c, plane]: [usize; 3],
    c0: usize,
    st: &mut BnTrainState<'_>,
) {
    let m = (n * plane) as f32;
    let mut mean = [0.0f32; G];
    for ni in 0..n {
        let xs = &x[(ni * c + c0) * plane..][..G * plane];
        for p in 0..plane {
            for (j, acc) in mean.iter_mut().enumerate() {
                *acc += xs[j * plane + p];
            }
        }
    }
    for v in &mut mean {
        *v /= m;
    }
    let mut var = [0.0f32; G];
    for ni in 0..n {
        let xs = &x[(ni * c + c0) * plane..][..G * plane];
        for p in 0..plane {
            for (j, acc) in var.iter_mut().enumerate() {
                let d = xs[j * plane + p] - mean[j];
                *acc += d * d;
            }
        }
    }
    let keep = 1.0 - st.momentum;
    for j in 0..G {
        let ci = c0 + j;
        let v = var[j] / m;
        st.running_mean[ci] = keep * st.running_mean[ci] + st.momentum * mean[j];
        st.running_var[ci] = keep * st.running_var[ci] + st.momentum * v;
    }
}

per_tier! {
    /// BatchNorm's Train backward over `[n, c, plane]` with the statistics
    /// constant: per channel `β' += Σdy` and `γ' += Σdy·x̂` (terms in `(n,
    /// plane)` order, each sum from `+0.0`), then `dx = k·dy` (`k = γ ·
    /// inv_std`) in one contiguous pass writing every element of `dx`.
    pub fn bn_train_backward(
        dy: &[f32],
        x_hat: &[f32],
        dims: [usize; 3],
        k: &[f32],
        beta_grad: &mut [f32],
        gamma_grad: &mut [f32],
        dx: &mut [f32],
    ) = bn_train_backward_body;
}

#[inline(always)]
fn bn_train_backward_body(
    dy: &[f32],
    x_hat: &[f32],
    [n, c, plane]: [usize; 3],
    k: &[f32],
    beta_grad: &mut [f32],
    gamma_grad: &mut [f32],
    dx: &mut [f32],
) {
    let mut c0 = 0;
    while c0 < c {
        if c0 + BN_GROUP <= c {
            bn_grad_group::<BN_GROUP>(dy, x_hat, [n, c, plane], c0, beta_grad, gamma_grad);
            c0 += BN_GROUP;
        } else {
            bn_grad_group::<1>(dy, x_hat, [n, c, plane], c0, beta_grad, gamma_grad);
            c0 += 1;
        }
    }
    for ni in 0..n {
        for (ci, &kc) in k[..c].iter().enumerate() {
            let at = (ni * c + ci) * plane;
            for (d, &g) in dx[at..][..plane].iter_mut().zip(&dy[at..][..plane]) {
                *d = kc * g;
            }
        }
    }
}

/// `Σdy` and `Σdy·x̂` of channels `c0..c0 + G`, added to their gradients;
/// one accumulator pair per channel, terms in `(n, plane)` order.
#[inline(always)]
fn bn_grad_group<const G: usize>(
    dy: &[f32],
    x_hat: &[f32],
    [n, c, plane]: [usize; 3],
    c0: usize,
    beta_grad: &mut [f32],
    gamma_grad: &mut [f32],
) {
    let (mut sum_dy, mut sum_dy_xh) = ([0.0f32; G], [0.0f32; G]);
    for ni in 0..n {
        let at = (ni * c + c0) * plane;
        let (ds, hs) = (&dy[at..][..G * plane], &x_hat[at..][..G * plane]);
        for p in 0..plane {
            for j in 0..G {
                let d = ds[j * plane + p];
                sum_dy[j] += d;
                sum_dy_xh[j] += d * hs[j * plane + p];
            }
        }
    }
    for j in 0..G {
        beta_grad[c0 + j] += sum_dy[j];
        gamma_grad[c0 + j] += sum_dy_xh[j];
    }
}

per_tier! {
    /// Average pool of a `[n, c, h, w]` buffer into its `[n, c, oh, ow]`
    /// output, every element written once.
    pub(crate) fn avg_pool2d(
        src: &[f32],
        dims: [usize; 4],
        spec: crate::PoolSpec,
        out_hw: (usize, usize),
        dst: &mut [f32],
    ) = crate::pool::avg_pool2d_core;
}

per_tier! {
    /// The average pool's backward: each `[n, c, oh, ow]` gradient spread
    /// uniformly over its window of the zeroed `[n, c, h, w]` `dst`.
    pub(crate) fn avg_pool2d_grad(
        grad: &[f32],
        dims: [usize; 4],
        spec: crate::PoolSpec,
        out_hw: (usize, usize),
        dst: &mut [f32],
    ) = crate::pool::avg_pool2d_backward_core;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;
    use std::sync::Mutex;

    // Tests that flip the process-wide level override serialize here so
    // they cannot observe each other's override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn levels_to_test() -> Vec<SimdLevel> {
        SimdLevel::ALL.iter().copied().filter(|&l| l <= detected()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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
                with_level(SimdLevel::Avx512, || {
                    assert_eq!(level(), SimdLevel::Avx512.min(detected()));
                });
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
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn chunk_kernels_match_baseline_bitwise_on_unaligned_slices() {
        // Each matmul-family entry, baseline build vs every detected tier.
        // Extents straddle the linear kernel's 64-input scan words and
        // 16-column group and the vector widths; every operand starts one
        // float into its buffer (a wide build must not assume alignment).
        // `a` carries zeros and ones so the skips and both row-add forms run.
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let mut rng = TensorRng::seed_from(401);
        for k in [0usize, 1, 63, 64, 65, 129] {
            for n in [0usize, 1, 15, 16, 17, 33] {
                for m in [0usize, 1, 3] {
                    let mut a = randn(1 + m * k, &mut rng); // read as [m, k] and as [k, m]
                    a.iter_mut().step_by(3).for_each(|v| *v = 0.0);
                    a.iter_mut().skip(1).step_by(5).for_each(|v| *v = 1.0);
                    let b = randn(1 + k * n, &mut rng); // read as [k, n] and as [n, k]
                    let groups = n.div_ceil(crate::linalg::NT_COLS);
                    let mut packed = vec![0.0f32; 1 + groups * k * crate::linalg::NT_COLS];
                    crate::linalg::pack_linear(&b[1..], n, k, &mut packed[1..]);
                    let bias = randn(1 + n, &mut rng);
                    let c0 = randn(1 + m * n, &mut rng);
                    let run = || {
                        let (a, b, w) = (&a[1..], &b[1..], &packed[1..]);
                        let (mut mm, mut tn, mut nt) = (c0.clone(), c0.clone(), c0.clone());
                        matmul_chunk(a, k, b, n, &mut mm[1..]);
                        matmul_tn_chunk(a, k, m, b, n, &mut tn[1..]);
                        linear_chunk(a, k, w, n, &bias[1..], &mut nt[1..]);
                        [bits(&mm), bits(&tn), bits(&nt)]
                    };
                    let want = with_level(SimdLevel::Scalar, run);
                    for lvl in levels_to_test() {
                        assert_eq!(want, with_level(lvl, run), "k={k} n={n} m={m} {lvl:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn bn_affine_matches_scalar_bitwise_including_nonfinite() {
        // (the LIF step is pinned against the plain-tensor oracle of
        // `LifNeuron` at every tier in dtsnn-snn's tests/lif_step.rs, the
        // BatchNorm Train kernels in tests/train_kernels.rs)
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
                bits(&bn)
            };
            let scalar = with_level(SimdLevel::Scalar, run);
            for lvl in levels_to_test() {
                assert_eq!(scalar, with_level(lvl, run), "bn n={n} {lvl:?}");
            }
        }
    }

    /// The general pooling loop every build of the pool body must equal.
    fn pool_reference(x: &[f32], [n, c, h, w]: [usize; 4], k: usize, s: usize) -> Vec<f32> {
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let inv = 1.0 / (k * k) as f32;
        let mut out = Vec::with_capacity(n * c * oh * ow);
        for p in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += x[(p * h + oy * s + ky) * w + ox * s + kx];
                        }
                    }
                    out.push(acc * inv);
                }
            }
        }
        out
    }

    #[test]
    fn avg_pool_matches_the_general_loop_bitwise_at_every_level() {
        // Windows k ∈ {1, 2, 3} × stride {1, 2, 3} (2 × 2 is the literal
        // instantiation), odd extents that drop the last row / column, 0, 1
        // and 15 planes, a 67-wide row; -0.0, NaN and ±inf among the taps
        // (NaN canonicalised, its payload is not pinned).
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let canon = |v: &[f32]| -> Vec<u32> {
            v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
        };
        let special = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = TensorRng::seed_from(406);
        let mut ws = crate::Workspace::new();
        for (k, stride) in (1..=3).flat_map(|k| (1..=3).map(move |s| (k, s))) {
            let spec = crate::PoolSpec::new(k, stride).unwrap();
            for dims in [[0, 3, 5, 5], [1, 1, 5, 7], [3, 5, 6, 9], [1, 15, 7, 67]] {
                let mut x = randn(dims.iter().product(), &mut rng);
                for (i, v) in x.iter_mut().enumerate().filter(|(i, _)| i % 11 == 3) {
                    *v = special[(i / 11) % special.len()];
                }
                let want = canon(&pool_reference(&x, dims, k, stride));
                let x = crate::Tensor::from_vec(x, &dims).unwrap();
                let case = format!("k={k} s={stride} {dims:?}");
                for lvl in levels_to_test() {
                    let plain = with_level(lvl, || crate::avg_pool2d(&x, &spec)).unwrap();
                    let pooled = with_level(lvl, || crate::avg_pool2d_ws(&x, &spec, &mut ws));
                    let pooled = pooled.unwrap();
                    assert_eq!(want, canon(plain.data()), "{case} {lvl:?}");
                    assert_eq!(want, canon(pooled.data()), "{case} {lvl:?} (ws)");
                    ws.recycle_tensor(pooled);
                }
            }
            // the accumulator starts at +0.0, so an all -0.0 window is +0.0
            let zeros = crate::Tensor::from_vec(vec![-0.0; 2 * 5 * 7], &[1, 2, 5, 7]).unwrap();
            for lvl in levels_to_test() {
                let pooled = with_level(lvl, || crate::avg_pool2d(&zeros, &spec).unwrap());
                assert!(pooled.data().iter().all(|v| v.to_bits() == 0), "k={k} s={stride} {lvl:?}");
            }
        }
    }

    /// The scalar epilogue [`conv_epilogue`] replaced, verbatim: tiles →
    /// NCHW one pixel at a time, each channel's store `oh·ow` floats apart.
    fn rows_to_nchw(
        src: &[f32],
        bias: Option<&[f32]>,
        [n, c, oh, ow]: [usize; 4],
        (left, right): (usize, usize),
        dst: &mut [f32],
    ) {
        let (plane, sample_len, tile_row) = (oh * ow, c * oh * ow, (left + ow + right) * c);
        if n == 0 || sample_len == 0 {
            return;
        }
        for (ni, sample) in dst.chunks_mut(sample_len).enumerate() {
            let tile = &src[ni * oh * tile_row..][..oh * tile_row];
            for (oy, tile_row) in tile.chunks_exact(tile_row).enumerate() {
                let pixels = tile_row[left * c..][..ow * c].chunks_exact(c);
                for (p, row) in (oy * ow..).zip(pixels) {
                    match bias {
                        Some(b) => {
                            for (ci, (&v, &bv)) in row.iter().zip(b).enumerate() {
                                sample[ci * plane + p] = v + bv;
                            }
                        }
                        None => {
                            for (ci, &v) in row.iter().enumerate() {
                                sample[ci * plane + p] = v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The scalar backward reorder the reversed [`conv_epilogue`] replaced,
    /// verbatim: NCHW → `[n*oh*ow, c]` rows.
    fn nchw_to_rows(src: &[f32], [n, c, oh, ow]: [usize; 4], out: &mut [f32]) {
        let sample_len = oh * ow * c;
        if n == 0 || sample_len == 0 {
            return;
        }
        for (ni, sample) in out.chunks_mut(sample_len).enumerate() {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        sample[((oy * ow + ox) * c) + ci] =
                            src[((ni * c + ci) * oh + oy) * ow + ox];
                    }
                }
            }
        }
    }

    #[test]
    fn conv_epilogue_matches_the_scalar_loops_bitwise_at_every_level() {
        // Both directions against the loops they replaced, compared to_bits:
        // every literal (c_out, ow) instantiation and the runtime one, 0, 1
        // and 5 samples, no margins and the forward tile's spare columns.
        // The tiles carry -0.0, ±inf and NaNs with payloads (quiet, signaling,
        // negative): with a bias each is `v + b` as before; without one each
        // is copied, so a -0.0 or a signaling NaN keeps its bits.
        use crate::conv::Reorder;
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let special = [
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_0042),
        ];
        let with_specials = |mut v: Vec<f32>| {
            for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 7 == 2) {
                *x = special[(i / 7) % special.len()];
            }
            v
        };
        let mut rng = TensorRng::seed_from(407);
        for c in [1usize, 16, 32, 35, 64] {
            for ow in [1usize, 4, 5, 8, 16, 17] {
                for (n, oh) in [(0usize, 3usize), (1, 1), (1, 3), (5, 2)] {
                    let dims = [n, c, oh, ow];
                    let len = n * c * oh * ow;
                    // a finite bias (a NaN meeting a NaN keeps either's
                    // payload), with -0.0 and ±inf among it
                    let mut b = randn(c, &mut rng);
                    for (i, v) in b.iter_mut().enumerate().filter(|(i, _)| i % 5 == 1) {
                        *v = [-0.0, f32::INFINITY, f32::NEG_INFINITY][(i / 5) % 3];
                    }
                    for margins @ (left, right) in [(0usize, 0usize), (1, 1), (0, 1)] {
                        let tile_len = n * oh * (left + ow + right) * c;
                        let tiles = with_specials(randn(tile_len, &mut rng));
                        for bias in [None, Some(&b[..])] {
                            let mut want = vec![0.0f32; len];
                            rows_to_nchw(&tiles, bias, dims, margins, &mut want);
                            for lvl in levels_to_test() {
                                // NaN-filled, so a skipped element shows
                                let mut got = vec![f32::NAN; len];
                                let nchw = &mut got[..];
                                let dir =
                                    Reorder::TilesToNchw { tiles: &tiles, bias, margins, nchw };
                                with_level(lvl, || conv_epilogue(dir, dims));
                                let case = (dims, margins, bias.is_some(), lvl);
                                assert_eq!(bits(&want), bits(&got), "{case:?}");
                            }
                        }
                    }
                    let planes = with_specials(randn(len, &mut rng));
                    let mut want = vec![0.0f32; len];
                    nchw_to_rows(&planes, dims, &mut want);
                    for lvl in levels_to_test() {
                        let mut got = vec![f32::NAN; len];
                        let dir = Reorder::NchwToRows { nchw: &planes, rows: &mut got };
                        with_level(lvl, || conv_epilogue(dir, dims));
                        assert_eq!(bits(&want), bits(&got), "rows {dims:?} {lvl:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lif_step")]
    fn lif_step_rejects_buffers_that_do_not_split_into_whole_rows() {
        let p = LifStep { tau: 0.5, v_th: 1.0, soft_reset: false, smooth_spike: None };
        let (mut u, mut s) = ([0.0; 7], [0.0; 7]);
        lif_step(p, &[0.0; 7], None, &mut u, &mut s, None, &mut [0.0; 2]);
    }

    #[test]
    fn kernel_families_match_scalar_bitwise() {
        // Every public matmul entry point, dense and spike operands,
        // forced-scalar vs each vector tier — all compared to_bits.
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
        let run = || {
            let mm = a.matmul(&b).unwrap();
            let tn = b.matmul_tn(&bt.transpose2d().unwrap()).unwrap();
            let nt = a.matmul_nt(&bt).unwrap();
            let mm_spikes = spikes.matmul(&b).unwrap();
            let nt_spikes = spikes.matmul_nt(&bt).unwrap();
            [mm, tn, nt, mm_spikes, nt_spikes].map(|t| bits(t.data()))
        };
        let want = with_level(SimdLevel::Scalar, run);
        for lvl in levels_to_test() {
            assert_eq!(want, with_level(lvl, run), "{lvl:?}");
        }
    }
}
