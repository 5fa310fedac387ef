//! Pluggable kernel-backend seam: per-operand dispatch between the dense,
//! CSR, bitset and quantized kernel families.
//!
//! Every matmul/conv entry point used to make a scalar decision — density
//! versus [`crate::sparse::density_threshold`]. This module replaces that
//! with a single [`BackendKind`] choice made from the operand's **measured
//! density and binarity** ([`crate::Tensor::spike_stats`]):
//!
//! | choice | condition (auto) | numerics |
//! |---|---|---|
//! | [`BackendKind::Dense`] | density above threshold | reference (conformance oracle) |
//! | [`BackendKind::Csr`] | sparse, non-binary | bitwise identical to dense |
//! | [`BackendKind::Bitset`] | sparse, binary | bitwise identical to dense |
//! | [`BackendKind::Quantized`] | layer opted in / forced | own goldens (grid snap) |
//!
//! The density threshold keeps its existing knobs (`DTSNN_SPARSE_THRESHOLD`
//! env, [`crate::sparse::with_density_threshold`] guard), so every
//! pre-existing golden and oracle sees the same dispatch *inputs* — only
//! the sparse branch now picks the bit-packed kernels for binary operands,
//! which is bitwise neutral by the [`crate::bitset`] argument.
//!
//! The f32 **convolution forward** sits outside the seam: the three f32
//! families were bitwise equal there, and one direct spike-scatter kernel
//! ([`crate::conv2d_ws`], [`crate::ConvPlan`]) replaced all three. A conv
//! layer still *reports* the family its input's density and binarity select
//! (from the counts the kernel's own scan produces), and the im2col
//! reference [`crate::conv2d`] still dispatches through
//! [`crate::Tensor::matmul`]; only the quantized choice changes which
//! convolution code runs.
//!
//! # Forcing a backend
//!
//! Tests and benches can pin the choice process-wide with [`set_backend`] /
//! [`with_backend`] or the `DTSNN_BACKEND` environment variable
//! (`dense|csr|bitset|quantized|auto`, read once, malformed values warn
//! once and fall back to auto). Forcing `bitset` on a non-binary operand
//! silently resolves to `csr` — the two are bitwise identical, so the
//! fallback can never change a result. Forcing `quantized` is honored at
//! the **layer** level (layers own the weight cache); the raw tensor entry
//! points resolve it to the auto rule since they have no quantized weights
//! to use.

use crate::conv::{conv2d_ws, conv2d_ws_quant};
use crate::quant::QuantizedWeights;
use crate::{sparse, Conv2dSpec, Result, Tensor, Workspace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default grid resolution for a forced quantized run when the layer was
/// not explicitly quantized (matches `imc::HardwareConfig::weight_bits`).
pub const DEFAULT_QUANT_BITS: u32 = 8;

/// The four kernel families a layer forward can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Cache-blocked dense f32 kernels — the conformance oracle.
    Dense,
    /// Event-driven CSR gather kernels ([`crate::SpikeMatrix`]).
    Csr,
    /// Bit-packed binary kernels ([`crate::BitMatrix`]).
    Bitset,
    /// Int8 weights with i32 accumulation ([`crate::QuantizedWeights`]).
    Quantized,
}

impl BackendKind {
    /// All kinds, in dispatch-preference order.
    pub const ALL: [BackendKind; 4] =
        [BackendKind::Dense, BackendKind::Csr, BackendKind::Bitset, BackendKind::Quantized];

    /// Stable lowercase name (used in trace contexts and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Csr => "csr",
            BackendKind::Bitset => "bitset",
            BackendKind::Quantized => "quantized",
        }
    }

    fn to_index(self) -> usize {
        match self {
            BackendKind::Dense => 1,
            BackendKind::Csr => 2,
            BackendKind::Bitset => 3,
            BackendKind::Quantized => 4,
        }
    }

    fn from_index(i: usize) -> Option<BackendKind> {
        match i {
            1 => Some(BackendKind::Dense),
            2 => Some(BackendKind::Csr),
            3 => Some(BackendKind::Bitset),
            4 => Some(BackendKind::Quantized),
            _ => None,
        }
    }
}

// Packed override: 0 = none, otherwise BackendKind::to_index.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_BACKEND: OnceLock<Option<BackendKind>> = OnceLock::new();

/// Parses a `DTSNN_BACKEND` value. `Ok(None)` means explicit auto dispatch;
/// `Err(())` flags a malformed value for the caller to warn about.
pub(crate) fn parse_backend(raw: &str) -> std::result::Result<Option<BackendKind>, ()> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(None),
        "dense" => Ok(Some(BackendKind::Dense)),
        "csr" | "sparse" => Ok(Some(BackendKind::Csr)),
        "bitset" => Ok(Some(BackendKind::Bitset)),
        "quantized" | "quant" | "int8" => Ok(Some(BackendKind::Quantized)),
        _ => Err(()),
    }
}

/// The forced backend, if any (process-wide override → `DTSNN_BACKEND`).
pub fn forced() -> Option<BackendKind> {
    let packed = OVERRIDE.load(Ordering::Relaxed);
    if packed != 0 {
        return BackendKind::from_index(packed);
    }
    *ENV_BACKEND.get_or_init(|| match std::env::var("DTSNN_BACKEND") {
        Ok(v) => match parse_backend(&v) {
            Ok(kind) => kind,
            Err(()) => {
                eprintln!(
                    "dtsnn: warning: DTSNN_BACKEND={v:?} is not one of \
                     dense|csr|bitset|quantized|auto; using auto dispatch"
                );
                None
            }
        },
        Err(_) => None,
    })
}

/// Installs a process-wide backend override; `None` restores auto/env
/// dispatch. Returns the previous override.
pub fn set_backend(kind: Option<BackendKind>) -> Option<BackendKind> {
    let packed = kind.map_or(0, BackendKind::to_index);
    BackendKind::from_index(OVERRIDE.swap(packed, Ordering::Relaxed))
}

/// Runs `f` with the backend pinned to `kind`, restoring the previous
/// override afterwards — the scoped guard tests and benches use to force a
/// whole forward pass down one kernel family.
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    let prev = set_backend(Some(kind));
    let out = f();
    set_backend(prev);
    out
}

fn auto(density: f32, binary: bool) -> BackendKind {
    if density <= sparse::density_threshold() {
        if binary {
            BackendKind::Bitset
        } else {
            BackendKind::Csr
        }
    } else {
        BackendKind::Dense
    }
}

/// Backend choice for a raw kernel call on an operand with the given
/// measured density and binarity. Never returns
/// [`BackendKind::Quantized`] — a forced quantized run resolves to the
/// auto rule here because raw tensor ops carry no quantized weight cache;
/// a forced bitset run on a non-binary operand resolves to CSR (bitwise
/// identical).
pub fn choose_kernel(density: f32, binary: bool) -> BackendKind {
    match forced() {
        Some(BackendKind::Bitset) if !binary => BackendKind::Csr,
        Some(BackendKind::Quantized) | None => auto(density, binary),
        Some(kind) => kind,
    }
}

/// Whether a layer forward takes the quantized family: when it is forced,
/// or when the layer has opted into quantization (`opted_in`) and nothing is
/// forced. Independent of the operand, so a layer can decide it before its
/// kernel has scanned the input.
pub fn wants_quantized(opted_in: bool) -> bool {
    match forced() {
        Some(kind) => kind == BackendKind::Quantized,
        None => opted_in,
    }
}

/// Backend choice for a layer forward: [`BackendKind::Quantized`] when
/// [`wants_quantized`], otherwise [`choose_kernel`].
pub fn choose_layer(density: f32, binary: bool, quantized: bool) -> BackendKind {
    if wants_quantized(quantized) {
        BackendKind::Quantized
    } else {
        choose_kernel(density, binary)
    }
}

/// Object-safe facade over one kernel family. The trait exists for benches
/// and conformance harnesses that want to hold backends as values; the hot
/// layer paths dispatch on [`BackendKind`] directly and stay
/// allocation-free.
pub trait KernelBackend: Send + Sync {
    /// Which family this backend runs.
    fn kind(&self) -> BackendKind;

    /// `a[m,k] × b[k,n]` through this family's kernels.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor>;

    /// `aᵀ[k,m] × b[k,n]` through this family's kernels.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul_tn`].
    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Result<Tensor>;

    /// `a[m,k] × bᵀ[n,k]` through this family's kernels.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul_nt`].
    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Result<Tensor>;

    /// Workspace-backed convolution forward: the one direct kernel for
    /// every f32 family, the integer kernel for the quantized one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::conv2d_ws`].
    fn conv2d_ws(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
        ws: &mut Workspace,
    ) -> Result<Tensor>;
}

/// Forces the f32 entry points down one family via the scoped override.
struct ForcedBackend(BackendKind);

impl KernelBackend for ForcedBackend {
    fn kind(&self) -> BackendKind {
        self.0
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        with_backend(self.0, || a.matmul(b))
    }

    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        with_backend(self.0, || a.matmul_tn(b))
    }

    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        with_backend(self.0, || a.matmul_nt(b))
    }

    fn conv2d_ws(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        with_backend(self.0, || conv2d_ws(input, weight, bias, spec, ws))
    }
}

/// Quantizes the weight operand on the fly at a fixed bit width. The
/// integer fast path covers the shapes where weights appear in `[n_out, k]`
/// layout (`matmul_nt`, conv); `matmul`/`matmul_tn` run the f32 kernels
/// over the on-grid dequantized weights, which carries the same quantized
/// semantics with per-term f32 rounding. Layers cache their
/// [`QuantizedWeights`] instead of re-quantizing per call.
struct QuantBackend {
    bits: u32,
}

impl KernelBackend for QuantBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Quantized
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let qw = QuantizedWeights::from_tensor(b, self.bits)?;
        a.matmul(qw.dequantized())
    }

    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let qw = QuantizedWeights::from_tensor(b, self.bits)?;
        a.matmul_tn(qw.dequantized())
    }

    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let qw = QuantizedWeights::from_tensor(b, self.bits)?;
        qw.matmul_nt(a)
    }

    fn conv2d_ws(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        let qw = QuantizedWeights::from_tensor(weight, self.bits)?;
        conv2d_ws_quant(input, &qw, bias, spec, ws)
    }
}

/// A boxed backend of the given kind ([`DEFAULT_QUANT_BITS`] for
/// quantized).
pub fn kernel_backend(kind: BackendKind) -> Box<dyn KernelBackend> {
    match kind {
        BackendKind::Quantized => Box::new(QuantBackend { bits: DEFAULT_QUANT_BITS }),
        other => Box::new(ForcedBackend(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parallel, TensorRng};
    use std::sync::Mutex;

    // Tests that mutate the process-wide override serialize on this lock.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn bits_of(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parse_accepts_names_and_rejects_garbage() {
        assert_eq!(parse_backend("dense"), Ok(Some(BackendKind::Dense)));
        assert_eq!(parse_backend(" CSR "), Ok(Some(BackendKind::Csr)));
        assert_eq!(parse_backend("sparse"), Ok(Some(BackendKind::Csr)));
        assert_eq!(parse_backend("bitset"), Ok(Some(BackendKind::Bitset)));
        assert_eq!(parse_backend("int8"), Ok(Some(BackendKind::Quantized)));
        assert_eq!(parse_backend("auto"), Ok(None));
        assert_eq!(parse_backend(""), Ok(None));
        assert_eq!(parse_backend("fast"), Err(()));
        assert_eq!(parse_backend("0.5"), Err(()));
        assert_eq!(parse_backend("bit set"), Err(()));
    }

    #[test]
    fn override_guard_shadows_and_restores() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        assert_eq!(set_backend(None), None);
        with_backend(BackendKind::Bitset, || {
            assert_eq!(forced(), Some(BackendKind::Bitset));
            with_backend(BackendKind::Dense, || {
                assert_eq!(forced(), Some(BackendKind::Dense));
            });
            assert_eq!(forced(), Some(BackendKind::Bitset));
        });
        assert_eq!(set_backend(None), None);
    }

    #[test]
    fn auto_rule_follows_density_and_binarity() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        sparse::with_density_threshold(0.25, || {
            assert_eq!(choose_kernel(0.1, true), BackendKind::Bitset);
            assert_eq!(choose_kernel(0.1, false), BackendKind::Csr);
            assert_eq!(choose_kernel(0.9, true), BackendKind::Dense);
            assert_eq!(choose_kernel(0.9, false), BackendKind::Dense);
        });
    }

    #[test]
    fn forced_bitset_on_non_binary_falls_back_to_csr() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        with_backend(BackendKind::Bitset, || {
            assert_eq!(choose_kernel(0.9, true), BackendKind::Bitset);
            assert_eq!(choose_kernel(0.1, false), BackendKind::Csr);
            assert_eq!(choose_layer(0.1, false, false), BackendKind::Csr);
        });
    }

    #[test]
    fn quantized_is_layer_level_only() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        with_backend(BackendKind::Quantized, || {
            // raw kernels resolve to the auto rule…
            assert_eq!(choose_kernel(0.1, true), BackendKind::Bitset);
            assert_eq!(choose_kernel(0.9, false), BackendKind::Dense);
            // …layers honor the force
            assert_eq!(choose_layer(0.9, false, false), BackendKind::Quantized);
        });
        // opted-in layers quantize without a force
        assert_eq!(choose_layer(0.9, false, true), BackendKind::Quantized);
        assert_eq!(choose_layer(0.9, false, false), BackendKind::Dense);
    }

    #[test]
    fn trait_backends_agree_bitwise_except_quantized() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let mut rng = TensorRng::seed_from(301);
        let mut a = Tensor::zeros(&[18, 40]);
        for v in a.data_mut().iter_mut() {
            if rng.bernoulli(0.2) {
                *v = 1.0;
            }
        }
        let b = Tensor::randn(&[40, 11], 0.0, 1.0, &mut rng);
        let bt = Tensor::randn(&[11, 40], 0.0, 1.0, &mut rng);
        for threads in [1, 4] {
            parallel::with_threads(threads, || {
                let dense = kernel_backend(BackendKind::Dense);
                let want_mm = bits_of(&dense.matmul(&a, &b).unwrap());
                let want_nt = bits_of(&dense.matmul_nt(&a, &bt).unwrap());
                for kind in [BackendKind::Csr, BackendKind::Bitset] {
                    let be = kernel_backend(kind);
                    assert_eq!(be.kind(), kind);
                    assert_eq!(want_mm, bits_of(&be.matmul(&a, &b).unwrap()), "{kind:?} mm");
                    assert_eq!(want_nt, bits_of(&be.matmul_nt(&a, &bt).unwrap()), "{kind:?} nt");
                }
                // quantized: deterministic and reproducible, not bitwise-dense
                let qb = kernel_backend(BackendKind::Quantized);
                let q1 = bits_of(&qb.matmul_nt(&a, &bt).unwrap());
                let q2 = bits_of(&qb.matmul_nt(&a, &bt).unwrap());
                assert_eq!(q1, q2, "quantized must be reproducible");
            });
        }
    }
}
