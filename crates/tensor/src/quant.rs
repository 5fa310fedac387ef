//! The IMC deployment grid of crossbar weights.
//!
//! Crossbar-deployed weights live on a signed `weight_bits` grid: with
//! `scale = max |w|` and `levels = 2^(bits-1)`, every weight becomes an
//! integer code `q ∈ [-levels, levels-1]` times the step `Δ = scale/levels`.
//! [`quantize_dequantize`] is the one definition of that grid: the IMC fault
//! injector's noiseless read reduces to it bitwise, so every model of the
//! deployed weights agrees with it.

/// Quantize-then-dequantize one weight on the signed `weight_bits` grid
/// with full-scale magnitude `scale` (the ideal, noise-free deployment).
/// Returns `0.0` for a non-positive scale.
pub fn quantize_dequantize(w: f32, scale: f32, weight_bits: u32) -> f32 {
    if scale <= 0.0 {
        return 0.0;
    }
    let levels = 1i64 << (weight_bits - 1);
    let delta = scale / levels as f32;
    let q = ((w / delta).round() as i64).clamp(-levels, levels - 1);
    q as f32 * delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tensor, TensorRng};

    #[test]
    fn snapped_weights_are_a_fixed_point_of_the_grid() {
        // unfaulted weights stay on-grid: re-snapping a snapped weight on
        // the *same* grid (same scale) changes nothing. The scale must be
        // held fixed: the positive extremum clamps to `levels-1`, so
        // re-deriving `max |w|` from the snapped weights would define a
        // slightly different grid.
        let mut rng = TensorRng::seed_from(202);
        let w = Tensor::randn(&[5, 9], 0.0, 1.0, &mut rng);
        let scale = w.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for bits in [2u32, 4, 8] {
            for &v in w.data() {
                let snapped = quantize_dequantize(v, scale, bits);
                let again = quantize_dequantize(snapped, scale, bits);
                assert_eq!(again.to_bits(), snapped.to_bits(), "bits={bits} v={v}");
            }
        }
        assert_eq!(quantize_dequantize(0.7, 0.0, 8), 0.0, "a zero scale snaps to zero");
    }
}
