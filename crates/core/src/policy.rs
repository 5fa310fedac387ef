//! Exit policies: when is the accumulated output confident enough to stop?
//!
//! The paper's policy is normalized-entropy thresholding (Eqs. 7–8). Two
//! standard early-exit confidence measures — maximum softmax probability and
//! top-2 margin — are provided for the extension ablation; all three share
//! the [`ExitPolicy::should_exit`] interface.

use crate::{CoreError, Result};
use dtsnn_imc::exact_normalized_entropy;

/// A confidence rule mapping a probability vector to an exit decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitPolicy {
    /// Exit when normalized entropy `E_f(x) < θ` (Eq. 8). `θ ∈ (0, 1]`;
    /// larger θ exits earlier.
    Entropy {
        /// Entropy threshold θ.
        theta: f32,
    },
    /// Exit when `max_i π(y_i|x) > p`. `p ∈ [0, 1)`; larger p exits later.
    MaxProb {
        /// Probability threshold.
        threshold: f32,
    },
    /// Exit when the gap between the top-2 probabilities exceeds `m`.
    Margin {
        /// Margin threshold in `[0, 1)`.
        threshold: f32,
    },
}

impl ExitPolicy {
    /// Entropy policy with threshold `theta` (the paper's rule).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `θ ∈ (0, 1]`.
    pub fn entropy(theta: f32) -> Result<Self> {
        if !(theta > 0.0 && theta <= 1.0) {
            return Err(CoreError::InvalidConfig(format!("theta must be in (0,1], got {theta}")));
        }
        Ok(ExitPolicy::Entropy { theta })
    }

    /// Max-probability policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `threshold ∈ [0, 1)`.
    pub fn max_prob(threshold: f32) -> Result<Self> {
        if !(0.0..1.0).contains(&threshold) {
            return Err(CoreError::InvalidConfig(format!(
                "max-prob threshold must be in [0,1), got {threshold}"
            )));
        }
        Ok(ExitPolicy::MaxProb { threshold })
    }

    /// Top-2 margin policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `threshold ∈ [0, 1)`.
    pub fn margin(threshold: f32) -> Result<Self> {
        if !(0.0..1.0).contains(&threshold) {
            return Err(CoreError::InvalidConfig(format!(
                "margin threshold must be in [0,1), got {threshold}"
            )));
        }
        Ok(ExitPolicy::Margin { threshold })
    }

    /// The confidence score this policy thresholds, for diagnostics:
    /// entropy (lower = more confident) or probability/margin (higher =
    /// more confident).
    pub fn score(&self, probabilities: &[f32]) -> f32 {
        match self {
            ExitPolicy::Entropy { .. } => exact_normalized_entropy(probabilities),
            // total_cmp-based reductions: `f32::max` and `>` silently drop
            // NaN operands, which would let a poisoned probability vector
            // masquerade as confident. Under total order NaN ranks above
            // every real, so a NaN input surfaces as a NaN score and
            // `should_exit` (a `>` comparison) stays false — the safe
            // full-window fallback.
            ExitPolicy::MaxProb { .. } => {
                probabilities.iter().copied().max_by(f32::total_cmp).unwrap_or(0.0)
            }
            ExitPolicy::Margin { .. } => {
                let (mut top, mut second) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
                for &p in probabilities {
                    if p.total_cmp(&top).is_gt() {
                        second = top;
                        top = p;
                    } else if p.total_cmp(&second).is_gt() {
                        second = p;
                    }
                }
                // degenerate (< 2 entry) inputs fall back to the historical
                // floor of zero; a NaN top still propagates into the score
                top - second.max(0.0)
            }
        }
    }

    /// Whether inference should terminate given the current accumulated
    /// class probabilities.
    pub fn should_exit(&self, probabilities: &[f32]) -> bool {
        self.fires(self.score(probabilities))
    }

    /// The threshold test of [`ExitPolicy::should_exit`] on a score already
    /// computed by [`ExitPolicy::score`] (Eq. 8 for the entropy policy). A
    /// NaN score never fires.
    pub fn fires(&self, score: f32) -> bool {
        match *self {
            ExitPolicy::Entropy { theta } => score < theta,
            ExitPolicy::MaxProb { threshold } | ExitPolicy::Margin { threshold } => {
                score > threshold
            }
        }
    }

    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            ExitPolicy::Entropy { .. } => "entropy",
            ExitPolicy::MaxProb { .. } => "max-prob",
            ExitPolicy::Margin { .. } => "margin",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(ExitPolicy::entropy(0.0).is_err());
        assert!(ExitPolicy::entropy(1.5).is_err());
        assert!(ExitPolicy::entropy(0.3).is_ok());
        assert!(ExitPolicy::max_prob(1.0).is_err());
        assert!(ExitPolicy::max_prob(0.9).is_ok());
        assert!(ExitPolicy::margin(-0.1).is_err());
        assert!(ExitPolicy::margin(0.5).is_ok());
    }

    #[test]
    fn entropy_policy_orders_by_confidence() {
        let p = ExitPolicy::entropy(0.5).unwrap();
        let confident = [0.9, 0.05, 0.03, 0.02];
        let uncertain = [0.3, 0.3, 0.2, 0.2];
        assert!(p.score(&confident) < p.score(&uncertain));
        assert!(p.should_exit(&confident));
        assert!(!p.should_exit(&uncertain));
    }

    #[test]
    fn larger_theta_exits_on_less_confident_outputs() {
        let probs = [0.6, 0.2, 0.1, 0.1];
        let strict = ExitPolicy::entropy(0.2).unwrap();
        let lax = ExitPolicy::entropy(0.95).unwrap();
        assert!(!strict.should_exit(&probs));
        assert!(lax.should_exit(&probs));
    }

    #[test]
    fn max_prob_policy() {
        let p = ExitPolicy::max_prob(0.8).unwrap();
        assert!(p.should_exit(&[0.85, 0.1, 0.05]));
        assert!(!p.should_exit(&[0.6, 0.3, 0.1]));
        assert_eq!(p.score(&[0.6, 0.3, 0.1]), 0.6);
    }

    #[test]
    fn margin_policy_uses_top_two_gap() {
        let p = ExitPolicy::margin(0.3).unwrap();
        assert!((p.score(&[0.6, 0.25, 0.15]) - 0.35).abs() < 1e-6);
        assert!(p.should_exit(&[0.6, 0.25, 0.15]));
        assert!(!p.should_exit(&[0.45, 0.44, 0.11]));
    }

    #[test]
    fn uniform_distribution_never_exits_entropy() {
        // entropy of uniform = 1 which is never < θ ≤ 1
        let p = ExitPolicy::entropy(1.0).unwrap();
        assert!(!p.should_exit(&[0.25; 4]));
    }

    #[test]
    fn nan_probabilities_poison_the_score_and_never_exit() {
        let poisoned = [0.9, f32::NAN, 0.05];
        let max_prob = ExitPolicy::max_prob(0.1).unwrap();
        let margin = ExitPolicy::margin(0.1).unwrap();
        // pre-fix, fold(0.0, f32::max) and `>` dropped the NaN and these
        // vectors looked maximally confident
        assert!(max_prob.score(&poisoned).is_nan());
        assert!(margin.score(&poisoned).is_nan());
        assert!(!max_prob.should_exit(&poisoned));
        assert!(!margin.should_exit(&poisoned));
        // all-NaN input behaves the same way
        assert!(!max_prob.should_exit(&[f32::NAN; 3]));
        assert!(!margin.should_exit(&[f32::NAN; 3]));
        // finite inputs keep their historical scores
        assert_eq!(max_prob.score(&[0.6, 0.3, 0.1]), 0.6);
        assert!((margin.score(&[0.6, 0.25, 0.15]) - 0.35).abs() < 1e-6);
    }

    #[test]
    fn names_distinct() {
        let names = [
            ExitPolicy::entropy(0.5).unwrap().name(),
            ExitPolicy::max_prob(0.5).unwrap().name(),
            ExitPolicy::margin(0.5).unwrap().name(),
        ];
        let mut d = names.to_vec();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 3);
    }
}
