//! Threshold sweeps: the accuracy–EDP trade-off curves of Figs. 5 and 7.

use crate::energy_link::HardwareProfile;
use crate::harness::{DynamicEvaluation, StaticEvaluation};
use crate::inference::DynamicInference;
use crate::policy::ExitPolicy;
use crate::{CoreError, Result};
use dtsnn_snn::Snn;
use dtsnn_tensor::Tensor;

/// One operating point of the accuracy–efficiency trade-off.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Point label (`"static T=2"` or `"θ=0.10"`).
    pub label: String,
    /// Entropy threshold for DT-SNN points, `None` for static points.
    pub theta: Option<f32>,
    /// Top-1 accuracy.
    pub accuracy: f32,
    /// Mean timesteps per inference.
    pub avg_timesteps: f32,
    /// Total inference energy, pJ (dataset-average).
    pub energy_pj: f64,
    /// Energy-delay product, pJ·ns (dataset-average).
    pub edp: f64,
    /// T̂ distribution (empty for static points).
    pub timestep_distribution: Vec<f32>,
}

/// Sweeps entropy thresholds and static budgets over one trained network,
/// producing every point of a Fig. 5 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSweep {
    /// Static SNN points at `T = 1..=max_timesteps`.
    pub static_points: Vec<SweepPoint>,
    /// DT-SNN points, one per swept threshold.
    pub dynamic_points: Vec<SweepPoint>,
}

impl ThresholdSweep {
    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for empty threshold lists or
    /// mismatched data, and propagates evaluation errors.
    pub fn run(
        network: &mut Snn,
        frames: &[Vec<Tensor>],
        labels: &[usize],
        thetas: &[f32],
        max_timesteps: usize,
        profile: &HardwareProfile,
    ) -> Result<Self> {
        if thetas.is_empty() {
            return Err(CoreError::BadInput("no thresholds to sweep".into()));
        }
        // One static pass measures accuracy at every budget and the spike
        // activity that drives the energy model.
        let static_eval = StaticEvaluation::run(network, frames, labels, max_timesteps)?;
        let mut static_points = Vec::with_capacity(max_timesteps);
        for t in 1..=max_timesteps {
            let cost = profile.static_cost(&static_eval.activity, t as f64)?;
            static_points.push(SweepPoint {
                label: format!("static T={t}"),
                theta: None,
                accuracy: static_eval.accuracy_by_t[t - 1],
                avg_timesteps: t as f32,
                energy_pj: cost.energy_pj(),
                edp: cost.edp(),
                timestep_distribution: Vec::new(),
            });
        }
        // One θ after another: each evaluation already fans its windows out.
        let mut dynamic_points = Vec::with_capacity(thetas.len());
        for &theta in thetas {
            let runner = DynamicInference::new(ExitPolicy::entropy(theta)?, max_timesteps)?;
            let eval = DynamicEvaluation::run_batched(network, &runner, frames, labels, None, 32)?;
            let cost = profile.dynamic_cost(&eval.activity, eval.avg_timesteps as f64)?;
            dynamic_points.push(SweepPoint {
                label: format!("θ={theta:.3}"),
                theta: Some(theta),
                accuracy: eval.accuracy,
                avg_timesteps: eval.avg_timesteps,
                energy_pj: cost.energy_pj(),
                edp: cost.edp(),
                timestep_distribution: eval.timestep_distribution(),
            });
        }
        Ok(ThresholdSweep { static_points, dynamic_points })
    }

    /// EDP of the 1-timestep static point — the normalization used by the
    /// Fig. 5 axes.
    pub fn baseline_edp(&self) -> f64 {
        self.static_points.first().map(|p| p.edp).unwrap_or(f64::NAN)
    }

    /// The iso-accuracy point of Table II against a static net's full-window
    /// accuracy `target` (this sweep's own, or another net's): the dynamic
    /// point with the fewest mean timesteps within 0.5 points of it, else
    /// the most accurate one.
    pub fn iso_accuracy_point(&self, target: f32) -> Option<&SweepPoint> {
        self.dynamic_points
            .iter()
            .filter(|p| p.accuracy >= target - 0.005)
            .min_by(|a, b| a.avg_timesteps.total_cmp(&b.avg_timesteps))
            .or_else(|| {
                self.dynamic_points
                    .iter()
                    .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsnn_imc::HardwareConfig;
    use dtsnn_snn::{vgg_small, ModelConfig};
    use dtsnn_tensor::TensorRng;

    fn setup() -> (Snn, HardwareProfile, Vec<Vec<Tensor>>, Vec<usize>) {
        let mut rng = TensorRng::seed_from(1);
        let cfg = ModelConfig { num_classes: 4, ..ModelConfig::default() };
        let net = vgg_small(&cfg, &mut rng).unwrap();
        let hw = HardwareConfig::default();
        let profile = HardwareProfile::new(&net, &cfg.input_dims(), &hw).unwrap();
        let frames: Vec<Vec<Tensor>> =
            (0..8).map(|_| vec![Tensor::randn(&[3, 16, 16], 0.5, 0.3, &mut rng)]).collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        (net, profile, frames, labels)
    }

    #[test]
    fn sweep_produces_all_points() {
        let (mut net, profile, frames, labels) = setup();
        let sweep =
            ThresholdSweep::run(&mut net, &frames, &labels, &[0.2, 0.8], 4, &profile).unwrap();
        assert_eq!(sweep.static_points.len(), 4);
        assert_eq!(sweep.dynamic_points.len(), 2);
        assert!(sweep.baseline_edp().is_finite());
        // static EDP strictly increases with T (energy and latency both grow)
        for w in sweep.static_points.windows(2) {
            assert!(w[1].edp > w[0].edp);
        }
        // larger θ must not increase average timesteps
        assert!(
            sweep.dynamic_points[1].avg_timesteps <= sweep.dynamic_points[0].avg_timesteps + 1e-6
        );
        assert!(sweep.iso_accuracy_point(sweep.static_points[3].accuracy).is_some());
    }

    #[test]
    fn empty_thresholds_rejected() {
        let (mut net, profile, frames, labels) = setup();
        assert!(ThresholdSweep::run(&mut net, &frames, &labels, &[], 4, &profile).is_err());
    }

    #[test]
    fn dynamic_distribution_sums_to_one() {
        let (mut net, profile, frames, labels) = setup();
        let sweep = ThresholdSweep::run(&mut net, &frames, &labels, &[0.5], 4, &profile).unwrap();
        let dist = &sweep.dynamic_points[0].timestep_distribution;
        assert_eq!(dist.len(), 4);
        assert!((dist.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn the_operating_point_takes_its_target() {
        let point = |label: &str, accuracy: f32, avg_timesteps: f32| SweepPoint {
            label: label.into(),
            theta: None,
            accuracy,
            avg_timesteps,
            energy_pj: 0.0,
            edp: 0.0,
            timestep_distribution: Vec::new(),
        };
        let sweep = ThresholdSweep {
            static_points: vec![point("static T=4", 0.80, 4.0)],
            dynamic_points: vec![point("a", 0.70, 1.2), point("b", 0.797, 1.9), point("c", 0.85, 3.0)],
        };
        // the fewest timesteps within half a point of the target
        assert_eq!(sweep.iso_accuracy_point(0.80).unwrap().label, "b");
        assert_eq!(sweep.iso_accuracy_point(0.70).unwrap().label, "a");
        // nothing close enough: the most accurate point
        assert_eq!(sweep.iso_accuracy_point(0.95).unwrap().label, "c");
        let empty = ThresholdSweep { dynamic_points: Vec::new(), ..sweep };
        assert!(empty.iso_accuracy_point(0.5).is_none());
    }
}
