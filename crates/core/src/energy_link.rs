//! Couples measured spike activity to the IMC cost model: the bridge between
//! the algorithmic harness and the hardware numbers of Table II / Figs. 4–5.

use crate::Result;
use dtsnn_imc::{ChipMapping, CostModel, HardwareConfig, InferenceCost};
use dtsnn_snn::{DensitySource, Snn, SpikeActivity};

/// A network's hardware embodiment: mapping, cost model and the provenance
/// of each layer's input spikes.
#[derive(Debug, Clone)]
pub struct HardwareProfile {
    cost: CostModel,
    sources: Vec<DensitySource>,
    classes: usize,
}

impl HardwareProfile {
    /// Maps `network`'s weight layers, at the geometry one input sample of
    /// dims `input` (`[c, h, w]`) gives them, onto `config`, and binds each
    /// layer's spike source ([`Snn::weight_layers`]). The σ–E module scores
    /// as many classes as the last weight layer has outputs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Snn`] when the network cannot take
    /// `input` (not rank 3, an image too small for a kernel or pool),
    /// [`crate::CoreError::BadInput`] for a network with no weight layer, and
    /// mapping/config errors from the IMC crate.
    pub fn new(network: &Snn, input: &[usize], config: &HardwareConfig) -> Result<Self> {
        let (geometry, sources): (Vec<_>, Vec<_>) =
            network.weight_layers(input)?.into_iter().unzip();
        let Some(last) = geometry.last() else {
            return Err(crate::CoreError::BadInput("the network has no weight layer".into()));
        };
        let classes = last.matrix_shape().1;
        let mapping = ChipMapping::map(&geometry, config)?;
        let cost = CostModel::new(mapping, config.clone())?;
        Ok(HardwareProfile { cost, sources, classes })
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Each mapped layer's input-spike density, read from measured activity
    /// at its spike source: 1.0 for the analog-encoded input, and a
    /// conservative 1.0 for a spiking layer with no measurement.
    pub fn densities(&self, activity: &SpikeActivity) -> Vec<f32> {
        let density = |s: &DensitySource| match *s {
            DensitySource::Input => 1.0,
            DensitySource::SpikingLayer(i) => {
                activity.per_layer.get(i).copied().unwrap_or(1.0).clamp(0.0, 1.0)
            }
        };
        self.sources.iter().map(density).collect()
    }

    /// Cost of a static-SNN inference at `timesteps` (no σ–E module).
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors.
    pub fn static_cost(&self, activity: &SpikeActivity, timesteps: f64) -> Result<InferenceCost> {
        Ok(self.cost.inference_cost(&self.densities(activity), timesteps, None)?)
    }

    /// Cost of a DT-SNN inference at (possibly fractional, dataset-averaged)
    /// `timesteps`, including the σ–E module.
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors.
    pub fn dynamic_cost(&self, activity: &SpikeActivity, timesteps: f64) -> Result<InferenceCost> {
        Ok(self.cost.inference_cost(&self.densities(activity), timesteps, Some(self.classes))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsnn_snn::{vgg_small, AvgPool2d, Layer, LifConfig, LifNeuron, ModelConfig, SnnError};
    use dtsnn_tensor::TensorRng;

    fn vgg() -> Snn {
        vgg_small(&ModelConfig::default(), &mut TensorRng::seed_from(1)).unwrap()
    }

    fn profile() -> HardwareProfile {
        let input = ModelConfig::default().input_dims();
        HardwareProfile::new(&vgg(), &input, &HardwareConfig::default()).unwrap()
    }

    fn activity(per_layer: Vec<f32>) -> SpikeActivity {
        SpikeActivity { per_layer, observations: 1 }
    }

    #[test]
    fn densities_resolve_sources() {
        let act = activity(vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        // vgg_small: the input, then its five LIFs in turn
        assert_eq!(profile().densities(&act), vec![1.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
    }

    #[test]
    fn missing_activity_falls_back_to_one() {
        let act = activity(vec![0.1]);
        let d = profile().densities(&act);
        assert_eq!(d[1], 0.1);
        assert_eq!(d[2], 1.0);
    }

    #[test]
    fn inputs_the_network_cannot_take_are_typed_errors() {
        let hw = HardwareConfig::default();
        let net = vgg();
        for input in [&[3, 16][..], &[1, 3, 16, 16], &[], &[4, 16, 16]] {
            let r = HardwareProfile::new(&net, input, &hw);
            assert!(matches!(r, Err(crate::CoreError::Snn(SnnError::BadInput(_)))), "{input:?}");
        }
        // too small for the first 3×3 conv's padded window, or for a pool
        let r = HardwareProfile::new(&net, &[3, 0, 0], &hw);
        assert!(matches!(r, Err(crate::CoreError::Snn(SnnError::Tensor(_)))), "{r:?}");
        let r = HardwareProfile::new(&net, &[3, 1, 1], &hw);
        assert!(matches!(r, Err(crate::CoreError::Snn(SnnError::Tensor(_)))), "{r:?}");
        // no weight layer at all
        let lif: Box<dyn Layer> = Box::new(LifNeuron::new(LifConfig::default()));
        let pool: Box<dyn Layer> = Box::new(AvgPool2d::new(2).unwrap());
        let r = HardwareProfile::new(&Snn::from_layers(vec![lif, pool]), &[3, 4, 4], &hw);
        assert!(matches!(r, Err(crate::CoreError::BadInput(_))), "{r:?}");
    }

    #[test]
    fn classes_are_read_off_the_last_weight_layer() {
        let cfg = ModelConfig { num_classes: 7, ..ModelConfig::default() };
        let net = vgg_small(&cfg, &mut TensorRng::seed_from(2)).unwrap();
        let hw = HardwareConfig::default();
        let p = HardwareProfile::new(&net, &cfg.input_dims(), &hw).unwrap();
        assert_eq!(p.classes, 7);
        assert_eq!(profile().classes, 10);
    }

    #[test]
    fn dynamic_cost_below_static_when_fewer_timesteps() {
        let p = profile();
        let act = activity(vec![0.15; 5]);
        let stat = p.static_cost(&act, 4.0).unwrap();
        let dyn_ = p.dynamic_cost(&act, 1.5).unwrap();
        assert!(dyn_.energy_pj() < stat.energy_pj());
        assert!(dyn_.edp() < stat.edp());
    }

    #[test]
    fn dynamic_cost_rejects_a_non_finite_mean_timestep() {
        // the mean T̂ of an empty evaluation is 0/0: a typed error, never a
        // NaN energy with zero latency
        let p = profile();
        let act = activity(vec![0.15; 5]);
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = p.dynamic_cost(&act, t);
            assert!(
                matches!(err, Err(crate::CoreError::Imc(dtsnn_imc::ImcError::InvalidConfig(_)))),
                "T̂ = {t}: {err:?}"
            );
        }
    }

    #[test]
    fn sigma_e_overhead_present_but_small_at_equal_t() {
        let p = profile();
        let act = activity(vec![0.15; 5]);
        let stat = p.static_cost(&act, 4.0).unwrap();
        let dyn_ = p.dynamic_cost(&act, 4.0).unwrap();
        let ratio = dyn_.energy_pj() / stat.energy_pj();
        assert!(ratio > 1.0 && ratio < 1.01, "ratio {ratio}");
    }

    #[test]
    fn denser_activity_costs_more() {
        let p = profile();
        let sparse = p.static_cost(&activity(vec![0.05; 5]), 4.0).unwrap();
        let dense = p.static_cost(&activity(vec![0.5; 5]), 4.0).unwrap();
        assert!(dense.energy_pj() > sparse.energy_pj());
    }
}
