//! Couples measured spike activity to the IMC cost model: the bridge between
//! the algorithmic harness and the hardware numbers of Table II / Figs. 4–5.

use crate::Result;
use dtsnn_imc::{ChipMapping, CostModel, HardwareConfig, InferenceCost};
use dtsnn_snn::{DensitySource, LayerGeometry, SpikeActivity};

/// Resolves each mapped layer's input-spike density from measured activity.
///
/// `sources[i]` states where layer `i`'s input spikes come from
/// ([`DensitySource::Input`] is treated as density 1.0 — the first layer is
/// analog-encoded). Missing spiking-layer measurements fall back to a
/// conservative density of 1.0.
pub fn densities_from_activity(sources: &[DensitySource], activity: &SpikeActivity) -> Vec<f32> {
    sources
        .iter()
        .map(|s| match s {
            DensitySource::Input => 1.0,
            DensitySource::SpikingLayer(i) => {
                activity.per_layer.get(*i).copied().unwrap_or(1.0).clamp(0.0, 1.0)
            }
        })
        .collect()
}

/// A network's hardware embodiment: mapping, cost model and the provenance
/// of each layer's input spikes.
#[derive(Debug, Clone)]
pub struct HardwareProfile {
    cost: CostModel,
    sources: Vec<DensitySource>,
    classes: usize,
}

impl HardwareProfile {
    /// Maps `geometry` onto `config` and binds the density provenance.
    ///
    /// # Errors
    ///
    /// Returns mapping/config errors from the IMC crate, or
    /// [`crate::CoreError::BadInput`] when `sources` and `geometry` disagree
    /// in length.
    pub fn new(
        geometry: &[LayerGeometry],
        sources: Vec<DensitySource>,
        classes: usize,
        config: &HardwareConfig,
    ) -> Result<Self> {
        if geometry.len() != sources.len() {
            return Err(crate::CoreError::BadInput(format!(
                "{} geometry layers vs {} density sources",
                geometry.len(),
                sources.len()
            )));
        }
        let mapping = ChipMapping::map(geometry, config)?;
        let cost = CostModel::new(mapping, config.clone())?;
        Ok(HardwareProfile { cost, sources, classes })
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Per-layer input densities resolved from measured activity.
    pub fn densities(&self, activity: &SpikeActivity) -> Vec<f32> {
        densities_from_activity(&self.sources, activity)
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
    use dtsnn_snn::{vgg_small_density_map, vgg_small_geometry, ModelConfig};

    fn profile() -> HardwareProfile {
        let cfg = ModelConfig::default();
        HardwareProfile::new(
            &vgg_small_geometry(&cfg),
            vgg_small_density_map(),
            cfg.num_classes,
            &HardwareConfig::default(),
        )
        .unwrap()
    }

    fn activity(per_layer: Vec<f32>) -> SpikeActivity {
        SpikeActivity { per_layer, observations: 1 }
    }

    #[test]
    fn densities_resolve_sources() {
        let act = activity(vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        let d = densities_from_activity(&vgg_small_density_map(), &act);
        assert_eq!(d, vec![1.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
    }

    #[test]
    fn missing_activity_falls_back_to_one() {
        let act = activity(vec![0.1]);
        let d = densities_from_activity(&vgg_small_density_map(), &act);
        assert_eq!(d[1], 0.1);
        assert_eq!(d[2], 1.0);
    }

    #[test]
    fn mismatched_sources_rejected() {
        let cfg = ModelConfig::default();
        let r = HardwareProfile::new(
            &vgg_small_geometry(&cfg),
            vec![DensitySource::Input],
            10,
            &HardwareConfig::default(),
        );
        assert!(r.is_err());
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
