//! Analytical energy / latency / EDP model (Figs. 1 and 4 of the paper).
//!
//! Dynamic energy is accumulated per *event* (cell read, ADC conversion,
//! driver switch, …) so that it scales with actual spike activity and with
//! the number of timesteps, exactly as the paper observes: energy and
//! latency grow linearly in `T`, and a fixed per-inference component (input
//! loading + static leakage across the inference window) makes the T=8/T=1
//! energy ratio ≈ 4.9 rather than 8 (Fig. 1(B)).

use crate::mapping::{ChipMapping, MappedLayer};
use crate::{HardwareConfig, ImcError, Result};

/// Chip components tracked by the energy breakdown (Fig. 1(A)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// RRAM crossbar arrays (analog MAC).
    Crossbar,
    /// Analog-to-digital converters.
    Adc,
    /// Digital peripherals: input switch matrix / wordline drivers, column
    /// muxes, shift-&-add circuits.
    DigitalPeripherals,
    /// PE / tile / global accumulators.
    Accumulators,
    /// PE / tile / global buffers.
    Buffers,
    /// H-Tree and NoC interconnect.
    Interconnect,
    /// LIF neuron modules.
    LifModule,
    /// The DT-SNN σ–E module (softmax + entropy + threshold compare).
    SigmaE,
    /// Fixed per-inference energy: input loading and static leakage.
    Static,
}

impl Component {
    /// All components, in display order.
    pub const ALL: [Component; 9] = [
        Component::DigitalPeripherals,
        Component::Crossbar,
        Component::Adc,
        Component::Buffers,
        Component::Accumulators,
        Component::Interconnect,
        Component::LifModule,
        Component::SigmaE,
        Component::Static,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Component::Crossbar => "crossbar",
            Component::Adc => "adc",
            Component::DigitalPeripherals => "digital-peripherals",
            Component::Accumulators => "accumulators",
            Component::Buffers => "buffers",
            Component::Interconnect => "interconnect",
            Component::LifModule => "lif-module",
            Component::SigmaE => "sigma-e",
            Component::Static => "static",
        }
    }

    fn index(&self) -> usize {
        Component::ALL.iter().position(|c| c == self).expect("component in ALL")
    }
}

/// Energy split across chip components, in picojoules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyBreakdown {
    per_component: [f64; 9],
}

impl EnergyBreakdown {
    /// Creates an all-zero breakdown.
    pub fn new() -> Self {
        EnergyBreakdown::default()
    }

    /// Adds `pj` picojoules to `component`.
    pub fn add(&mut self, component: Component, pj: f64) {
        self.per_component[component.index()] += pj;
    }

    /// Energy of one component, pJ.
    pub fn component(&self, component: Component) -> f64 {
        self.per_component[component.index()]
    }

    /// Total energy, pJ.
    pub fn total(&self) -> f64 {
        self.per_component.iter().sum()
    }

    /// Fraction of the total attributed to `component` (0 if total is 0).
    pub fn fraction(&self, component: Component) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.component(component) / t
        }
    }

    /// Elementwise sum.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        for (a, b) in self.per_component.iter_mut().zip(&other.per_component) {
            *a += b;
        }
    }

    /// Elementwise scale.
    pub fn scaled(&self, s: f64) -> EnergyBreakdown {
        let mut out = self.clone();
        for v in &mut out.per_component {
            *v *= s;
        }
        out
    }
}

/// Full cost of one inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceCost {
    /// Energy by component, pJ.
    pub energy: EnergyBreakdown,
    /// Latency, clock cycles.
    pub latency_cycles: u64,
    /// Clock period used for absolute time, ns.
    pub clock_ns: f64,
    /// Timesteps executed.
    pub timesteps: f64,
}

impl InferenceCost {
    /// Total energy, pJ.
    pub fn energy_pj(&self) -> f64 {
        self.energy.total()
    }

    /// Latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.latency_cycles as f64 * self.clock_ns
    }

    /// Energy-delay product, pJ·ns.
    pub fn edp(&self) -> f64 {
        self.energy_pj() * self.latency_ns()
    }
}

/// The per-event cost model bound to a mapping.
#[derive(Debug, Clone)]
pub struct CostModel {
    mapping: ChipMapping,
    config: HardwareConfig,
}

impl CostModel {
    /// Binds a mapping to a hardware configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for invalid configurations.
    pub fn new(mapping: ChipMapping, config: HardwareConfig) -> Result<Self> {
        config.validate()?;
        Ok(CostModel { mapping, config })
    }

    /// The underlying mapping.
    pub fn mapping(&self) -> &ChipMapping {
        &self.mapping
    }

    /// The hardware configuration.
    pub fn config(&self) -> &HardwareConfig {
        &self.config
    }

    pub(crate) fn check_densities(&self, densities: &[f32]) -> Result<()> {
        if densities.len() != self.mapping.layers().len() {
            return Err(ImcError::ActivityMismatch {
                layers: self.mapping.layers().len(),
                densities: densities.len(),
            });
        }
        for &d in densities {
            if !(0.0..=1.0).contains(&d) {
                return Err(ImcError::InvalidConfig(format!("density {d} outside [0,1]")));
            }
        }
        Ok(())
    }

    /// Dynamic energy of **one timestep**, given each layer's input spike
    /// density (1.0 for the analog-encoded first layer).
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::ActivityMismatch`] for wrong density counts.
    pub fn timestep_energy(&self, densities: &[f32]) -> Result<EnergyBreakdown> {
        self.check_densities(densities)?;
        let mut out = EnergyBreakdown::new();
        for (layer, &density) in self.mapping.layers().iter().zip(densities) {
            out.accumulate(&self.layer_timestep_energy(layer, density));
        }
        Ok(out)
    }

    /// Dynamic energy of one layer for one timestep at the given input spike
    /// density. Shared by the analytical ledger above and the event-driven
    /// simulator ([`crate::EventSim`]) so the two models cannot drift.
    pub(crate) fn layer_timestep_energy(
        &self,
        layer: &MappedLayer,
        density: f32,
    ) -> EnergyBreakdown {
        let e = &self.config.energy;
        let mux = self.config.adc_mux_ratio as f64;
        let mut out = EnergyBreakdown::new();
        let d = density as f64;
        let vp = layer.vector_presentations as f64;
        let rows = layer.rows as f64;
        let pcols = layer.physical_cols as f64;
        let cols = layer.cols as f64;
        let rs = layer.row_segments as f64;

        // Crossbar: every active row charges every physical column it
        // crosses (one device per crossing).
        out.add(Component::Crossbar, vp * rows * d * pcols * e.cell_read);
        // ADC: one conversion per physical column per row segment per
        // vector (partial sums of each segment are digitized separately).
        let conversions = vp * pcols * rs;
        out.add(Component::Adc, conversions * e.adc_conversion);
        // Digital peripherals: wordline drivers for active rows, column
        // muxes for each conversion, shift-&-add to recombine bit slices.
        let driver = vp * rows * d * e.input_switch;
        let mux_e = conversions * e.mux * mux;
        let shift = vp * cols * self.config.slices_per_weight() as f64 * rs * e.shift_add;
        out.add(Component::DigitalPeripherals, driver + mux_e + shift);
        // Accumulators: PE-level (per row segment) plus tile and global.
        out.add(Component::Accumulators, vp * cols * (rs + 2.0) * e.accumulate);
        // Buffers: packed input spikes read+write, partial-sum bytes,
        // packed output spikes.
        let input_bytes = vp * rows * d / 8.0;
        let psum_bytes = vp * cols * rs;
        let output_bytes = layer.output_neurons as f64 / 8.0;
        out.add(
            Component::Buffers,
            (2.0 * input_bytes + psum_bytes + output_bytes) * e.buffer_byte,
        );
        // Interconnect: partial sums between PEs/tiles + spikes onward.
        let noc_bytes = psum_bytes / 4.0 + output_bytes;
        out.add(Component::Interconnect, noc_bytes * e.interconnect_byte);
        // LIF modules update each output neuron once per timestep (the
        // classifier output goes to the σ–E module instead).
        if !layer.is_classifier {
            out.add(Component::LifModule, layer.output_neurons as f64 * e.lif_update);
        }
        out
    }

    /// σ–E module energy for **one timestep** of a `classes`-way classifier
    /// (Fig. 3(b)): per class two LUT lookups (σ and log σ), one MAC and two
    /// FIFO operations.
    pub fn sigma_e_energy(&self, classes: usize) -> f64 {
        let e = &self.config.energy;
        classes as f64 * (2.0 * e.lut_lookup + e.sigma_e_mac + 2.0 * e.fifo_op)
    }

    /// Latency of **one timestep** in clock cycles. Crossbars operate in
    /// parallel; within a crossbar the ADC is shared by `adc_mux_ratio`
    /// columns; layers execute sequentially (timesteps are not pipelined —
    /// the paper's DT-SNN-specific choice). Saturates at `u64::MAX`.
    pub fn timestep_latency(&self) -> u64 {
        let layers = self.mapping.layers().iter();
        layers.fold(0u64, |sum, layer| sum.saturating_add(self.layer_compute_cycles(layer)))
    }

    /// Cycles of the slowest layer's datapath for one timestep: the stage
    /// that bounds a pipelined schedule's steady state.
    pub fn bottleneck_stage_cycles(&self) -> u64 {
        let layers = self.mapping.layers().iter();
        layers.map(|layer| self.layer_compute_cycles(layer)).max().unwrap_or(0)
    }

    /// Cycles one layer occupies its datapath for one timestep: sequencing
    /// overhead plus, per vector presentation, a crossbar read, the muxed ADC
    /// conversions and a shift-&-add. Shared by the sequential ledger and
    /// the event-driven simulator. The `LatencyConfig` fields are unbounded,
    /// so the arithmetic saturates at `u64::MAX` instead of wrapping.
    pub(crate) fn layer_compute_cycles(&self, layer: &MappedLayer) -> u64 {
        let l = &self.config.latency;
        let xb = self.config.crossbar_size as u64;
        let mux = self.config.adc_mux_ratio as u64;
        let cols_per_xbar = (layer.physical_cols as u64).min(xb);
        let conversions = cols_per_xbar.div_ceil(mux);
        let per_vector = l
            .crossbar_read
            .saturating_add(conversions.saturating_mul(l.adc))
            .saturating_add(l.shift_add);
        l.layer_overhead.saturating_add((layer.vector_presentations as u64).saturating_mul(per_vector))
    }

    /// σ–E module latency per timestep, cycles (saturating at `u64::MAX`).
    pub fn sigma_e_latency(&self, classes: usize) -> u64 {
        (classes as u64).saturating_mul(self.config.latency.sigma_e_per_class)
    }

    /// Fixed per-inference energy (input loading + leakage), defined as
    /// `fixed_fraction ×` the one-timestep dynamic energy at the given
    /// nominal densities, split between peripherals and buffers.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::ActivityMismatch`] for wrong density counts.
    pub fn fixed_energy(&self, densities: &[f32]) -> Result<EnergyBreakdown> {
        let dynamic = self.timestep_energy(densities)?;
        let fixed = dynamic.total() * self.config.energy.fixed_fraction;
        let mut out = EnergyBreakdown::new();
        out.add(Component::Static, fixed);
        Ok(out)
    }

    /// Full cost of one inference running `timesteps` steps (possibly
    /// fractional, for dataset-averaged dynamic timesteps), with the σ–E
    /// module engaged when `classes` is `Some` (DT-SNN) or absent (static
    /// SNN).
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::ActivityMismatch`] for wrong density counts and
    /// [`ImcError::InvalidConfig`] for timesteps that are not a positive
    /// finite number (NaN included: the mean T̂ of an empty evaluation).
    pub fn inference_cost(
        &self,
        densities: &[f32],
        timesteps: f64,
        classes: Option<usize>,
    ) -> Result<InferenceCost> {
        if !(timesteps.is_finite() && timesteps > 0.0) {
            return Err(ImcError::InvalidConfig(format!(
                "timesteps must be positive and finite, got {timesteps}"
            )));
        }
        let per_t = self.timestep_energy(densities)?;
        let mut energy = per_t.scaled(timesteps);
        energy.accumulate(&self.fixed_energy(densities)?);
        // Accumulate latency in f64 and round once at the end: rounding the
        // timestep and σ–E terms separately drifts up to one cycle on
        // fractional (dataset-averaged) timesteps.
        let mut latency = self.timestep_latency() as f64 * timesteps;
        if let Some(k) = classes {
            energy.add(Component::SigmaE, self.sigma_e_energy(k) * timesteps);
            latency += self.sigma_e_latency(k) as f64 * timesteps;
        }
        Ok(InferenceCost {
            energy,
            latency_cycles: latency.round() as u64,
            clock_ns: self.config.latency.clock_ns,
            timesteps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsnn_snn::vgg16_geometry;

    fn vgg16_model() -> CostModel {
        let config = HardwareConfig::default();
        let mapping = ChipMapping::map(&vgg16_geometry(32, 3, 10), &config).unwrap();
        CostModel::new(mapping, config).unwrap()
    }

    fn nominal_densities(model: &CostModel) -> Vec<f32> {
        let n = model.mapping().layers().len();
        let mut d = vec![0.2f32; n];
        d[0] = 1.0; // analog-encoded input layer
        d
    }

    #[test]
    fn breakdown_bookkeeping() {
        let mut b = EnergyBreakdown::new();
        b.add(Component::Adc, 2.0);
        b.add(Component::Crossbar, 3.0);
        assert_eq!(b.total(), 5.0);
        assert_eq!(b.component(Component::Adc), 2.0);
        assert!((b.fraction(Component::Crossbar) - 0.6).abs() < 1e-12);
        let s = b.scaled(2.0);
        assert_eq!(s.total(), 10.0);
        let mut c = b.clone();
        c.accumulate(&s);
        assert_eq!(c.total(), 15.0);
    }

    #[test]
    fn fig1a_component_breakdown_reproduced() {
        // Paper Fig. 1(A): digital peripherals highest (~45%), crossbar + ADC
        // second (~25%) for VGG-16 on CIFAR-10.
        let model = vgg16_model();
        let d = nominal_densities(&model);
        // Breakdown at T=4 including fixed energy, like the paper's chart.
        let cost = model.inference_cost(&d, 4.0, None).unwrap();
        let total = cost.energy_pj();
        let peri = cost.energy.component(Component::DigitalPeripherals) / total;
        let xbar_adc = (cost.energy.component(Component::Crossbar)
            + cost.energy.component(Component::Adc))
            / total;
        assert!((0.38..=0.52).contains(&peri), "digital peripherals fraction {peri}");
        assert!((0.18..=0.32).contains(&xbar_adc), "crossbar+adc fraction {xbar_adc}");
        // peripherals must dominate, crossbar+ADC second (as in Fig. 1A)
        let others = 1.0 - peri - xbar_adc;
        assert!(peri > xbar_adc);
        assert!(peri > others * 0.9, "peri {peri} others {others}");
    }

    #[test]
    fn fig1b_energy_and_latency_scaling() {
        // Paper Fig. 1(B): T=8 costs ≈ 4.9× the energy and exactly 8× the
        // latency of T=1.
        let model = vgg16_model();
        let d = nominal_densities(&model);
        let c1 = model.inference_cost(&d, 1.0, None).unwrap();
        let c8 = model.inference_cost(&d, 8.0, None).unwrap();
        let e_ratio = c8.energy_pj() / c1.energy_pj();
        let l_ratio = c8.latency_ns() / c1.latency_ns();
        assert!((4.4..=5.4).contains(&e_ratio), "energy ratio {e_ratio}");
        assert!((l_ratio - 8.0).abs() < 1e-9, "latency ratio {l_ratio}");
    }

    #[test]
    fn energy_scales_linearly_in_timesteps() {
        let model = vgg16_model();
        let d = nominal_densities(&model);
        let e: Vec<f64> = (1..=4)
            .map(|t| model.inference_cost(&d, t as f64, None).unwrap().energy_pj())
            .collect();
        // constant first differences
        let d1 = e[1] - e[0];
        for w in e.windows(2) {
            assert!(((w[1] - w[0]) - d1).abs() / d1 < 1e-9);
        }
    }

    #[test]
    fn energy_monotone_in_density() {
        let model = vgg16_model();
        let lo = vec![0.05f32; model.mapping().layers().len()];
        let hi = vec![0.6f32; model.mapping().layers().len()];
        let e_lo = model.timestep_energy(&lo).unwrap().total();
        let e_hi = model.timestep_energy(&hi).unwrap().total();
        assert!(e_hi > e_lo);
    }

    #[test]
    fn sigma_e_overhead_is_negligible() {
        // Paper Sec. III-B: σ–E energy per timestep ≈ 2e-5 × one-timestep
        // inference energy.
        let model = vgg16_model();
        let d = nominal_densities(&model);
        let one_t = model.timestep_energy(&d).unwrap().total();
        let se = model.sigma_e_energy(10);
        let ratio = se / one_t;
        assert!(ratio < 5e-5, "σ–E ratio {ratio}");
        assert!(ratio > 0.0);
    }

    #[test]
    fn dtsnn_cost_adds_sigma_e_but_stays_close() {
        let model = vgg16_model();
        let d = nominal_densities(&model);
        let plain = model.inference_cost(&d, 4.0, None).unwrap();
        let dt = model.inference_cost(&d, 4.0, Some(10)).unwrap();
        let overhead = dt.energy_pj() / plain.energy_pj() - 1.0;
        assert!(overhead > 0.0 && overhead < 1e-3, "overhead {overhead}");
        assert!(dt.latency_cycles >= plain.latency_cycles);
    }

    #[test]
    fn fractional_timesteps_supported() {
        // DT-SNN reports dataset-average timesteps like 1.46.
        let model = vgg16_model();
        let d = nominal_densities(&model);
        let c = model.inference_cost(&d, 1.46, Some(10)).unwrap();
        let c1 = model.inference_cost(&d, 1.0, Some(10)).unwrap();
        let c2 = model.inference_cost(&d, 2.0, Some(10)).unwrap();
        assert!(c.energy_pj() > c1.energy_pj() && c.energy_pj() < c2.energy_pj());
    }

    #[test]
    fn fractional_timesteps_latency_rounds_once() {
        // Regression: the timestep and σ–E latency terms used to be rounded
        // to u64 separately before summing, drifting up to one cycle on
        // fractional T̂ vs a single rounding of their sum.
        let model = vgg16_model();
        let d = nominal_densities(&model);
        let lt = model.timestep_latency() as f64;
        let st = model.sigma_e_latency(10) as f64;
        // find a fractional T̂ where the two rounding orders disagree
        let t_hat = (1..4000)
            .map(|i| 1.0 + i as f64 / 1000.0)
            .find(|t| (lt * t).round() + (st * t).round() != (lt * t + st * t).round())
            .expect("a discriminating fractional T̂ exists");
        let c = model.inference_cost(&d, t_hat, Some(10)).unwrap();
        assert_eq!(c.latency_cycles, (lt * t_hat + st * t_hat).round() as u64);
    }

    #[test]
    fn density_validation() {
        let model = vgg16_model();
        assert!(matches!(
            model.timestep_energy(&[0.5]),
            Err(ImcError::ActivityMismatch { .. })
        ));
        let mut d = nominal_densities(&model);
        d[3] = 1.5;
        assert!(model.timestep_energy(&d).is_err());
        let d = nominal_densities(&model);
        assert!(model.inference_cost(&d, 0.0, None).is_err());
    }

    #[test]
    fn non_finite_or_non_positive_timesteps_are_rejected() {
        // NaN fails every comparison, so a `t <= 0` guard alone let it
        // through (NaN energy, 0 cycles), and +inf saturated to u64::MAX
        let model = vgg16_model();
        let d = nominal_densities(&model);
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            for classes in [None, Some(10)] {
                assert!(
                    matches!(model.inference_cost(&d, t, classes), Err(ImcError::InvalidConfig(_))),
                    "T̂ = {t}, classes = {classes:?}"
                );
            }
        }
        assert!(model.inference_cost(&d, f64::MIN_POSITIVE, Some(10)).is_ok());
    }

    #[test]
    fn edp_combines_energy_and_latency() {
        let model = vgg16_model();
        let d = nominal_densities(&model);
        let c = model.inference_cost(&d, 2.0, None).unwrap();
        assert!((c.edp() - c.energy_pj() * c.latency_ns()).abs() < 1e-6);
    }
}
