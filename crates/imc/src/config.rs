//! Hardware configuration: Table I of the paper plus calibrated per-event
//! energy/latency constants.

use crate::faults::FaultModel;
use crate::{ImcError, Result};

/// Per-event dynamic energy constants, in picojoules.
///
/// Absolute values are calibration parameters of the analytical model; their
/// *ratios* are chosen so the VGG-16/CIFAR-10 mapping reproduces the
/// component breakdown of Fig. 1(A). See `crates/imc/src/energy.rs` tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConstants {
    /// One RRAM cell read (per active row × column × slice), pJ.
    pub cell_read: f64,
    /// One ADC conversion, pJ.
    pub adc_conversion: f64,
    /// One input-switch/wordline driver event (per active row per vector), pJ.
    pub input_switch: f64,
    /// One shift-&-add operation, pJ.
    pub shift_add: f64,
    /// One column-mux reconfiguration, pJ.
    pub mux: f64,
    /// One accumulator update (PE/tile/global averaged), pJ.
    pub accumulate: f64,
    /// One buffer byte access (hierarchy-averaged), pJ.
    pub buffer_byte: f64,
    /// One interconnect byte-hop (H-Tree + NoC averaged), pJ.
    pub interconnect_byte: f64,
    /// One LIF neuron membrane update, pJ.
    pub lif_update: f64,
    /// One σ–E module LUT lookup, pJ.
    pub lut_lookup: f64,
    /// One σ–E module MAC, pJ.
    pub sigma_e_mac: f64,
    /// One σ–E module FIFO push/pop, pJ.
    pub fifo_op: f64,
    /// Fixed per-inference energy (input load + weight-static leakage over
    /// the inference window), expressed as a fraction of the one-timestep
    /// dynamic energy at nominal activity. Chosen so E(T=8)/E(T=1) ≈ 4.9
    /// (Fig. 1(B)).
    pub fixed_fraction: f64,
}

impl Default for EnergyConstants {
    fn default() -> Self {
        // Calibrated against the VGG-16 (32×32) mapping at spike density 0.2:
        // digital peripherals ≈ 45%, crossbar ≈ 13%, ADC ≈ 12% (Fig. 1A).
        EnergyConstants {
            cell_read: 0.085,
            adc_conversion: 1.2,
            input_switch: 18.0,
            shift_add: 1.6,
            mux: 0.4,
            accumulate: 1.4,
            buffer_byte: 1.9,
            interconnect_byte: 1.2,
            lif_update: 1.1,
            lut_lookup: 0.9,
            sigma_e_mac: 1.3,
            fifo_op: 0.45,
            fixed_fraction: 0.795,
        }
    }
}

/// Per-operation latency constants, in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyConstants {
    /// Cycles for one crossbar read (all rows in parallel).
    pub crossbar_read: u64,
    /// Cycles per ADC conversion.
    pub adc: u64,
    /// Cycles per shift-&-add.
    pub shift_add: u64,
    /// Fixed per-layer sequencing overhead, cycles.
    pub layer_overhead: u64,
    /// Cycles per σ–E module evaluation per class.
    pub sigma_e_per_class: u64,
    /// Clock period, nanoseconds (for absolute-time reporting).
    pub clock_ns: f64,
}

impl Default for LatencyConstants {
    fn default() -> Self {
        LatencyConstants {
            crossbar_read: 1,
            adc: 1,
            shift_add: 1,
            layer_overhead: 8,
            sigma_e_per_class: 4,
            clock_ns: 1.0,
        }
    }
}

/// The hardware parameters of Table I plus the calibrated cost constants.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Crossbar rows = columns (Table I: 64).
    pub crossbar_size: usize,
    /// Crossbars per tile (Table I: 64).
    pub crossbars_per_tile: usize,
    /// Device precision in bits (Table I: 4-bit RRAM).
    pub device_bits: u32,
    /// Weight precision in bits (Table I: 8-bit).
    pub weight_bits: u32,
    /// Device conductance variation σ/μ (Table I: 20%).
    pub sigma_over_mu: f64,
    /// On-resistance, ohms (Table I: 20 kΩ).
    pub r_on: f64,
    /// R_off / R_on ratio (Table I: 10).
    pub r_off_ratio: f64,
    /// Column-mux sharing ratio (columns per ADC).
    pub adc_mux_ratio: usize,
    /// Global buffer size, bytes (Table I: 20 KB).
    pub global_buffer_bytes: usize,
    /// Tile buffer size, bytes (Table I: 10 KB).
    pub tile_buffer_bytes: usize,
    /// PE buffer size, bytes (Table I: 5 KB).
    pub pe_buffer_bytes: usize,
    /// Supply voltage, volts (Table I: 0.9 V).
    pub vdd: f64,
    /// Read voltage, volts (Table I: 0.1 V).
    pub v_read: f64,
    /// σ-LUT size, bytes (Table I: 3 KB).
    pub sigma_lut_bytes: usize,
    /// E-LUT size, bytes (Table I: 3 KB).
    pub entropy_lut_bytes: usize,
    /// Energy constants.
    pub energy: EnergyConstants,
    /// Latency constants.
    pub latency: LatencyConstants,
    /// Substrate fault model (stuck-at devices, drift, read noise, dead
    /// lines). Defaults to [`FaultModel::none`]: only quantization and the
    /// `sigma_over_mu` programming variation apply.
    pub fault: FaultModel,
}

impl Default for HardwareConfig {
    fn default() -> Self {
        HardwareConfig {
            crossbar_size: 64,
            crossbars_per_tile: 64,
            device_bits: 4,
            weight_bits: 8,
            sigma_over_mu: 0.20,
            r_on: 20_000.0,
            r_off_ratio: 10.0,
            adc_mux_ratio: 8,
            global_buffer_bytes: 20 * 1024,
            tile_buffer_bytes: 10 * 1024,
            pe_buffer_bytes: 5 * 1024,
            vdd: 0.9,
            v_read: 0.1,
            sigma_lut_bytes: 3 * 1024,
            entropy_lut_bytes: 3 * 1024,
            energy: EnergyConstants::default(),
            latency: LatencyConstants::default(),
            fault: FaultModel::none(),
        }
    }
}

impl HardwareConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for zero extents, weights wider
    /// than 32 bits, device precision exceeding weight precision, or
    /// non-finite or non-positive electrical parameters.
    pub fn validate(&self) -> Result<()> {
        if self.crossbar_size == 0 || self.crossbars_per_tile == 0 {
            return Err(ImcError::InvalidConfig("crossbar extents must be nonzero".into()));
        }
        if self.device_bits == 0 || self.weight_bits == 0 {
            return Err(ImcError::InvalidConfig("bit widths must be nonzero".into()));
        }
        if self.weight_bits > 32 {
            return Err(ImcError::InvalidConfig(format!(
                "weight precision ({}) exceeds 32 bits",
                self.weight_bits
            )));
        }
        if self.device_bits > self.weight_bits {
            return Err(ImcError::InvalidConfig(format!(
                "device precision ({}) exceeds weight precision ({})",
                self.device_bits, self.weight_bits
            )));
        }
        if self.adc_mux_ratio == 0 {
            return Err(ImcError::InvalidConfig("adc_mux_ratio must be nonzero".into()));
        }
        let electrical = [
            ("sigma_over_mu", self.sigma_over_mu),
            ("r_on", self.r_on),
            ("r_off_ratio", self.r_off_ratio),
            ("vdd", self.vdd),
            ("v_read", self.v_read),
        ];
        for (name, v) in electrical {
            if !v.is_finite() {
                return Err(ImcError::InvalidConfig(format!("{name} must be finite, got {v}")));
            }
        }
        if self.r_on <= 0.0 || self.r_off_ratio <= 1.0 {
            return Err(ImcError::InvalidConfig("r_on must be positive and r_off_ratio > 1".into()));
        }
        if self.vdd <= 0.0 || self.v_read <= 0.0 || self.v_read > self.vdd {
            return Err(ImcError::InvalidConfig("need 0 < v_read ≤ vdd".into()));
        }
        if self.sigma_over_mu < 0.0 {
            return Err(ImcError::InvalidConfig("sigma_over_mu must be nonnegative".into()));
        }
        self.fault.validate()?;
        Ok(())
    }

    /// Bit-slices per weight: `ceil(weight_bits / device_bits)`, e.g. two
    /// 4-bit devices per 8-bit weight magnitude.
    pub fn slices_per_weight(&self) -> usize {
        self.weight_bits.div_ceil(self.device_bits) as usize
    }

    /// Conductance levels per device (`2^device_bits`).
    pub fn device_levels(&self) -> usize {
        1usize << self.device_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = HardwareConfig::default();
        assert_eq!(c.crossbar_size, 64);
        assert_eq!(c.crossbars_per_tile, 64);
        assert_eq!(c.device_bits, 4);
        assert_eq!(c.weight_bits, 8);
        assert!((c.sigma_over_mu - 0.20).abs() < 1e-12);
        assert!((c.r_on - 20_000.0).abs() < 1e-6);
        assert!((c.r_off_ratio - 10.0).abs() < 1e-12);
        assert_eq!(c.global_buffer_bytes, 20 * 1024);
        assert_eq!(c.tile_buffer_bytes, 10 * 1024);
        assert_eq!(c.pe_buffer_bytes, 5 * 1024);
        assert!((c.vdd - 0.9).abs() < 1e-12);
        assert!((c.v_read - 0.1).abs() < 1e-12);
        assert_eq!(c.sigma_lut_bytes, 3 * 1024);
        assert_eq!(c.entropy_lut_bytes, 3 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn derived_quantities() {
        let c = HardwareConfig::default();
        assert_eq!(c.slices_per_weight(), 2);
        assert_eq!(c.device_levels(), 16);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = HardwareConfig { crossbar_size: 0, ..HardwareConfig::default() };
        assert!(c.validate().is_err());
        let c = HardwareConfig { device_bits: 16, ..HardwareConfig::default() };
        assert!(c.validate().is_err());
        let c = HardwareConfig { r_off_ratio: 1.0, ..HardwareConfig::default() };
        assert!(c.validate().is_err());
        let c = HardwareConfig { v_read: 2.0, ..HardwareConfig::default() };
        assert!(c.validate().is_err());
        let bad_fault = FaultModel { stuck_on_rate: 1.5, ..FaultModel::none() };
        let c = HardwareConfig { fault: bad_fault, ..HardwareConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_fault_model_is_null() {
        assert!(HardwareConfig::default().fault.is_null());
    }

    #[test]
    fn hostile_values_are_typed_errors_not_panics() {
        use crate::FaultInjector;
        use dtsnn_snn::LayerGeometry;
        let d = HardwareConfig::default;
        let mut hostile = vec![
            HardwareConfig { weight_bits: 33, ..d() },
            HardwareConfig { weight_bits: 65, ..d() },
            HardwareConfig { weight_bits: 64, device_bits: 64, ..d() },
            HardwareConfig { weight_bits: u32::MAX, device_bits: 4, ..d() },
        ];
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            hostile.extend([
                HardwareConfig { sigma_over_mu: v, ..d() },
                HardwareConfig { r_on: v, ..d() },
                HardwareConfig { r_off_ratio: v, ..d() },
                HardwareConfig { vdd: v, ..d() },
                HardwareConfig { v_read: v, ..d() },
            ]);
        }
        let geometry = [LayerGeometry::Fc { in_features: 4, out_features: 2 }];
        for c in &hostile {
            assert!(matches!(c.validate(), Err(ImcError::InvalidConfig(_))), "{c:?}");
            assert!(
                matches!(
                    FaultInjector::for_geometry(FaultModel::none(), &geometry, c),
                    Err(ImcError::InvalidConfig(_))
                ),
                "{c:?}"
            );
        }
        let widest = HardwareConfig { weight_bits: 32, device_bits: 32, ..d() };
        assert!(widest.validate().is_ok());
        assert!(FaultInjector::for_geometry(FaultModel::none(), &geometry, &widest).is_ok());
    }
}
