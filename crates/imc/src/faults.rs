//! Mapping-aware RRAM device model (Fig. 6(B) and its fault extension).
//!
//! This is the crate's one model of a weight read from RRAM. The paper's
//! Fig. 6(B) point — Gaussian programming variation, σ/μ = 20% — is
//! [`FaultInjector`] driven with [`FaultModel::none`]. Real CiM substrates
//! additionally suffer *discrete* defects: devices stuck at G_on/G_off,
//! conductance drift toward the off state, per-read noise on top of the
//! programmed value, and whole wordlines/bitlines lost to driver or mux
//! failures. [`FaultModel`] composes all of these; [`FaultInjector`] applies
//! them to a trained network through the [`ChipMapping`] coordinates, so a
//! dead line damages the physically co-located weights (a contiguous row or
//! column strip of one crossbar) rather than a random scatter.
//!
//! # Physical model
//!
//! Each weight is quantized to `weight_bits` signed levels and split into
//! `slices_per_weight` devices plus a differential reference per slice. The
//! finite `R_off/R_on` ratio leaves a nonzero "off" conductance whose
//! variation does not cancel between the differential columns. Per device,
//! in order:
//!
//! 1. **Programming variation** — multiplicative Gaussian, σ/μ from
//!    [`HardwareConfig::sigma_over_mu`] (one-shot, drawn at programming);
//! 2. **Stuck-at faults** — with `stuck_on_rate` the device reads full-scale
//!    conductance regardless of the programmed level; else with
//!    `stuck_off_rate` it reads `g_min` (the draws are exclusive: a device
//!    cannot be stuck both ways, so the effective off rate is
//!    `(1 − p_on)·p_off`);
//! 3. **Drift** — surviving devices relax toward `g_min` by the fraction
//!    `drift` (retention loss between programming and read-out);
//! 4. **Read noise** — multiplicative Gaussian of width `read_sigma` drawn
//!    per read, *distinct from* the one-shot programming variation. One
//!    [`FaultInjector::inject`] call materializes one program-then-read
//!    instance; Monte-Carlo trials re-draw everything per trial.
//!
//! Dead wordlines zero the current of every device on the affected crossbar
//! row; dead bitlines zero one physical column strip. Both are drawn per
//! physical line through the mapping geometry.
//!
//! # Exactness contract
//!
//! A slice whose two devices are untouched by every enabled knob is read back
//! through an integer fast path, so with a null model and `sigma_over_mu = 0`
//! the injector reduces **bitwise** to
//! [`dtsnn_tensor::quant::quantize_dequantize`], and under a sparse model
//! every unfaulted weight stays exactly on the quantization grid — fault
//! locality is observable in the weights.

use crate::{ChipMapping, HardwareConfig, ImcError, MappedLayer, Result};
use dtsnn_snn::{LayerGeometry, Snn};
use dtsnn_tensor::TensorRng;

/// Composable description of the substrate's non-idealities.
///
/// All rates are per-entity probabilities in `[0, 1]`; `read_sigma` is the
/// σ/μ of the per-read conductance noise and `drift` the fractional
/// relaxation toward `g_min`. [`FaultModel::none`] (= `Default`) disables
/// everything, leaving only quantization and the config's programming
/// variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability that a device is stuck at full-scale conductance (G_on).
    pub stuck_on_rate: f64,
    /// Probability that a device is stuck at minimum conductance (G_off).
    pub stuck_off_rate: f64,
    /// σ/μ of multiplicative Gaussian read noise, drawn per read.
    pub read_sigma: f64,
    /// Fractional conductance relaxation toward `g_min` in `[0, 1]`.
    pub drift: f64,
    /// Probability that a crossbar wordline (row driver) is dead.
    pub dead_wordline_rate: f64,
    /// Probability that a crossbar bitline (column) is dead.
    pub dead_bitline_rate: f64,
}

impl FaultModel {
    /// The fault-free model: every knob zero.
    pub fn none() -> Self {
        FaultModel {
            stuck_on_rate: 0.0,
            stuck_off_rate: 0.0,
            read_sigma: 0.0,
            drift: 0.0,
            dead_wordline_rate: 0.0,
            dead_bitline_rate: 0.0,
        }
    }

    /// Whether every knob is zero (injection degenerates to quantization
    /// plus the config's programming variation).
    pub fn is_null(&self) -> bool {
        self == &FaultModel::none()
    }

    /// Validates every knob's domain.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for rates outside `[0, 1]`,
    /// combined stuck rates above 1, negative `read_sigma`, drift outside
    /// `[0, 1]`, or any non-finite value.
    pub fn validate(&self) -> Result<()> {
        let rates = [
            ("stuck_on_rate", self.stuck_on_rate),
            ("stuck_off_rate", self.stuck_off_rate),
            ("dead_wordline_rate", self.dead_wordline_rate),
            ("dead_bitline_rate", self.dead_bitline_rate),
            ("drift", self.drift),
        ];
        for (name, r) in rates {
            if !r.is_finite() || !(0.0..=1.0).contains(&r) {
                return Err(ImcError::InvalidConfig(format!(
                    "fault model: {name} must lie in [0, 1], got {r}"
                )));
            }
        }
        if self.stuck_on_rate + self.stuck_off_rate > 1.0 {
            return Err(ImcError::InvalidConfig(format!(
                "fault model: stuck_on_rate + stuck_off_rate must not exceed 1, got {}",
                self.stuck_on_rate + self.stuck_off_rate
            )));
        }
        if !self.read_sigma.is_finite() || self.read_sigma < 0.0 {
            return Err(ImcError::InvalidConfig(format!(
                "fault model: read_sigma must be nonnegative, got {}",
                self.read_sigma
            )));
        }
        Ok(())
    }

    /// Scales every knob by `severity` (clamped back into its domain), the
    /// x-axis of a graceful-degradation sweep. `scaled(0.0)` is the null
    /// model; `scaled(1.0)` is `self`. Scaling a valid model always yields a
    /// valid model: rates clamp at 1 and the stuck pair is renormalized when
    /// its scaled sum would exceed 1.
    pub fn scaled(&self, severity: f64) -> FaultModel {
        let s = severity.max(0.0);
        let rate = |r: f64| (r * s).clamp(0.0, 1.0);
        let (mut on, mut off) = (rate(self.stuck_on_rate), rate(self.stuck_off_rate));
        if on + off > 1.0 {
            let k = 1.0 / (on + off);
            on *= k;
            off *= k;
        }
        FaultModel {
            stuck_on_rate: on,
            stuck_off_rate: off,
            read_sigma: (self.read_sigma * s).max(0.0),
            drift: rate(self.drift),
            dead_wordline_rate: rate(self.dead_wordline_rate),
            dead_bitline_rate: rate(self.dead_bitline_rate),
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// What one [`FaultInjector::inject`] call actually did: entity totals and
/// the number of faults that landed on each. All counts are exact, so
/// property tests can check that configured rates are honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Crossbar-mapped parameter tensors visited.
    pub layers: usize,
    /// Logical weights read through the device model.
    pub weights: usize,
    /// Weights touched by a discrete fault (stuck device or dead line).
    pub weights_faulted: usize,
    /// RRAM devices read (`weights × slices × 2` for processed layers).
    pub devices: usize,
    /// Devices stuck at G_on.
    pub stuck_on: usize,
    /// Devices stuck at G_off.
    pub stuck_off: usize,
    /// Physical wordlines spanned by the mapping.
    pub wordlines: usize,
    /// Wordlines drawn dead.
    pub dead_wordlines: usize,
    /// Physical bitlines spanned by the mapping.
    pub bitlines: usize,
    /// Bitlines drawn dead.
    pub dead_bitlines: usize,
}

impl FaultReport {
    /// Fraction of devices carrying a stuck-at fault.
    pub fn stuck_fraction(&self) -> f64 {
        (self.stuck_on + self.stuck_off) as f64 / self.devices.max(1) as f64
    }
}

/// Per-device read result (conductance normalized to full scale).
struct DeviceRead {
    g: f64,
    /// No enabled knob touched this device: the integer fast path applies.
    pristine: bool,
    stuck: bool,
}

/// Applies a [`FaultModel`] to a trained network through its chip mapping.
///
/// The injector is bound to one `(model, mapping, config)` triple at
/// construction; [`FaultInjector::inject`] then perturbs the crossbar-mapped
/// parameters (those with weight decay: conv and linear weights) of any
/// network whose geometry matches the mapping.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: FaultModel,
    layers: Vec<MappedLayer>,
    crossbar_size: usize,
    levels: i64,
    slices: usize,
    device_bits: u32,
    device_levels_max: u64,
    prog_sigma: f64,
    g_min: f64,
}

impl FaultInjector {
    /// Builds an injector for a pre-computed mapping.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for invalid hardware parameters
    /// or an invalid fault model.
    pub fn new(model: FaultModel, mapping: &ChipMapping, config: &HardwareConfig) -> Result<Self> {
        config.validate()?;
        model.validate()?;
        Ok(FaultInjector {
            model,
            layers: mapping.layers().to_vec(),
            crossbar_size: config.crossbar_size,
            levels: 1i64 << (config.weight_bits - 1),
            slices: config.slices_per_weight(),
            device_bits: config.device_bits,
            device_levels_max: (1u64 << config.device_bits) - 1,
            prog_sigma: config.sigma_over_mu,
            g_min: 1.0 / config.r_off_ratio,
        })
    }

    /// Convenience constructor: maps `geometries` onto `config` first.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChipMapping::map`] and [`FaultInjector::new`].
    pub fn for_geometry(
        model: FaultModel,
        geometries: &[LayerGeometry],
        config: &HardwareConfig,
    ) -> Result<Self> {
        let mapping = ChipMapping::map(geometries, config)?;
        FaultInjector::new(model, &mapping, config)
    }

    /// The bound fault model.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Programs the network onto the faulty substrate and reads it back:
    /// every crossbar-mapped parameter is quantized, sliced onto devices,
    /// passed through the per-device fault chain and reconstructed. BN
    /// parameters and biases (digital) are untouched.
    ///
    /// All randomness comes from a single forked stream consumed in a fixed
    /// order (per layer: wordline draws, then bitline draws, then per-weight
    /// slice draws, positive device before reference), so one seed fully
    /// determines the damaged network for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::NetworkMismatch`] when the network's
    /// crossbar-mapped parameters disagree with the bound mapping (count or
    /// per-layer element count).
    pub fn inject(&self, network: &mut Snn, rng: &mut TensorRng) -> Result<FaultReport> {
        // validation pass: the decayed params must align 1:1 with the mapping
        let mut shapes: Vec<usize> = Vec::new();
        network.visit_params(&mut |p| {
            if p.decay {
                shapes.push(p.value.data().len());
            }
        });
        if shapes.len() != self.layers.len() {
            return Err(ImcError::NetworkMismatch(format!(
                "network has {} crossbar-mapped parameters, mapping has {} layers",
                shapes.len(),
                self.layers.len()
            )));
        }
        for (i, (&elems, layer)) in shapes.iter().zip(&self.layers).enumerate() {
            if elems != layer.rows * layer.cols {
                return Err(ImcError::NetworkMismatch(format!(
                    "layer {i}: parameter has {elems} weights, mapping expects {}×{}",
                    layer.rows, layer.cols
                )));
            }
        }
        let mut local = rng.fork(0xFA01);
        let mut report = FaultReport::default();
        let mut li = 0usize;
        network.visit_params(&mut |p| {
            if !p.decay {
                return;
            }
            let layer = self.layers[li];
            li += 1;
            let scale = p.value.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if scale <= 0.0 {
                // an all-zero tensor maps to all-off devices; nothing to read
                return;
            }
            report.layers += 1;
            report.weights += layer.rows * layer.cols;
            // dead-line tables, drawn per physical line in a fixed order
            let wordlines = layer.rows * layer.col_segments;
            let bitlines = layer.row_segments * layer.physical_cols;
            report.wordlines += wordlines;
            report.bitlines += bitlines;
            let dead_wl: Vec<bool> = if self.model.dead_wordline_rate > 0.0 {
                (0..wordlines)
                    .map(|_| local.bernoulli(self.model.dead_wordline_rate as f32))
                    .collect()
            } else {
                Vec::new()
            };
            let dead_bl: Vec<bool> = if self.model.dead_bitline_rate > 0.0 {
                (0..bitlines)
                    .map(|_| local.bernoulli(self.model.dead_bitline_rate as f32))
                    .collect()
            } else {
                Vec::new()
            };
            report.dead_wordlines += dead_wl.iter().filter(|&&d| d).count();
            report.dead_bitlines += dead_bl.iter().filter(|&&d| d).count();
            let delta = scale / self.levels as f32;
            for (i, w) in p.value.data_mut().iter_mut().enumerate() {
                // unrolled weight matrix is [fan_in, fan_out] column-major
                // over the flat [out, in] parameter: element i sits at
                // wordline row = i % rows, logical column col = i / rows
                let col = i / layer.rows;
                let row = i % layer.rows;
                let q = ((*w / delta).round() as i64).clamp(-self.levels, self.levels - 1);
                let magnitude = q.unsigned_abs();
                let sign = if q < 0 { -1.0f32 } else { 1.0f32 };
                let mut level_sum = 0.0f64;
                let mut weight_of_slice = 1u64 << (self.device_bits * (self.slices as u32 - 1));
                let mut faulted = false;
                for s in 0..self.slices {
                    let lvl = (magnitude >> (self.device_bits * (self.slices - 1 - s) as u32))
                        & self.device_levels_max;
                    let pos_col = (col * self.slices + s) * 2;
                    let ref_col = pos_col + 1;
                    let pos_dead = self.line_dead(&layer, &dead_wl, &dead_bl, row, pos_col);
                    let ref_dead = self.line_dead(&layer, &dead_wl, &dead_bl, row, ref_col);
                    let pos = self.read_device(lvl, &mut local, &mut report);
                    let refr = self.read_device(0, &mut local, &mut report);
                    if pos.stuck || refr.stuck || pos_dead || ref_dead {
                        faulted = true;
                    }
                    if pos.pristine && refr.pristine && !pos_dead && !ref_dead {
                        // integer fast path: an untouched differential pair
                        // reads back the exact programmed level
                        level_sum += lvl as f64 * weight_of_slice as f64;
                    } else {
                        let g_pos = if pos_dead { 0.0 } else { pos.g };
                        let g_ref = if ref_dead { 0.0 } else { refr.g };
                        let lvl_read =
                            (g_pos - g_ref) / (1.0 - self.g_min) * self.device_levels_max as f64;
                        level_sum += lvl_read * weight_of_slice as f64;
                    }
                    weight_of_slice >>= self.device_bits;
                }
                report.weights_faulted += faulted as usize;
                *w = sign * (level_sum as f32) * delta;
            }
        });
        Ok(report)
    }

    /// Whether the line carrying (`row`, physical column `pc`) is dead.
    fn line_dead(
        &self,
        layer: &MappedLayer,
        dead_wl: &[bool],
        dead_bl: &[bool],
        row: usize,
        pc: usize,
    ) -> bool {
        // a wordline is one crossbar row: indexed by (row, column segment);
        // a bitline is one physical column within a row segment
        let wl = !dead_wl.is_empty() && dead_wl[row * layer.col_segments + pc / self.crossbar_size];
        let bl = !dead_bl.is_empty() && dead_bl[(row / self.crossbar_size) * layer.physical_cols + pc];
        wl || bl
    }

    /// One device through the fault chain; see the module docs for the
    /// ordering. Draws are skipped entirely for disabled knobs, so a null
    /// model consumes no randomness and stays on the integer fast path.
    fn read_device(&self, lvl: u64, rng: &mut TensorRng, report: &mut FaultReport) -> DeviceRead {
        report.devices += 1;
        let mut pristine = true;
        let mut g = self.g_min + (lvl as f64 / self.device_levels_max as f64) * (1.0 - self.g_min);
        if self.prog_sigma > 0.0 {
            g *= 1.0 + rng.normal(0.0, self.prog_sigma as f32) as f64;
            pristine = false;
        }
        let mut stuck = false;
        if self.model.stuck_on_rate > 0.0 && rng.bernoulli(self.model.stuck_on_rate as f32) {
            g = 1.0;
            stuck = true;
            report.stuck_on += 1;
        } else if self.model.stuck_off_rate > 0.0
            && rng.bernoulli(self.model.stuck_off_rate as f32)
        {
            g = self.g_min;
            stuck = true;
            report.stuck_off += 1;
        }
        if stuck {
            pristine = false;
        } else if self.model.drift > 0.0 {
            g = self.g_min + (g - self.g_min) * (1.0 - self.model.drift);
            pristine = false;
        }
        if self.model.read_sigma > 0.0 {
            g *= 1.0 + rng.normal(0.0, self.model.read_sigma as f32) as f64;
            pristine = false;
        }
        DeviceRead { g, pristine, stuck }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsnn_tensor::quant::quantize_dequantize;
    use dtsnn_snn::{vgg_small, Layer, Linear, Flatten, ModelConfig};
    use dtsnn_tensor::parallel;

    fn decayed_params(net: &mut Snn) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| {
            if p.decay {
                out.push(p.value.data().to_vec());
            }
        });
        out
    }

    fn all_params(net: &mut Snn) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| out.push(p.value.data().to_vec()));
        out
    }

    /// One 128×128 FC layer: rows 128, physical cols 512 under the default
    /// config, big enough for rate statistics.
    fn fc_fixture(seed: u64) -> (Snn, Vec<LayerGeometry>) {
        let mut rng = TensorRng::seed_from(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(128, 128, &mut rng)),
        ];
        (Snn::from_layers(layers), vec![LayerGeometry::Fc { in_features: 128, out_features: 128 }])
    }

    #[test]
    fn null_model_with_zero_sigma_is_bitwise_quantization() {
        let cfg = HardwareConfig { sigma_over_mu: 0.0, ..HardwareConfig::default() };
        let model_cfg = ModelConfig { num_classes: 4, ..ModelConfig::default() };
        let mut rng = TensorRng::seed_from(11);
        let mut net = vgg_small(&model_cfg, &mut rng).unwrap();
        let before = all_params(&mut net);
        let before_decay = decayed_params(&mut net);
        let walk = net.weight_layers(&model_cfg.input_dims()).unwrap();
        let geometry: Vec<_> = walk.into_iter().map(|(g, _)| g).collect();
        let inj = FaultInjector::for_geometry(FaultModel::none(), &geometry, &cfg).unwrap();
        let report = inj.inject(&mut net, &mut rng).unwrap();
        assert_eq!(report.stuck_on + report.stuck_off, 0);
        assert_eq!(report.dead_wordlines + report.dead_bitlines, 0);
        assert_eq!(report.weights_faulted, 0);
        assert!(report.devices > 0);
        // decayed params reduce bitwise to quantize_dequantize
        let mut di = 0;
        let mut pi = 0;
        net.visit_params(&mut |p| {
            if p.decay {
                let orig = &before_decay[di];
                let scale = orig.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                for (a, &o) in p.value.data().iter().zip(orig) {
                    let want = quantize_dequantize(o, scale, 8);
                    assert_eq!(a.to_bits(), want.to_bits(), "{o} → {a} vs {want}");
                }
                di += 1;
            } else {
                assert_eq!(p.value.data(), before[pi].as_slice(), "digital param touched");
            }
            pi += 1;
        });
    }

    #[test]
    fn programming_variation_is_zero_mean_and_grows_with_sigma() {
        // a 1→2001 layer: 2000 independent reads of 0.5 at full scale 1.0
        let n = 2000;
        let spread = |sigma: f64| {
            let mut rng = TensorRng::seed_from(3);
            let fc = Linear::new(1, n + 1, &mut rng);
            let mut net = Snn::from_layers(vec![Box::new(fc) as Box<dyn Layer>]);
            net.visit_params(&mut |p| {
                if p.decay {
                    p.value.data_mut().fill(0.5);
                    p.value.data_mut()[n] = 1.0;
                }
            });
            let cfg = HardwareConfig { sigma_over_mu: sigma, ..HardwareConfig::default() };
            let geom = [LayerGeometry::Fc { in_features: 1, out_features: n + 1 }];
            let inj = FaultInjector::for_geometry(FaultModel::none(), &geom, &cfg).unwrap();
            inj.inject(&mut net, &mut rng).unwrap();
            let reads = decayed_params(&mut net).remove(0);
            let reads = &reads[..n];
            let mean = reads.iter().sum::<f32>() / n as f32;
            let var = reads.iter().map(|r| (r - mean).powi(2)).sum::<f32>() / n as f32;
            (mean, var.sqrt())
        };
        let (mean, std) = spread(0.20);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!(std > 0.01 && std < 0.2, "std {std}");
        assert!(spread(0.40).1 > 2.0 * spread(0.05).1);
    }

    #[test]
    fn stuck_rates_are_honored_within_tolerance() {
        let cfg = HardwareConfig { sigma_over_mu: 0.0, ..HardwareConfig::default() };
        let (mut net, geom) = fc_fixture(21);
        let model = FaultModel {
            stuck_on_rate: 0.05,
            stuck_off_rate: 0.10,
            ..FaultModel::none()
        };
        let inj = FaultInjector::for_geometry(model, &geom, &cfg).unwrap();
        let mut rng = TensorRng::seed_from(22);
        let report = inj.inject(&mut net, &mut rng).unwrap();
        // 128×128 weights × 2 slices × 2 devices = 65536 devices
        assert_eq!(report.devices, 128 * 128 * 4);
        let on = report.stuck_on as f64 / report.devices as f64;
        // off draws only happen on devices not stuck on
        let off = report.stuck_off as f64 / (report.devices as f64 * (1.0 - 0.05));
        assert!((on - 0.05).abs() < 0.01, "stuck-on rate {on}");
        assert!((off - 0.10).abs() < 0.01, "stuck-off rate {off}");
        assert!(report.weights_faulted > 0);
    }

    #[test]
    fn dead_line_rates_are_honored_within_tolerance() {
        let cfg = HardwareConfig { sigma_over_mu: 0.0, ..HardwareConfig::default() };
        let (mut net, geom) = fc_fixture(31);
        let model = FaultModel {
            dead_wordline_rate: 0.10,
            dead_bitline_rate: 0.20,
            ..FaultModel::none()
        };
        let inj = FaultInjector::for_geometry(model, &geom, &cfg).unwrap();
        let mut rng = TensorRng::seed_from(32);
        let report = inj.inject(&mut net, &mut rng).unwrap();
        // 128 rows × 8 col segments = 1024 wordlines; 2 row segments × 512
        // physical cols = 1024 bitlines
        assert_eq!(report.wordlines, 1024);
        assert_eq!(report.bitlines, 1024);
        let wl = report.dead_wordlines as f64 / report.wordlines as f64;
        let bl = report.dead_bitlines as f64 / report.bitlines as f64;
        assert!((wl - 0.10).abs() < 0.05, "dead-wordline rate {wl}");
        assert!((bl - 0.20).abs() < 0.06, "dead-bitline rate {bl}");
    }

    #[test]
    fn all_lines_dead_reads_every_weight_as_zero() {
        let cfg = HardwareConfig { sigma_over_mu: 0.0, ..HardwareConfig::default() };
        for model in [
            FaultModel { dead_wordline_rate: 1.0, ..FaultModel::none() },
            FaultModel { dead_bitline_rate: 1.0, ..FaultModel::none() },
        ] {
            let (mut net, geom) = fc_fixture(41);
            let inj = FaultInjector::for_geometry(model, &geom, &cfg).unwrap();
            let mut rng = TensorRng::seed_from(42);
            let report = inj.inject(&mut net, &mut rng).unwrap();
            assert_eq!(report.weights_faulted, report.weights);
            for t in decayed_params(&mut net) {
                assert!(t.iter().all(|&v| v == 0.0), "dead lines must zero all reads");
            }
        }
    }

    #[test]
    fn unfaulted_weights_stay_on_the_quantization_grid() {
        // discrete faults only: every weight either carries a fault or reads
        // back exactly its quantized value (fault locality)
        let cfg = HardwareConfig { sigma_over_mu: 0.0, ..HardwareConfig::default() };
        let (mut net, geom) = fc_fixture(51);
        let before = decayed_params(&mut net);
        let model = FaultModel {
            stuck_on_rate: 0.01,
            stuck_off_rate: 0.02,
            dead_wordline_rate: 0.01,
            ..FaultModel::none()
        };
        let inj = FaultInjector::for_geometry(model, &geom, &cfg).unwrap();
        let mut rng = TensorRng::seed_from(52);
        let report = inj.inject(&mut net, &mut rng).unwrap();
        let after = decayed_params(&mut net);
        let scale = before[0].iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let changed = before[0]
            .iter()
            .zip(&after[0])
            .filter(|(&o, &a)| a.to_bits() != quantize_dequantize(o, scale, 8).to_bits())
            .count();
        assert!(changed > 0, "faults must be visible");
        assert!(
            changed <= report.weights_faulted,
            "{changed} off-grid weights vs {} faulted",
            report.weights_faulted
        );
    }

    #[test]
    fn injection_is_deterministic_and_thread_invariant() {
        let cfg = HardwareConfig::default();
        let model = FaultModel {
            stuck_on_rate: 0.02,
            stuck_off_rate: 0.03,
            read_sigma: 0.05,
            drift: 0.05,
            dead_wordline_rate: 0.01,
            dead_bitline_rate: 0.01,
        };
        let run = |threads: usize| {
            parallel::with_threads(threads, || {
                let (mut net, geom) = fc_fixture(61);
                let inj = FaultInjector::for_geometry(model, &geom, &cfg).unwrap();
                let mut rng = TensorRng::seed_from(62);
                let report = inj.inject(&mut net, &mut rng).unwrap();
                (decayed_params(&mut net), report)
            })
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b, "same seed must reproduce the damaged network");
        let c = run(4);
        assert_eq!(a, c, "injection must be thread-count invariant");
    }

    #[test]
    fn drift_pulls_magnitudes_toward_zero() {
        let cfg = HardwareConfig { sigma_over_mu: 0.0, ..HardwareConfig::default() };
        let (mut net, geom) = fc_fixture(71);
        let before = decayed_params(&mut net);
        let model = FaultModel { drift: 0.5, ..FaultModel::none() };
        let inj = FaultInjector::for_geometry(model, &geom, &cfg).unwrap();
        let mut rng = TensorRng::seed_from(72);
        inj.inject(&mut net, &mut rng).unwrap();
        let after = decayed_params(&mut net);
        let norm = |v: &[f32]| v.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        assert!(
            norm(&after[0]) < 0.9 * norm(&before[0]),
            "50% drift must shrink the weight norm"
        );
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let cfg = HardwareConfig::default();
        let (_, geom) = fc_fixture(81);
        let inj = FaultInjector::for_geometry(FaultModel::none(), &geom, &cfg).unwrap();
        let mut rng = TensorRng::seed_from(82);
        let mut other = {
            let mut r = TensorRng::seed_from(83);
            let layers: Vec<Box<dyn Layer>> =
                vec![Box::new(Flatten::new()), Box::new(Linear::new(64, 32, &mut r))];
            Snn::from_layers(layers)
        };
        assert!(matches!(
            inj.inject(&mut other, &mut rng),
            Err(ImcError::NetworkMismatch(_))
        ));
    }

    #[test]
    fn model_validation_and_scaling() {
        assert!(FaultModel::none().validate().is_ok());
        assert!(FaultModel { stuck_on_rate: -0.1, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { stuck_off_rate: 1.5, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { stuck_on_rate: 0.6, stuck_off_rate: 0.6, ..FaultModel::none() }
            .validate()
            .is_err());
        assert!(FaultModel { read_sigma: -1.0, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { drift: 2.0, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { drift: f64::NAN, ..FaultModel::none() }.validate().is_err());
        let base = FaultModel {
            stuck_on_rate: 0.4,
            stuck_off_rate: 0.3,
            read_sigma: 0.1,
            drift: 0.2,
            dead_wordline_rate: 0.6,
            dead_bitline_rate: 0.01,
        };
        assert!(base.scaled(0.0).is_null());
        assert_eq!(base.scaled(1.0), base);
        let hot = base.scaled(2.0);
        assert_eq!(hot.dead_wordline_rate, 1.0, "rates must clamp at 1");
        assert!(hot.validate().is_ok(), "scaling a valid model must stay valid");
        assert!(hot.stuck_on_rate + hot.stuck_off_rate <= 1.0 + 1e-12);
        assert!((hot.read_sigma - 0.2).abs() < 1e-12);
        assert!(base.scaled(-3.0).is_null(), "negative severity clamps to null");
    }
}
