//! Property-based tests of the hardware model: mapping arithmetic, cost
//! additivity, device-model bounds.
//!
//! Cases come from a seeded [`TensorRng`] (48 per property, matching the
//! previous proptest configuration) so failures reproduce from the case index
//! alone and the suite needs no external crates.

use dtsnn_imc::{
    exact_normalized_entropy, ChipMapping, CostModel, FaultInjector, FaultModel, HardwareConfig,
    SigmaEModule,
};
use dtsnn_snn::{Layer, LayerGeometry, Linear, Snn};
use dtsnn_tensor::quant::quantize_dequantize;
use dtsnn_tensor::TensorRng;

const CASES: u64 = 48;

fn case_rng(case: u64) -> TensorRng {
    TensorRng::seed_from(0x1AC ^ case.wrapping_mul(0x9E37_79B9))
}

fn conv_geometry(cin: usize, cout: usize, k: usize, hw: usize) -> LayerGeometry {
    LayerGeometry::Conv {
        in_channels: cin,
        out_channels: cout,
        kernel: k,
        stride: 1,
        padding: k / 2,
        in_h: hw,
        in_w: hw,
    }
}

#[test]
fn mapping_covers_all_weights() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let cin = 1 + params.below(63);
        let cout = 1 + params.below(127);
        let k = [1usize, 3, 5][params.below(3)];
        let hw = 4 + params.below(12);
        let config = HardwareConfig::default();
        let g = [conv_geometry(cin, cout, k, hw)];
        let m = ChipMapping::map(&g, &config).unwrap();
        let layer = &m.layers()[0];
        // every physical column/row is covered by the allocated crossbars
        assert!(layer.row_segments * config.crossbar_size >= layer.rows, "case {case}");
        assert!(layer.col_segments * config.crossbar_size >= layer.physical_cols, "case {case}");
        assert_eq!(layer.crossbars, layer.row_segments * layer.col_segments, "case {case}");
        assert!(layer.tiles * config.crossbars_per_tile >= layer.crossbars, "case {case}");
        let u = m.utilization();
        assert!(u > 0.0 && u <= 1.0, "case {case}: utilization {u}");
    }
}

#[test]
fn energy_is_additive_over_layers() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let cout1 = 2 + params.below(30);
        let cout2 = 2 + params.below(30);
        let density = params.uniform(0.05, 0.9);
        // the cost of a two-layer network equals the sum of the single-layer
        // costs at the same densities
        let config = HardwareConfig::default();
        let g1 = conv_geometry(3, cout1, 3, 8);
        let g2 = conv_geometry(cout1, cout2, 3, 8);
        let both =
            CostModel::new(ChipMapping::map(&[g1, g2], &config).unwrap(), config.clone()).unwrap();
        let only1 =
            CostModel::new(ChipMapping::map(&[g1], &config).unwrap(), config.clone()).unwrap();
        let only2 =
            CostModel::new(ChipMapping::map(&[g2], &config).unwrap(), config.clone()).unwrap();
        let e_both = both.timestep_energy(&[1.0, density]).unwrap().total();
        let e_sum = only1.timestep_energy(&[1.0]).unwrap().total()
            + only2.timestep_energy(&[density]).unwrap().total();
        // the last layer of every mapping is the classifier and skips LIF
        // energy, so the stacked network carries exactly one extra LIF term
        // for its (now non-final) first layer
        let lif_extra = both.mapping().layers()[0].output_neurons as f64
            * both.config().energy.lif_update;
        assert!(
            (e_both - (e_sum + lif_extra)).abs() < 1e-6 * e_sum.max(1.0),
            "case {case}: both {e_both} vs sum {e_sum} + lif {lif_extra}"
        );
    }
}

#[test]
fn latency_additive_and_pipeline_bounded() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let cout1 = 2 + params.below(30);
        let cout2 = 2 + params.below(30);
        let config = HardwareConfig::default();
        let g = [conv_geometry(3, cout1, 3, 8), conv_geometry(cout1, cout2, 3, 8)];
        let model = CostModel::new(ChipMapping::map(&g, &config).unwrap(), config).unwrap();
        // the bottleneck stage can never exceed the full traversal
        assert!(model.bottleneck_stage_cycles() <= model.timestep_latency(), "case {case}");
    }
}

#[test]
fn device_read_error_is_bounded() {
    let geometry = [LayerGeometry::Fc { in_features: 1, out_features: 2 }];
    for case in 0..CASES {
        let mut params = case_rng(case);
        let w = params.uniform(-1.0, 1.0);
        let sigma = params.uniform(0.0, 0.3) as f64;
        let config = HardwareConfig { sigma_over_mu: sigma, ..HardwareConfig::default() };
        let injector = FaultInjector::for_geometry(FaultModel::none(), &geometry, &config).unwrap();
        // a 1→2 layer holding {w, 1.0}: full scale 1, as a unit-scale read
        let fc = Linear::new(1, 2, &mut params);
        let mut net = Snn::from_layers(vec![Box::new(fc) as Box<dyn Layer>]);
        net.visit_params(&mut |p| {
            if p.decay {
                p.value.data_mut().copy_from_slice(&[w, 1.0]);
            }
        });
        injector.inject(&mut net, &mut TensorRng::seed_from(case)).unwrap();
        let mut read = f32::NAN;
        net.visit_params(&mut |p| {
            if p.decay {
                read = p.value.data()[0];
            }
        });
        assert!(read.is_finite(), "case {case}");
        // reads stay within a generous envelope of the true value
        assert!((read - w).abs() < 1.0 + 4.0 * sigma as f32, "case {case}: w={w} read={read}");
    }
}

#[test]
fn quantization_error_bounded_by_one_lsb() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let w = params.uniform(-1.0, 1.0);
        let bits = 2 + params.below(8) as u32;
        let q = quantize_dequantize(w, 1.0, bits);
        let lsb = 1.0 / (1i64 << (bits - 1)) as f32;
        // half an LSB inside the representable range; up to one LSB at the
        // positive rail, where the signed code clamps at scale − LSB
        let bound = if w > 1.0 - lsb { lsb } else { 0.5 * lsb };
        assert!((q - w).abs() <= bound + 1e-6, "case {case}: w={w} q={q} lsb={lsb}");
    }
}

#[test]
fn sigma_e_entropy_in_unit_interval() {
    for case in 0..CASES {
        let mut params = case_rng(case);
        let len = 4 + params.below(12);
        let logits: Vec<f32> = (0..len).map(|_| params.uniform(-8.0, 8.0)).collect();
        let theta = params.uniform(0.05, 0.95);
        let module = SigmaEModule::new(&HardwareConfig::default()).unwrap();
        let r = module.evaluate(&logits, theta).unwrap();
        assert!((0.0..=1.0).contains(&r.entropy), "case {case}");
        let s: f32 = r.probabilities.iter().sum();
        assert!((s - 1.0).abs() < 1e-3, "case {case}");
        // exit decision is consistent with the reported entropy
        assert_eq!(r.exit, r.entropy < theta, "case {case}");
        // LUT entropy close to exact entropy of the LUT's own distribution
        let exact = exact_normalized_entropy(&r.probabilities);
        assert!((r.entropy - exact).abs() < 0.05, "case {case}");
    }
}
