//! Tier-1 reaches the convolution kernel: the direct spike-scatter forward
//! against the im2col + matmul reference on every conv shape of the two
//! reference networks, and the committed golden traces replayed through it —
//! each at every SIMD level the host supports, so the widest build is
//! compared with the narrower ones here too, not only by the full gate.

use dt_snn::snn::{resnet_small_geometry, vgg_small_geometry, LayerGeometry, ModelConfig};
use dt_snn::tensor::simd::{self, SimdLevel};
use dt_snn::tensor::{conv2d, conv2d_ws, Conv2dSpec, ConvPlan, Tensor, TensorRng, Workspace};
use dtsnn_conformance::trace::{compare, load_golden, record, TraceSpec};
use std::sync::Mutex;

/// Tests that pin the process-wide level serialize here.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once at every level the host supports.
fn at_every_level(mut f: impl FnMut(SimdLevel)) {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for level in SimdLevel::ALL.into_iter().filter(|&l| l <= simd::detected()) {
        simd::with_level(level, || f(level));
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Raw and planned direct forward against the reference on one geometry,
/// over what the layers see: analog frames, binary spikes, avg-pooled spikes.
fn check(spec: &Conv2dSpec, [in_h, in_w]: [usize; 2], rng: &mut TensorRng, ws: &mut Workspace) {
    let weight = Tensor::kaiming(&spec.weight_dims(), spec.patch_len(), rng);
    let bias = Tensor::randn(&[spec.out_channels], 0.0, 0.1, rng);
    let plan = ConvPlan::new(&weight, spec).unwrap();
    let level = simd::level();
    for (kind, n) in [("analog", 1), ("binary", 1), ("binary", 3), ("pooled", 3)] {
        let mut x = Tensor::zeros(&[n, spec.in_channels, in_h, in_w]);
        for v in x.data_mut() {
            *v = match kind {
                "analog" => rng.uniform(-1.0, 1.0),
                "binary" => f32::from(u8::from(rng.bernoulli(0.2))),
                _ => rng.below(5) as f32 * 0.25,
            };
        }
        let want = bits(&conv2d(&x, &weight, Some(&bias), spec).unwrap());
        let raw = conv2d_ws(&x, &weight, Some(&bias), spec, ws).unwrap();
        let planned = plan.forward(&x, Some(&bias), ws).unwrap();
        assert_eq!(want, bits(&raw), "{spec:?} {in_h}x{in_w} {kind} n={n} {level:?}");
        assert_eq!(want, bits(&planned), "{spec:?} {in_h}x{in_w} {kind} n={n} {level:?} (plan)");
        ws.recycle_tensor(raw);
        ws.recycle_tensor(planned);
    }
}

#[test]
fn direct_kernel_matches_reference_on_the_model_layer_shapes() {
    let cfg = ModelConfig::default();
    let mut convs = Vec::new();
    for geometry in vgg_small_geometry(&cfg).into_iter().chain(resnet_small_geometry(&cfg)) {
        let LayerGeometry::Conv { in_channels, out_channels, kernel, stride, padding, in_h, in_w } =
            geometry
        else {
            continue;
        };
        let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding).unwrap();
        convs.push((spec, [in_h, in_w]));
    }
    assert_eq!(convs.len(), 11, "5 vgg_small + 6 resnet_small conv shapes");
    at_every_level(|_| {
        let mut rng = TensorRng::seed_from(0x5CA77E2);
        let mut ws = Workspace::new();
        for (spec, in_hw) in &convs {
            check(spec, *in_hw, &mut rng, &mut ws);
        }
    });
}

#[test]
fn direct_kernel_matches_reference_where_the_fast_path_clips() {
    // what no model shape reaches: an input smaller than the kernel but not
    // than its padded self (every pixel clipped at both borders), and rows
    // of exactly one 64-element nonzero word and one element more
    at_every_level(|_| {
        let mut rng = TensorRng::seed_from(0xFA57);
        let mut ws = Workspace::new();
        for (kernel, padding, in_h, in_w) in [(5, 2, 2, 2), (3, 1, 3, 64), (3, 1, 3, 65)] {
            let spec = Conv2dSpec::new(2, 8, kernel, 1, padding).unwrap();
            check(&spec, [in_h, in_w], &mut rng, &mut ws);
        }
    });
}

#[test]
fn committed_goldens_replay_through_the_direct_kernel() {
    at_every_level(|level| {
        for spec in [TraceSpec::vgg_default(), TraceSpec::resnet_default()] {
            let golden = load_golden(&spec).expect("load committed golden");
            let live = record(&spec).expect("record live trace");
            let diffs = compare(&golden, &live);
            let name = spec.golden_name();
            assert!(diffs.is_empty(), "{name} drifted at {level:?}:\n  {}", diffs.join("\n  "));
        }
    });
}
