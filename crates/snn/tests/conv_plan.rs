//! The packed-weight plan a `Conv2d` caches across timesteps must never
//! outlive the weights it was packed from, and clones must not share it.

use dtsnn_snn::{load_params, save_params, Conv2d, Layer, Mode, Snn};
use dtsnn_tensor::{Tensor, TensorRng, Workspace};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn conv(seed: u64) -> Conv2d {
    Conv2d::new(3, 5, 3, 1, 1, &mut TensorRng::seed_from(seed)).unwrap()
}

fn spikes(seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from(seed);
    let mut x = Tensor::zeros(&[2, 3, 6, 7]);
    for v in x.data_mut() {
        *v = f32::from(u8::from(rng.bernoulli(0.3)));
    }
    x
}

/// A never-warmed layer holding `layer`'s current parameters (and its
/// quantization opt-in, when `bits` is given).
fn rebuilt(layer: &mut Conv2d, quant_bits: Option<u32>) -> Conv2d {
    let mut values = Vec::new();
    layer.visit_params(&mut |p| values.push(p.value.clone()));
    let mut fresh = conv(999);
    let mut values = values.into_iter();
    fresh.visit_params(&mut |p| p.value = values.next().unwrap());
    if let Some(b) = quant_bits {
        fresh.quantize_weights(b);
    }
    fresh
}

#[test]
fn mutating_weights_after_warm_up_never_serves_a_stale_plan() {
    type Mutation = (&'static str, Option<u32>, fn(&mut Conv2d));
    let mutations: [Mutation; 3] = [
        ("weight_mut", None, |c| c.weight_mut().map_inplace(|v| v * 0.5 - 0.01)),
        ("visit_params", None, |c| c.visit_params(&mut |p| p.value.map_inplace(|v| v + 0.25))),
        ("quantize_weights", Some(4), |c| c.quantize_weights(4)),
    ];
    let x = spikes(7);
    for mode in [Mode::Eval, Mode::Train] {
        for (name, quant_bits, mutate) in mutations {
            let mut ws = Workspace::new();
            let mut layer = conv(1);
            let warm = layer.forward_ws(&x, mode, &mut ws).unwrap();
            mutate(&mut layer);
            let got = layer.forward_ws(&x, mode, &mut ws).unwrap();
            let want = rebuilt(&mut layer, quant_bits).forward_ws(&x, mode, &mut ws).unwrap();
            assert_eq!(bits(&got), bits(&want), "{name} in {mode:?}");
            if mode == Mode::Eval {
                assert_ne!(bits(&got), bits(&warm), "{name} must change the output");
            }
        }
    }
}

#[test]
fn load_params_after_warm_up_never_serves_a_stale_plan() {
    let path = std::env::temp_dir().join(format!("dtsnn-conv-plan-{}", std::process::id()));
    let net = |seed| Snn::from_layers(vec![Box::new(conv(seed))]);
    save_params(&mut net(2), &path).unwrap();
    let x = spikes(8);
    let mut warmed = net(1);
    let before = warmed.forward_timestep(&x, Mode::Eval).unwrap();
    load_params(&mut warmed, &path).unwrap();
    let got = warmed.forward_timestep(&x, Mode::Eval).unwrap();
    let want = net(2).forward_timestep(&x, Mode::Eval).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(bits(&got), bits(&want));
    assert_ne!(bits(&got), bits(&before));
}

#[test]
fn clones_own_their_plans() {
    let x = spikes(9);
    let mut original = conv(1);
    let mut ws = Workspace::new();
    let warm = original.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
    let mut clone = original.clone_box();
    // the clone repacks from its own weights; the original's plan is untouched
    clone.visit_params(&mut |p| p.value.map_inplace(|v| -v));
    let cloned = clone.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
    assert_eq!(bits(&original.forward_ws(&x, Mode::Eval, &mut ws).unwrap()), bits(&warm));
    assert_ne!(bits(&cloned), bits(&warm));
    // warmed clones running side by side, as the data-parallel harness does
    let mut workers: Vec<Box<dyn Layer>> = (0..4).map(|_| original.clone_box()).collect();
    std::thread::scope(|scope| {
        for worker in &mut workers {
            let (x, warm) = (&x, &warm);
            scope.spawn(move || {
                let mut ws = Workspace::new();
                for _ in 0..50 {
                    let out = worker.forward_ws(x, Mode::Eval, &mut ws).unwrap();
                    assert_eq!(bits(&out), bits(warm));
                    ws.recycle_tensor(out);
                }
            });
        }
    });
}
