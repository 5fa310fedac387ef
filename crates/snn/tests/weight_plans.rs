//! The packed-weight plans `Conv2d` (`ConvPlan`) and `Linear` (`LinearPlan`)
//! cache across timesteps must never outlive the weights they were packed
//! from, and clones must not share them.

use dtsnn_snn::{load_params, save_params, Conv2d, Layer, Linear, Mode, Param, Snn, State};
use dtsnn_tensor::{Tensor, TensorRng, Workspace};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A weight layer with a packed plan: how to build one and feed it spikes.
trait Planned: Layer + Clone + 'static {
    fn fresh(seed: u64) -> Self;
    fn input_dims() -> Vec<usize>;
}

impl Planned for Conv2d {
    fn fresh(seed: u64) -> Self {
        Conv2d::new(3, 5, 3, 1, 1, &mut TensorRng::seed_from(seed)).unwrap()
    }
    fn input_dims() -> Vec<usize> {
        vec![2, 3, 6, 7]
    }
}

impl Planned for Linear {
    fn fresh(seed: u64) -> Self {
        // 70 inputs: the kernel's nonzero scan crosses a 64-input word; 18
        // outputs: a full 16-column group and a ragged one
        Linear::new(70, 18, &mut TensorRng::seed_from(seed))
    }
    fn input_dims() -> Vec<usize> {
        vec![3, 70]
    }
}

/// Runs `f` on every parameter of `layer`'s state walk.
fn each_param(layer: &mut dyn Layer, mut f: impl FnMut(&mut Param)) {
    layer.visit_state(&mut |s| {
        if let State::Param(p) = s {
            f(p);
        }
    });
}

fn spikes<L: Planned>(seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from(seed);
    let mut x = Tensor::zeros(&L::input_dims());
    for v in x.data_mut() {
        *v = f32::from(u8::from(rng.bernoulli(0.3)));
    }
    x
}

/// A never-warmed layer holding `layer`'s current parameters.
fn rebuilt<L: Planned>(layer: &mut L) -> L {
    let mut values = Vec::new();
    each_param(layer, |p| values.push(p.value.clone()));
    let mut fresh = L::fresh(999);
    let mut values = values.into_iter();
    each_param(&mut fresh, |p| p.value = values.next().unwrap());
    fresh
}

fn mutations_never_serve_a_stale_plan<L: Planned>() {
    let x = spikes::<L>(7);
    for mode in [Mode::Eval, Mode::Train] {
        let kind = L::fresh(1).kind();
        let mut ws = Workspace::new();
        let mut layer = L::fresh(1);
        let warm = layer.forward_ws(&x, mode, &mut ws).unwrap();
        each_param(&mut layer, |p| p.value.map_inplace(|v| v + 0.25));
        let got = layer.forward_ws(&x, mode, &mut ws).unwrap();
        let want = rebuilt(&mut layer).forward_ws(&x, mode, &mut ws).unwrap();
        assert_eq!(bits(&got), bits(&want), "{kind} visit_state in {mode:?}");
        assert_ne!(bits(&got), bits(&warm), "{kind} visit_state must change the output");
    }
}

#[test]
fn mutating_weights_after_warm_up_never_serves_a_stale_plan() {
    mutations_never_serve_a_stale_plan::<Conv2d>();
    mutations_never_serve_a_stale_plan::<Linear>();
}

fn load_params_never_serves_a_stale_plan<L: Planned>() {
    let kind = L::fresh(1).kind();
    let path = std::env::temp_dir().join(format!("dtsnn-{kind}-plan-{}", std::process::id()));
    let net = |seed| Snn::from_layers(vec![Box::new(L::fresh(seed))]);
    save_params(&mut net(2), &path).unwrap();
    let x = spikes::<L>(8);
    let mut warmed = net(1);
    let before = warmed.forward_timestep(&x, Mode::Eval).unwrap();
    load_params(&mut warmed, &path).unwrap();
    let got = warmed.forward_timestep(&x, Mode::Eval).unwrap();
    let want = net(2).forward_timestep(&x, Mode::Eval).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(bits(&got), bits(&want), "{kind}");
    assert_ne!(bits(&got), bits(&before), "{kind}");
}

#[test]
fn load_params_after_warm_up_never_serves_a_stale_plan() {
    load_params_never_serves_a_stale_plan::<Conv2d>();
    load_params_never_serves_a_stale_plan::<Linear>();
}

fn clones_own_plans<L: Planned>() {
    let x = spikes::<L>(9);
    let mut original = L::fresh(1);
    let mut ws = Workspace::new();
    let warm = original.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
    let mut clone = original.clone_box();
    // the clone repacks from its own weights; the original's plan is untouched
    each_param(clone.as_mut(), |p| p.value.map_inplace(|v| -v));
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

#[test]
fn clones_own_their_plans() {
    clones_own_plans::<Conv2d>();
    clones_own_plans::<Linear>();
}
