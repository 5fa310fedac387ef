//! The input-prefix cache of `Snn` (per-row conv1 + BN1 outputs reused while
//! a row's input stays bit-identical) against a cache-free reference: every
//! layer in order through `layers_mut` + `forward_ws`, which never sees the
//! cache. Logits, carried membranes and per-row densities must match bit for
//! bit through any schedule of forwards, compactions, admissions and resets,
//! and through every route that may change a prefix layer; the prefix-row
//! counters must say exactly which rows were reused.
//!
//! Untrained `vgg_small` and `resnet_small` with every parameter nudged off
//! its initial value, so a prefix output is never the zero padding of an
//! admitted row. The SIMD tier is flipped process-wide per case (every tier
//! computes the same bits, so the tests of this binary cannot disturb each
//! other).

use dtsnn_snn::{
    load_params, resnet_small, save_params, vgg_small, Mode, ModelConfig, PrefixStats, Snn, State,
};
use dtsnn_tensor::{simd, SimdLevel, Tensor, TensorRng, Workspace};

/// Longest life of a row, in timesteps.
const T_MAX: usize = 5;

type Builder = fn(&ModelConfig, &mut TensorRng) -> dtsnn_snn::Result<Snn>;

fn nets() -> Vec<(&'static str, Snn)> {
    let config = ModelConfig { in_channels: 2, image_size: 8, num_classes: 3, width: 4, ..ModelConfig::default() };
    let builders: [(&'static str, Builder); 2] = [("vgg_small", vgg_small), ("resnet_small", resnet_small)];
    builders
        .into_iter()
        .map(|(name, build)| {
            let mut rng = TensorRng::seed_from(0x9EF1);
            let mut net = build(&config, &mut rng).unwrap();
            net.visit_params(&mut |p| {
                let noise = Tensor::randn(p.value.dims(), 0.0, 0.2, &mut rng);
                p.value.axpy(1.0, &noise).unwrap();
            });
            (name, net)
        })
        .collect()
}

/// Every SIMD tier the cases run under.
fn levels() -> Vec<SimdLevel> {
    SimdLevel::ALL.into_iter().filter(|&l| l <= simd::detected()).collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Everything a step leaves behind that the cache could corrupt.
#[derive(Debug, PartialEq)]
struct Observed {
    logits: Vec<u32>,
    densities: Vec<Vec<u32>>,
    membranes: Vec<Option<(Vec<usize>, Vec<u32>)>>,
}

/// Reads `net`'s state without dropping its cache: a clone's `layers_mut`
/// walks the same membranes, the original keeps its cached rows.
fn observe(net: &Snn, logits: &Tensor) -> Observed {
    let densities = net.last_spike_row_densities().unwrap().iter().map(|d| bits(d)).collect();
    let mut copy = net.clone();
    let mut membranes = Vec::new();
    for node in copy.layers_mut() {
        node.layer.visit_carried(&mut |slot| {
            membranes.push(slot.as_ref().map(|u| (u.dims().to_vec(), bits(u.data()))));
        });
    }
    Observed { logits: bits(logits.data()), densities, membranes }
}

/// The network under test and its cache-free twin, stepped in lockstep.
struct Pair {
    net: Snn,
    reference: Snn,
    ws: Workspace,
}

impl Pair {
    fn new(proto: &Snn) -> Pair {
        let (mut net, mut reference) = (proto.clone(), proto.clone());
        net.reset_state();
        reference.reset_state();
        Pair { net, reference, ws: Workspace::new() }
    }

    /// One timestep on both; asserts they agree and returns the prefix rows
    /// the network reused and recomputed during it.
    fn step(&mut self, input: &Tensor, mode: Mode, tag: &str) -> PrefixStats {
        let before = self.net.prefix_stats();
        let got = self.net.forward_timestep(input, mode).unwrap();
        let mut x: Option<Tensor> = None;
        for node in self.reference.layers_mut() {
            let y = node.layer.forward_ws(x.as_ref().unwrap_or(input), mode, &mut self.ws).unwrap();
            x = Some(y);
        }
        let want = x.unwrap();
        if mode == Mode::Eval {
            assert_eq!(observe(&self.net, &got), observe(&self.reference, &want), "{tag}");
        }
        let after = self.net.prefix_stats();
        PrefixStats {
            reused: after.reused - before.reused,
            recomputed: after.recomputed - before.recomputed,
        }
    }

    fn compact(&mut self, keep: &[usize]) {
        self.net.compact_batch(keep).unwrap();
        self.reference.compact_batch(keep).unwrap();
    }

    fn admit(&mut self, extra: usize) {
        self.net.admit_batch_rows(extra).unwrap();
        self.reference.admit_batch_rows(extra).unwrap();
    }

    fn reset(&mut self) {
        self.net.reset_state();
        self.reference.reset_state();
    }
}

/// A row's input over its life: one static frame, a new frame every step,
/// or nothing but zeros (the value an admitted row's cached input is padded
/// with).
struct Row {
    frames: Vec<Tensor>,
    t: usize,
    /// The input the row's cached prefix output was computed from, `None`
    /// while the row has none (admitted, or the cache was dropped).
    cached: Option<Vec<u32>>,
}

impl Row {
    fn new(rng: &mut TensorRng) -> Row {
        let frames = match rng.below(3) {
            0 => vec![Tensor::randn(&[1, 2, 8, 8], 0.5, 2.0, rng)],
            1 => (0..T_MAX).map(|_| Tensor::randn(&[1, 2, 8, 8], 0.5, 2.0, rng)).collect(),
            _ => vec![Tensor::zeros(&[1, 2, 8, 8])],
        };
        Row { frames, t: 0, cached: None }
    }

    fn frame(&self) -> &Tensor {
        &self.frames[self.t.min(self.frames.len() - 1)]
    }
}

#[test]
fn random_schedules_equal_the_cache_free_reference_and_count_every_reuse() {
    for level in levels() {
        simd::with_level(level, || random_schedules(level));
    }
}

fn random_schedules(level: SimdLevel) {
    for (name, proto) in nets() {
        let (mut partial_steps, mut admissions, mut compactions, mut spiked) = (0, 0, 0, false);
        for seed in 0..4u64 {
            let mut rng = TensorRng::seed_from(0x9A11 ^ seed);
            let mut pair = Pair::new(&proto);
            let mut rows: Vec<Row> = Vec::new();
            for op in 0..50 {
                let tag = format!("{name} seed {seed} op {op} {level:?}");
                if rows.iter().any(|r| r.t == T_MAX) {
                    let keep: Vec<usize> = (0..rows.len()).filter(|&r| rows[r].t < T_MAX).collect();
                    pair.compact(&keep);
                    rows.retain(|r| r.t < T_MAX);
                }
                match rng.below(6) {
                    0 if rows.len() > 1 => {
                        let keep: Vec<usize> = (0..rows.len()).filter(|_| rng.bernoulli(0.6)).collect();
                        pair.compact(&keep);
                        let mut row = 0;
                        rows.retain(|_| {
                            row += 1;
                            keep.contains(&(row - 1))
                        });
                        compactions += 1;
                    }
                    1 if rows.len() < 6 => {
                        let extra = 1 + rng.below(3);
                        pair.admit(extra);
                        rows.extend((0..extra).map(|_| Row::new(&mut rng)));
                        admissions += 1;
                    }
                    2 if rng.bernoulli(0.2) => {
                        pair.reset();
                        rows.clear();
                    }
                    _ if !rows.is_empty() => {
                        let frames: Vec<&Tensor> = rows.iter().map(Row::frame).collect();
                        let input = Tensor::concat_axis0(&frames).unwrap();
                        // a row reuses iff its cached input is this step's
                        let mut want = PrefixStats::default();
                        for row in &mut rows {
                            let now = bits(row.frame().data());
                            if row.cached.as_ref() == Some(&now) {
                                want.reused += 1;
                            } else {
                                want.recomputed += 1;
                            }
                            row.cached = Some(now);
                            row.t += 1;
                        }
                        let got = pair.step(&input, Mode::Eval, &tag);
                        assert_eq!(got, want, "{tag}: prefix rows");
                        partial_steps += usize::from(got.reused > 0 && got.recomputed > 0);
                        spiked |= pair.net.take_activity().mean() > 0.0;
                    }
                    _ => {}
                }
            }
        }
        assert!(
            partial_steps > 8 && admissions > 4 && compactions > 2 && spiked,
            "{name}: vacuous ({partial_steps} partial steps, {admissions} admissions, \
             {compactions} compactions, spiked {spiked})"
        );
    }
}

/// Three static rows, two Eval steps: the second reuses all three.
fn warmed(proto: &Snn, x: &Tensor) -> Pair {
    let mut pair = Pair::new(proto);
    assert_eq!(pair.step(x, Mode::Eval, "first").recomputed, 3);
    assert_eq!(pair.step(x, Mode::Eval, "second").reused, 3);
    pair
}

#[test]
fn a_reset_and_every_route_that_may_change_a_prefix_layer_force_a_recompute() {
    let path = std::env::temp_dir().join(format!("dtsnn-input-prefix-{}", std::process::id()));
    type Route = (&'static str, fn(&mut Snn, &Tensor, &std::path::Path));
    let routes: [Route; 6] = [
        ("reset_state", |net, _, _| net.reset_state()),
        ("layers_mut weight edit", |net, _, _| {
            let first = &mut net.layers_mut()[0].layer;
            first.visit_state(&mut |s| {
                if let State::Param(p) = s {
                    p.value.map_inplace(|v| v * 0.5 - 0.01);
                }
            });
        }),
        ("visit_state", |net, _, _| {
            net.visit_state(&mut |s| match s {
                State::Param(p) => p.value.map_inplace(|v| v + 0.05),
                State::Buffer(b) => b.iter_mut().for_each(|v| *v += 0.05),
            })
        }),
        ("load_params", |net, _, path| load_params(net, path).unwrap()),
        ("freeze_norm_stats", |net, _, _| net.freeze_norm_stats()),
        ("Train forward", |net, x, _| drop(net.forward_timestep(x, Mode::Train).unwrap())),
    ];
    for level in levels() {
        simd::with_level(level, || {
            for (name, proto) in nets() {
                let mut other = proto.clone();
                other.visit_params(&mut |p| p.value.map_inplace(|v| -v));
                save_params(&mut other, &path).unwrap();
                let x = Tensor::randn(&[3, 2, 8, 8], 0.5, 2.0, &mut TensorRng::seed_from(5));
                for (route, apply) in routes {
                    let tag = format!("{name} {route} {level:?}");
                    let mut pair = warmed(&proto, &x);
                    apply(&mut pair.net, &x, &path);
                    apply(&mut pair.reference, &x, &path);
                    let after = pair.step(&x, Mode::Eval, &tag);
                    assert_eq!(after, PrefixStats { reused: 0, recomputed: 3 }, "{tag}");
                    let again = pair.step(&x, Mode::Eval, &tag);
                    assert_eq!(again, PrefixStats { reused: 3, recomputed: 0 }, "{tag}");
                }
            }
        })
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_admitted_row_of_zeros_is_recomputed_although_it_matches_the_padding() {
    for level in levels() {
        simd::with_level(level, || {
            for (name, proto) in nets() {
                let tag = format!("{name} {level:?}");
                let mut rng = TensorRng::seed_from(11);
                let two = Tensor::randn(&[2, 2, 8, 8], 0.5, 2.0, &mut rng);
                let mut pair = Pair::new(&proto);
                pair.step(&two, Mode::Eval, &tag);
                pair.admit(1);
                let three = Tensor::concat_axis0(&[&two, &Tensor::zeros(&[1, 2, 8, 8])]).unwrap();
                let got = pair.step(&three, Mode::Eval, &tag);
                assert_eq!(got, PrefixStats { reused: 2, recomputed: 1 }, "{tag}");
                // and from then on the zero row's entry is a real one
                let got = pair.step(&three, Mode::Eval, &tag);
                assert_eq!(got, PrefixStats { reused: 3, recomputed: 0 }, "{tag}");
            }
        })
    }
}

#[test]
fn event_inputs_never_reuse_a_prefix_row() {
    for level in levels() {
        simd::with_level(level, || {
            for (name, proto) in nets() {
                let tag = format!("{name} {level:?}");
                let mut rng = TensorRng::seed_from(13);
                let mut pair = Pair::new(&proto);
                for t in 0..T_MAX {
                    let frame = Tensor::randn(&[3, 2, 8, 8], 0.5, 2.0, &mut rng);
                    let got = pair.step(&frame, Mode::Eval, &format!("{tag} t {t}"));
                    assert_eq!(got, PrefixStats { reused: 0, recomputed: 3 }, "{tag} t {t}");
                }
            }
        })
    }
}
