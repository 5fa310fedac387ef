//! The carried-state walk of `Snn` (`reset_state` / `compact_batch` /
//! `admit_batch_rows`, all through `Layer::visit_carried`) against the only
//! reference that matters: a row that lived through any schedule of forwards,
//! compactions, admissions and resets equals that sample run alone, bit for
//! bit. Untrained `vgg_small` and `resnet_small`, so the walk crosses plain
//! LIF layers and the three carried slots nested in a `ResidualBlock`.

use dtsnn_snn::{resnet_small, vgg_small, Mode, ModelConfig, Snn, SnnError};
use dtsnn_tensor::{Tensor, TensorError, TensorRng};

/// Longest life of a row, in timesteps.
const T_MAX: usize = 5;

type Builder = fn(&ModelConfig, &mut TensorRng) -> dtsnn_snn::Result<Snn>;

fn nets() -> Vec<(&'static str, Snn)> {
    let config = ModelConfig { in_channels: 2, image_size: 8, num_classes: 3, width: 4, ..ModelConfig::default() };
    let builders: [(&'static str, Builder); 2] = [("vgg_small", vgg_small), ("resnet_small", resnet_small)];
    builders
        .into_iter()
        .map(|(name, build)| (name, build(&config, &mut TensorRng::seed_from(0xCA22)).unwrap()))
        .collect()
}

/// One frame per timestep of a sample's life, strong enough to make the
/// untrained net spike.
fn sample_frames(rng: &mut TensorRng) -> Vec<Tensor> {
    (0..T_MAX).map(|_| Tensor::randn(&[1, 2, 8, 8], 0.5, 2.0, rng)).collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Logits of the sample's solo run, one entry per timestep.
fn solo_run(proto: &Snn, frames: &[Tensor]) -> Vec<Vec<u32>> {
    let mut net = proto.clone();
    net.reset_state();
    frames.iter().map(|f| bits(net.forward_timestep(f, Mode::Eval).unwrap().data())).collect()
}

/// Every carried tensor of the network, in walk order.
fn carried(net: &mut Snn) -> Vec<Option<(Vec<usize>, Vec<u32>)>> {
    let mut out = Vec::new();
    for node in net.layers_mut() {
        node.layer.visit_carried(&mut |slot| {
            out.push(slot.as_ref().map(|u| (u.dims().to_vec(), bits(u.data()))));
        });
    }
    out
}

struct Row {
    frames: Vec<Tensor>,
    solo: Vec<Vec<u32>>,
    t: usize,
}

#[test]
fn rows_of_a_random_schedule_equal_their_solo_runs() {
    for (name, proto) in nets() {
        for seed in 0..6u64 {
            let mut rng = TensorRng::seed_from(0x5C4ED ^ seed);
            let mut net = proto.clone();
            net.reset_state();
            let mut rows: Vec<Row> = Vec::new();
            let (mut forwards, mut compactions, mut admissions, mut spiked) = (0, 0, 0, false);
            for op in 0..60 {
                let tag = format!("{name} seed {seed} op {op}");
                // rows at the end of their life leave first, as an exit would
                // take them
                if rows.iter().any(|r| r.t == T_MAX) {
                    let keep: Vec<usize> = (0..rows.len()).filter(|&r| rows[r].t < T_MAX).collect();
                    net.compact_batch(&keep).unwrap();
                    rows.retain(|r| r.t < T_MAX);
                }
                match rng.below(6) {
                    0 if rows.len() > 1 => {
                        // any subset, the empty one included
                        let keep: Vec<usize> =
                            (0..rows.len()).filter(|_| rng.bernoulli(0.6)).collect();
                        net.compact_batch(&keep).unwrap();
                        let mut row = 0;
                        rows.retain(|_| {
                            row += 1;
                            keep.contains(&(row - 1))
                        });
                        compactions += 1;
                    }
                    1 if rows.len() < 6 => {
                        let extra = 1 + rng.below(3);
                        net.admit_batch_rows(extra).unwrap();
                        for _ in 0..extra {
                            let frames = sample_frames(&mut rng);
                            let solo = solo_run(&proto, &frames);
                            rows.push(Row { frames, solo, t: 0 });
                        }
                        admissions += 1;
                    }
                    2 if rng.bernoulli(0.3) => {
                        net.reset_state();
                        rows.clear();
                    }
                    _ if !rows.is_empty() => {
                        let frames: Vec<&Tensor> = rows.iter().map(|r| &r.frames[r.t]).collect();
                        let input = Tensor::concat_axis0(&frames).unwrap();
                        let logits = net.forward_timestep(&input, Mode::Eval).unwrap();
                        let classes = logits.dims()[1];
                        for (r, row) in rows.iter_mut().enumerate() {
                            let got = bits(&logits.data()[r * classes..(r + 1) * classes]);
                            assert_eq!(got, row.solo[row.t], "{tag}: row {r} at t {}", row.t);
                            row.t += 1;
                        }
                        net.recycle(logits);
                        spiked |= net.take_activity().mean() > 0.0;
                        forwards += 1;
                    }
                    _ => {}
                }
            }
            assert!(forwards > 10 && compactions > 0 && admissions > 1, "{name} seed {seed}: vacuous");
            assert!(spiked, "{name} seed {seed}: a silent net carries no state worth testing");
        }
    }
}

#[test]
fn an_out_of_range_row_is_a_typed_error_that_touches_no_layer() {
    for (name, proto) in nets() {
        let mut rng = TensorRng::seed_from(0xBAD);
        let frames: Vec<Tensor> = (0..2).map(|_| Tensor::randn(&[3, 2, 8, 8], 0.5, 2.0, &mut rng)).collect();
        let mut net = proto.clone();
        net.reset_state();
        net.forward_timestep(&frames[0], Mode::Eval).unwrap();
        let before = carried(&mut net);
        assert!(before.iter().flatten().count() >= 5, "{name}: every LIF carries a membrane");
        for rows in [&[0usize, 3][..], &[7], &[1, usize::MAX]] {
            let err = net.compact_batch(rows).unwrap_err();
            assert!(
                matches!(err, SnnError::Tensor(TensorError::InvalidArgument(_))),
                "{name}: {err:?}"
            );
            assert_eq!(carried(&mut net), before, "{name}: a rejected compaction left a mark");
        }
        // and the window goes on as if nothing had been asked
        let mut untouched = proto.clone();
        untouched.reset_state();
        untouched.forward_timestep(&frames[0], Mode::Eval).unwrap();
        assert_eq!(
            bits(net.forward_timestep(&frames[1], Mode::Eval).unwrap().data()),
            bits(untouched.forward_timestep(&frames[1], Mode::Eval).unwrap().data()),
            "{name}"
        );
    }
}
