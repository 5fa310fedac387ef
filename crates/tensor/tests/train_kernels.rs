//! The Train-path kernels — BatchNorm's grouped forward and backward
//! (`simd::bn_train_forward` / `simd::bn_train_backward`) and the average
//! pool's backward — against the per-channel and per-window loops they
//! replaced, kept here verbatim as the oracles, bit for bit (NaN
//! canonicalised) at every SIMD tier.
//!
//! In its own process: the tests flip the process-wide SIMD override.

use dtsnn_tensor::simd::{self, BnTrainState, SimdLevel};
use dtsnn_tensor::{avg_pool2d_backward, PoolSpec, Tensor, TensorRng, Workspace};

/// Bit patterns with every NaN mapped to one pattern (its sign and payload
/// are not pinned).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn levels() -> Vec<SimdLevel> {
    SimdLevel::ALL.iter().copied().filter(|&l| l <= simd::detected()).collect()
}

/// Normal noise; when `special`, every 13th element from `offset` is one of
/// ±inf, NaN and −0.0.
fn noise(len: usize, special: bool, offset: usize, rng: &mut TensorRng) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    rng.fill_normal(&mut v, 0.3, 1.0);
    if special {
        let values = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
        for (i, x) in v.iter_mut().enumerate().skip(offset).step_by(13) {
            *x = values[(i / 13) % values.len()];
        }
    }
    v
}

/// `v` (`[n, c, plane]`) with every 5th channel from `first` overwritten by
/// [`noise`] with specials.
fn poison_channels(mut v: Vec<f32>, [n, c, plane]: [usize; 3], first: usize, rng: &mut TensorRng) -> Vec<f32> {
    for ni in 0..n {
        for ci in (first..c).step_by(5) {
            let at = (ni * c + ci) * plane;
            v[at..at + plane].copy_from_slice(&noise(plane, true, ni % plane, rng));
        }
    }
    v
}

/// Today's BatchNorm Train forward loop, verbatim but for its buffers:
/// `(y, x̂, inv_std)`, the running statistics updated in place.
#[allow(clippy::too_many_arguments)]
fn bn_forward_oracle(
    x: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    gamma: &[f32],
    beta: &[f32],
    momentum: f32,
    eps: f32,
    running_mean: &mut [f32],
    running_var: &mut [f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let plane = h * w;
    let mut out = vec![0.0f32; x.len()];
    let m = (n * plane) as f32;
    for ci in 0..c {
        let mut mean = 0.0;
        for ni in 0..n {
            let base = (ni * c + ci) * plane;
            for p in 0..plane {
                mean += x[base + p];
            }
        }
        mean /= m;
        let mut var = 0.0;
        for ni in 0..n {
            let base = (ni * c + ci) * plane;
            for p in 0..plane {
                let d = x[base + p] - mean;
                var += d * d;
            }
        }
        var /= m;
        running_mean[ci] = (1.0 - momentum) * running_mean[ci] + momentum * mean;
        running_var[ci] = (1.0 - momentum) * running_var[ci] + momentum * var;
    }
    let mut x_hat = vec![0.0f32; x.len()];
    let mut inv_stds = vec![0.0f32; c];
    for (ci, inv_slot) in inv_stds.iter_mut().enumerate() {
        let mean = running_mean[ci];
        let inv_std = 1.0 / (running_var[ci] + eps).sqrt();
        *inv_slot = inv_std;
        let g = gamma[ci];
        let b = beta[ci];
        for ni in 0..n {
            let base = (ni * c + ci) * plane;
            for p in 0..plane {
                let xh = (x[base + p] - mean) * inv_std;
                x_hat[base + p] = xh;
                out[base + p] = g * xh + b;
            }
        }
    }
    (out, x_hat, inv_stds)
}

/// Today's BatchNorm backward loop, verbatim but for its buffers: `dx`,
/// with `Σdy` and `Σdy·x̂` added into the β and γ gradients.
#[allow(clippy::too_many_arguments)]
fn bn_backward_oracle(
    grad_out: &[f32],
    x_hat: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    gamma: &[f32],
    inv_stds: &[f32],
    beta_grad: &mut [f32],
    gamma_grad: &mut [f32],
) -> Vec<f32> {
    let plane = h * w;
    let mut gx = vec![0.0f32; grad_out.len()];
    for ci in 0..c {
        let g = gamma[ci];
        let inv_std = inv_stds[ci];
        let mut sum_dy = 0.0;
        let mut sum_dy_xh = 0.0;
        let k = g * inv_std;
        for ni in 0..n {
            let base = (ni * c + ci) * plane;
            for p in 0..plane {
                let dy = grad_out[base + p];
                sum_dy += dy;
                sum_dy_xh += dy * x_hat[base + p];
                gx[base + p] = k * dy;
            }
        }
        beta_grad[ci] += sum_dy;
        gamma_grad[ci] += sum_dy_xh;
    }
    gx
}

/// Today's average-pool backward loop, verbatim but for its buffers.
fn pool_backward_oracle(
    src: &[f32],
    [n, c, oh, ow]: [usize; 4],
    spec: &PoolSpec,
    (h, w): (usize, usize),
) -> Vec<f32> {
    let k = spec.kernel;
    let inv = 1.0 / (k * k) as f32;
    let mut dst = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            let obase = (ni * c + ci) * oh * ow;
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = src[obase + oy * ow + ox] * inv;
                    for ky in 0..k {
                        let row = base + (oy * spec.stride + ky) * w + ox * spec.stride;
                        for kx in 0..k {
                            dst[row + kx] += g;
                        }
                    }
                }
            }
        }
    }
    dst
}

#[test]
fn batchnorm_train_kernels_match_the_per_channel_loops_bitwise() {
    // channel counts below, at and off the reduction group (8); planes of
    // 1, 16 and 256; specials in every 5th channel of the input and of the
    // gradient (one of them poisons that channel's sums, so the others stay
    // finite and order-sensitive)
    let mut rng = TensorRng::seed_from(0xB17);
    for c in [1usize, 3, 16, 17, 35] {
        for n in [0usize, 1, 16] {
            for (h, w) in [(1usize, 1usize), (4, 4), (16, 16)] {
                let (plane, len) = (h * w, n * c * h * w);
                let x = poison_channels(noise(len, false, 0, &mut rng), [n, c, plane], 3, &mut rng);
                let gamma = noise(c, false, 0, &mut rng);
                let beta = noise(c, false, 0, &mut rng);
                let stats0: Vec<f32> = noise(c, false, 0, &mut rng);
                let var0: Vec<f32> = stats0.iter().map(|v| v.abs() + 0.5).collect();
                let dy = poison_channels(noise(len, false, 0, &mut rng), [n, c, plane], 1, &mut rng);
                let grads0 = noise(c, false, 0, &mut rng);
                let (mut rm, mut rv) = (stats0.clone(), var0.clone());
                let dims = (n, c, h, w);
                let (y, x_hat, inv_std) =
                    bn_forward_oracle(&x, dims, &gamma, &beta, 0.1, 1e-5, &mut rm, &mut rv);
                let (mut bg, mut gg) = (grads0.clone(), grads0.clone());
                let dx = bn_backward_oracle(&dy, &x_hat, dims, &gamma, &inv_std, &mut bg, &mut gg);
                let want = [&y, &x_hat, &inv_std, &rm, &rv, &dx, &bg, &gg].map(|v| bits(v));
                for level in levels() {
                    let got = simd::with_level(level, || {
                        let (mut rm, mut rv) = (stats0.clone(), var0.clone());
                        let (mut y, mut x_hat) = (vec![f32::NAN; len], vec![f32::NAN; len]);
                        let mut inv_std = vec![f32::NAN; c];
                        let st = BnTrainState {
                            gamma: &gamma,
                            beta: &beta,
                            momentum: 0.1,
                            eps: 1e-5,
                            running_mean: &mut rm,
                            running_var: &mut rv,
                        };
                        simd::bn_train_forward(&x, [n, c, plane], st, &mut inv_std, &mut x_hat, &mut y);
                        let k: Vec<f32> = gamma.iter().zip(&inv_std).map(|(&g, &s)| g * s).collect();
                        let (mut bg, mut gg) = (grads0.clone(), grads0.clone());
                        let mut dx = vec![f32::NAN; len];
                        simd::bn_train_backward(&dy, &x_hat, [n, c, plane], &k, &mut bg, &mut gg, &mut dx);
                        [&y, &x_hat, &inv_std, &rm, &rv, &dx, &bg, &gg].map(|v| bits(v))
                    });
                    let names = ["y", "x_hat", "inv_std", "running_mean", "running_var", "dx", "dbeta", "dgamma"];
                    for ((name, want), got) in names.iter().zip(&want).zip(&got) {
                        assert_eq!(want, got, "{name}: c={c} n={n} {h}x{w} {level:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn pool_backward_matches_the_per_window_loop_bitwise() {
    // 2×2 / 2 (the literal instantiation) and every other window through the
    // accumulating loop: k = stride, k < stride (with gaps) and k > stride
    // (overlapping); extents that drop a remainder;
    // planes of 1, 16 and 256; ±inf, NaN and -0.0 in the gradient
    let mut rng = TensorRng::seed_from(0x9001);
    let mut ws = Workspace::new();
    for (k, stride) in [(2, 2), (3, 3), (1, 1), (1, 2), (2, 3), (3, 2), (3, 1)] {
        let spec = PoolSpec::new(k, stride).unwrap();
        for n in [0usize, 1, 16] {
            for (h, w) in [(1usize, 1usize), (4, 4), (16, 16), (5, 7)] {
                let Ok((oh, ow)) = spec.output_hw(h, w) else { continue };
                let dims = [n, 3, oh, ow];
                let g = noise(dims.iter().product(), true, 2, &mut rng);
                let want = bits(&pool_backward_oracle(&g, dims, &spec, (h, w)));
                let g = Tensor::from_vec(g, &dims).unwrap();
                for level in levels() {
                    let got =
                        simd::with_level(level, || avg_pool2d_backward(&g, &spec, (h, w), &mut ws));
                    let got = got.unwrap();
                    assert_eq!(got.dims(), &[n, 3, h, w]);
                    assert_eq!(want, bits(got.data()), "k={k} s={stride} n={n} {h}x{w} {level:?}");
                    ws.recycle_tensor(got);
                }
            }
        }
    }
    // a -0.0 gradient lands as +0.0, as the zeroed buffer's `+=` gave it
    let g = Tensor::from_vec(vec![-0.0; 4], &[1, 1, 2, 2]).unwrap();
    for level in levels() {
        let spec = PoolSpec::new(2, 2).unwrap();
        let gx = simd::with_level(level, || avg_pool2d_backward(&g, &spec, (4, 4), &mut ws));
        let gx = gx.unwrap();
        assert!(gx.data().iter().all(|v| v.to_bits() == 0), "{level:?}");
    }
}
