//! Extension — event-driven sparse kernels vs the blocked dense kernels,
//! plus the zero-allocation timestep loop.
//!
//! Part 1 times the three hot kernels (`matmul`, `matmul_nt`, `conv2d`) on
//! spike-shaped operands at densities 1%, 10%, 50% and fully dense, once
//! with the sparse path forced off (density threshold −1) and once forced
//! on (+1). Both paths are bitwise identical — asserted here per density —
//! so the only thing that changes is wall-clock. The expected shape: sparse
//! wins big at 1%, still wins at 10%, and loses above the default 25%
//! threshold (which is why the dispatch threshold sits there). The `conv2d`
//! row is the im2col + matmul reference, the only convolution the
//! threshold still steers; the `conv2d_ws` row sets the direct scatter
//! kernel (its "sparse" column — it has no dense twin) against that
//! reference's dense time.
//!
//! Part 2 runs the full VGG backbone through the dynamic-timestep runner
//! and proves the workspace claim: after one warm-up sample, the Eval
//! timestep loop performs **zero** heap allocations (`misses == 0` while
//! `takes` keeps counting).
//!
//! Results go to `bench-results/kernel_speedup.json` with `host_cores`
//! recorded, since kernel timings only compare within one host.

use dtsnn_bench::{json, print_table, time_it, write_json};
use dtsnn_core::{DynamicInference, ExitPolicy};
use dtsnn_snn::{vgg_small, LifConfig, ModelConfig};
use dtsnn_tensor::{conv2d, conv2d_ws, simd, sparse, Conv2dSpec, Tensor, TensorRng, Workspace};

/// A [0,1) tensor thresholded into a binary spike pattern of the given
/// density (the operand shape the event-driven path is built for).
fn spikes(dims: &[usize], density: f32, rng: &mut TensorRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = if rng.bernoulli(density) { 1.0 } else { 0.0 };
    }
    t
}

fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
    let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
    let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ab, bb, "{what}: sparse and dense paths must agree bitwise");
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.3} ms", secs * 1e3)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = TensorRng::seed_from(0x5EED);
    let densities = [0.01f32, 0.10, 0.50, 1.0];

    // kernel operands, sized like one mid-network layer of the scaled nets
    let b_mat = Tensor::randn(&[256, 128], 0.0, 1.0, &mut rng); // matmul rhs [k, n]
    let w_nt = Tensor::randn(&[128, 256], 0.0, 1.0, &mut rng); // matmul_nt rhs [n, k]
    let spec = Conv2dSpec::new(8, 16, 3, 1, 1)?;
    let w_conv = Tensor::randn(&spec.weight_dims(), 0.0, 0.2, &mut rng);
    let bias = Tensor::zeros(&[16]);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_points = Vec::new();
    for &density in &densities {
        let a = spikes(&[128, 256], density, &mut rng);
        let x_conv = spikes(&[2, 8, 16, 16], density, &mut rng);

        // parity first, then timings (timings reuse the same inputs)
        let mm_d = sparse::with_density_threshold(-1.0, || a.matmul(&b_mat))?;
        let mm_s = sparse::with_density_threshold(1.0, || a.matmul(&b_mat))?;
        assert_bitwise(&mm_d, &mm_s, "matmul");
        let nt_d = sparse::with_density_threshold(-1.0, || a.matmul_nt(&w_nt))?;
        let nt_s = sparse::with_density_threshold(1.0, || a.matmul_nt(&w_nt))?;
        assert_bitwise(&nt_d, &nt_s, "matmul_nt");
        let mut ws = Workspace::new();
        let reference = |threshold: f32| {
            sparse::with_density_threshold(threshold, || {
                conv2d(&x_conv, &w_conv, Some(&bias), &spec).map(|(out, _cols)| out)
            })
        };
        let cv_d = reference(-1.0)?;
        assert_bitwise(&cv_d, &reference(1.0)?, "conv2d");
        let direct = conv2d_ws(&x_conv, &w_conv, Some(&bias), &spec, &mut ws)?;
        assert_bitwise(&cv_d, &direct, "conv2d_ws");
        ws.recycle_tensor(direct);

        let conv_dense_s = time_it(|| reference(-1.0).unwrap());
        let mut point = vec![json!({"density": density})];
        for (kernel, dense_s, sparse_s) in [
            (
                "matmul",
                sparse::with_density_threshold(-1.0, || time_it(|| a.matmul(&b_mat).unwrap())),
                sparse::with_density_threshold(1.0, || time_it(|| a.matmul(&b_mat).unwrap())),
            ),
            (
                "matmul_nt",
                sparse::with_density_threshold(-1.0, || time_it(|| a.matmul_nt(&w_nt).unwrap())),
                sparse::with_density_threshold(1.0, || time_it(|| a.matmul_nt(&w_nt).unwrap())),
            ),
            ("conv2d", conv_dense_s, time_it(|| reference(1.0).unwrap())),
            (
                "conv2d_ws",
                conv_dense_s,
                time_it(|| {
                    let out = conv2d_ws(&x_conv, &w_conv, Some(&bias), &spec, &mut ws).unwrap();
                    ws.recycle_tensor(out);
                }),
            ),
        ] {
            let speedup = dense_s / sparse_s;
            rows.push(vec![
                format!("{:.0}%", density * 100.0),
                kernel.into(),
                fmt_time(dense_s),
                fmt_time(sparse_s),
                format!("{speedup:.2}×"),
            ]);
            point.push(json!({
                "kernel": kernel,
                "dense_secs": dense_s,
                "sparse_secs": sparse_s,
                "sparse_speedup": speedup,
            }));
        }
        json_points.push(json::Value::Array(point));
    }
    print_table(
        "sparse vs dense kernels (bitwise-identical outputs)",
        &["density", "kernel", "dense", "sparse", "speedup"],
        &rows,
    );

    // ---- part 2: the zero-allocation timestep loop -------------------------
    let model_cfg = ModelConfig {
        in_channels: 2,
        image_size: 16,
        num_classes: 5,
        lif: LifConfig { v_th: 1.0, tau: 0.75, ..LifConfig::default() },
        width: 8,
        // untrained Eval nets need the calibrated tdBN gain to spike at all
        tdbn_alpha: 6.0,
        dropout: 0.0,
    };
    let t_max = 4;
    let mut net = vgg_small(&model_cfg, &mut TensorRng::seed_from(11))?;
    let runner = DynamicInference::new(ExitPolicy::entropy(1e-30)?, t_max)?; // never exits
    let mut frame_rng = TensorRng::seed_from(23);
    let mut frame = || Tensor::randn(&[2, 16, 16], 0.5, 0.5, &mut frame_rng);

    // warm-up: one full sample populates every workspace size class
    let f0 = frame();
    runner.run(&mut net, std::slice::from_ref(&f0))?;
    net.reset_workspace_stats();
    let steady_samples = 8usize;
    let loop_secs = time_it(|| {
        let f = frame();
        runner.run(&mut net, std::slice::from_ref(&f)).unwrap();
    });
    for _ in 0..steady_samples {
        let f = frame();
        runner.run(&mut net, std::slice::from_ref(&f))?;
    }
    let stats = net.workspace_stats();
    assert!(stats.takes > 0, "the Eval loop must draw from the workspace");
    assert_eq!(
        stats.misses, 0,
        "warmed timestep loop must perform zero allocations: {stats:?}"
    );
    println!(
        "\nfull-net timestep loop (VGG*, T={t_max}): {} per sample — workspace takes {} / misses {} after warm-up",
        fmt_time(loop_secs),
        stats.takes,
        stats.misses
    );

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let doc = json!({
        "host_cores": host_cores,
        "cpu_features": simd::cpu_features(),
        "simd_level": simd::level().name(),
        "densities": densities.iter().map(|&d| json!(d)).collect::<Vec<_>>(),
        "kernels": json_points,
        "timestep_loop": json!({
            "arch": "vgg_small",
            "max_timesteps": t_max,
            "steady_state_samples": steady_samples,
            "secs_per_sample": loop_secs,
            "workspace_takes": stats.takes,
            "workspace_misses": stats.misses,
        }),
        "bitwise_equal": true,
    });
    let path = write_json("kernel_speedup", &doc)?;
    println!("wrote {}", path.display());
    Ok(())
}
