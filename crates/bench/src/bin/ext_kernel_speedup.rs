//! Extension — the f32 kernels over spike density, plus the zero-allocation
//! timestep loop.
//!
//! Part 1 times the kernels on spike-shaped operands at densities 1%, 10%,
//! 50% and fully dense. `matmul` and `matmul_nt` are the one f32 family:
//! blocked kernels that skip an operand's zeros in place, so their time
//! falls with density without a second code path. `conv2d` is the
//! im2col + matmul reference and `conv2d_ws` the direct spike-scatter kernel
//! every layer runs; the two are bitwise identical — asserted here per
//! density — and the `vs reference` column is reference time over direct time.
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
use dtsnn_tensor::{conv2d, conv2d_ws, simd, Conv2dSpec, Tensor, TensorRng, Workspace};

/// A binary spike pattern of the given density.
fn spikes(dims: &[usize], density: f32, rng: &mut TensorRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = if rng.bernoulli(density) { 1.0 } else { 0.0 };
    }
    t
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
    let mut ws = Workspace::new();
    for &density in &densities {
        let a = spikes(&[128, 256], density, &mut rng);
        let x_conv = spikes(&[2, 8, 16, 16], density, &mut rng);

        // parity first, then timings (timings reuse the same inputs)
        let reference = conv2d(&x_conv, &w_conv, Some(&bias), &spec)?;
        let direct = conv2d_ws(&x_conv, &w_conv, Some(&bias), &spec, &mut ws)?;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&reference), bits(&direct), "conv2d_ws must equal conv2d bitwise");
        ws.recycle_tensor(direct);

        let matmul_s = time_it(|| a.matmul(&b_mat).unwrap());
        let matmul_nt_s = time_it(|| a.matmul_nt(&w_nt).unwrap());
        let reference_s = time_it(|| conv2d(&x_conv, &w_conv, Some(&bias), &spec).unwrap());
        let direct_s = time_it(|| {
            let out = conv2d_ws(&x_conv, &w_conv, Some(&bias), &spec, &mut ws).unwrap();
            ws.recycle_tensor(out);
        });
        let speedup = reference_s / direct_s;
        let pct = format!("{:.0}%", density * 100.0);
        for (kernel, secs, speedup) in [
            ("matmul", matmul_s, "-".to_string()),
            ("matmul_nt", matmul_nt_s, "-".to_string()),
            ("conv2d (im2col reference)", reference_s, "1.00×".to_string()),
            ("conv2d_ws (direct)", direct_s, format!("{speedup:.2}×")),
        ] {
            rows.push(vec![pct.clone(), kernel.into(), fmt_time(secs), speedup]);
        }
        json_points.push(json!({
            "density": density,
            "matmul_secs": matmul_s,
            "matmul_nt_secs": matmul_nt_s,
            "conv2d_reference_secs": reference_s,
            "conv2d_ws_secs": direct_s,
            "direct_conv_speedup": speedup,
        }));
    }
    print_table(
        "f32 kernels over spike density (direct conv bitwise equal to its reference)",
        &["density", "kernel", "time", "vs reference"],
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
        "direct_conv_bitwise_equal": true,
    });
    let path = write_json("kernel_speedup", &doc)?;
    println!("wrote {}", path.display());
    Ok(())
}
