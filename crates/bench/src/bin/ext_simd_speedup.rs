//! Extension — runtime-dispatched SIMD kernel tier vs the scalar oracle.
//!
//! Times every vectorized kernel family twice — once with the SIMD override
//! forced to `scalar` and once at the auto-detected level — on
//! representative classifier-layer shapes. Every pair is asserted bitwise
//! identical before it is timed: the vector tier owns one output
//! accumulator per lane and never reassociates, so speed is the *only*
//! thing that changes. The dense `matmul_nt` speedup (the classifier-head
//! kernel) is asserted ≥ 1.5× in-bin — a regression here fails the run,
//! not just the chart.
//!
//! Results go to `bench-results/simd_speedup.json` with `host_cores`,
//! `cpu_features` and the dispatched level recorded, since SIMD timings
//! only compare within one host.

use dtsnn_bench::{json, print_table, time_it, write_json};
use dtsnn_core::{DynamicInference, ExitPolicy};
use dtsnn_snn::{vgg_small, LifConfig, ModelConfig};
use dtsnn_tensor::{simd, QuantizedWeights, SimdLevel, Tensor, TensorRng};

/// A binary spike pattern of the given density.
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
    assert_eq!(ab, bb, "{what}: scalar and SIMD tiers must agree bitwise");
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.3} ms", secs * 1e3)
    }
}

/// Best-of-3 [`time_it`] — the minimum is the least noise-contaminated
/// estimate for a deterministic kernel.
fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3).map(|_| time_it(&mut f)).fold(f64::INFINITY, f64::min)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let auto = simd::level();
    println!(
        "cpu features: {} — dispatching at `{}`\n",
        simd::cpu_features(),
        auto.name()
    );

    let mut rng = TensorRng::seed_from(0x51_3D);
    // classifier-head shapes: a VGG/ResNet fc layer on a serving batch
    let (m, k, n) = (64usize, 1024usize, 512usize);
    let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng); // dense activations
    let at = Tensor::randn(&[k, m], 0.0, 1.0, &mut rng); // pre-transposed lhs [k, m]
    let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng); // matmul rhs [k, n]
    let w = Tensor::randn(&[n, k], 0.0, 0.05, &mut rng); // row-major weights [n, k]
    let s = spikes(&[m, k], 0.15, &mut rng); // binary spikes for the quantized dot
    let qw = QuantizedWeights::from_tensor(&w, 8)?;

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut points = Vec::new();
    let mut nt_speedup = 0.0f64;
    type Kernel<'a> = (&'a str, Box<dyn Fn() -> Tensor + 'a>);
    let kernels: Vec<Kernel> = vec![
        ("dense matmul", Box::new(|| a.matmul(&b).unwrap())),
        ("dense matmul_tn", Box::new(|| at.matmul_tn(&b).unwrap())),
        ("dense matmul_nt", Box::new(|| a.matmul_nt(&w).unwrap())),
        ("quant matmul_nt", Box::new(|| qw.matmul_nt(&s).unwrap())),
    ];
    for (name, run) in &kernels {
        // parity first, then timings on the same inputs
        let want = simd::with_level(SimdLevel::Scalar, run);
        let got = run();
        assert_bitwise(&want, &got, name);

        let scalar_s = simd::with_level(SimdLevel::Scalar, || {
            best_of_3(|| {
                std::hint::black_box(run());
            })
        });
        let simd_s = best_of_3(|| {
            std::hint::black_box(run());
        });
        let speedup = scalar_s / simd_s;
        if *name == "dense matmul_nt" {
            nt_speedup = speedup;
        }
        rows.push(vec![
            (*name).into(),
            fmt_time(scalar_s),
            fmt_time(simd_s),
            format!("{speedup:.2}×"),
        ]);
        points.push(json!({
            "kernel": *name,
            "scalar_secs": scalar_s,
            "simd_secs": simd_s,
            "simd_speedup": speedup,
        }));
    }

    // full forward pass: the end-to-end win across conv + fc + LIF + BN
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
    let frame = Tensor::randn(&[2, 16, 16], 0.5, 0.5, &mut TensorRng::seed_from(23));
    let scalar_net = simd::with_level(SimdLevel::Scalar, || {
        best_of_3(|| {
            runner.run(&mut net, std::slice::from_ref(&frame)).unwrap();
        })
    });
    let simd_net = best_of_3(|| {
        runner.run(&mut net, std::slice::from_ref(&frame)).unwrap();
    });
    let net_speedup = scalar_net / simd_net;
    rows.push(vec![
        format!("full net (VGG*, T={t_max})"),
        fmt_time(scalar_net),
        fmt_time(simd_net),
        format!("{net_speedup:.2}×"),
    ]);
    points.push(json!({
        "kernel": "full_net_vgg_small_t4",
        "scalar_secs": scalar_net,
        "simd_secs": simd_net,
        "simd_speedup": net_speedup,
    }));

    print_table(
        &format!("scalar vs {} kernels (bitwise-identical outputs)", auto.name()),
        &["kernel", "scalar", auto.name(), "speedup"],
        &rows,
    );

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let doc = json!({
        "host_cores": host_cores,
        "cpu_features": simd::cpu_features(),
        "simd_level": auto.name(),
        "shape": json!({"m": m, "k": k, "n": n}),
        "kernels": json::Value::Array(points),
        "bitwise_equal": true,
    });
    let path = write_json("simd_speedup", &doc)?;
    println!("wrote {}", path.display());

    // the acceptance gate: the classifier-head kernel must actually be fast
    if auto > SimdLevel::Scalar {
        assert!(
            nt_speedup >= 1.5,
            "dense matmul_nt SIMD speedup {nt_speedup:.2}× fell below the 1.5× floor"
        );
    } else {
        println!("no SIMD tier detected on this host — speedup floor not enforced");
    }
    Ok(())
}
