//! Extension — quantifying the paper's scheduling design choice
//! (Sec. III-B): timesteps processed **sequentially without pipelining**.
//!
//! With layers pipelined across timesteps, a static SNN's latency improves
//! (fill + (T−1)·bottleneck instead of T·full-traversal), but a DT-SNN
//! request that exits early finds later timesteps already in flight: they
//! drain, and their energy is wasted. This binary runs the event simulator
//! (`EventSim::run_exiting`) on the paper-size VGG-16 mapping once per exit
//! class T̂ = 1..4 under both schedules — the per-request numbers — and then
//! weights those runs by the exit distributions of the benchmark's two
//! reference networks. No training needed.

use dtsnn_bench::{json, print_table, write_json};
use dtsnn_imc::{
    ChipMapping, CostModel, EventSim, HardwareConfig, Placement, SimOptions, SimReport,
    TimestepSchedule,
};
use dtsnn_snn::vgg16_geometry;

const T_MAX: usize = 4;
const CLASSES: usize = 10;

/// Exit counts at T̂ = 1..4 of the benchmark's 300 test samples (seed 1):
/// `vgg_small` as the `solo_vgg` workload runs it, `resnet_small` as
/// `batched_resnet` does. Their means are the workloads' `avg_timesteps`.
const MIXTURES: [(&str, [u32; T_MAX]); 2] = [
    ("vgg_small (solo_vgg)", [201, 14, 6, 79]),
    ("resnet_small (batched_resnet)", [166, 16, 3, 115]),
];

fn options_json(o: &SimOptions) -> json::Value {
    json!({
        "schedule": format!("{:?}", o.schedule),
        "contention": o.contention,
        "link_bytes_per_cycle": o.link_bytes_per_cycle,
        "buffer_slots": o.buffer_slots as f64,
    })
}

fn report_json(r: &SimReport) -> json::Value {
    json!({
        "executed_timesteps": r.cost.timesteps,
        "energy_pj": r.cost.energy_pj(),
        "latency_ns": r.cost.latency_ns(),
        "edp": r.cost.edp(),
    })
}

/// Mean energy, mean latency and mean per-request EDP over exit classes
/// weighted by `shares`.
fn mix(runs: &[SimReport], shares: &[f64]) -> (f64, f64, f64) {
    let mean = |f: &dyn Fn(&SimReport) -> f64| runs.iter().zip(shares).map(|(r, s)| s * f(r)).sum();
    (mean(&|r| r.cost.energy_pj()), mean(&|r| r.cost.latency_ns()), mean(&|r| r.cost.edp()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = HardwareConfig::default();
    let geometry = vgg16_geometry(32, 3, 10);
    let mapping = ChipMapping::map(&geometry, &config)?;
    let model = CostModel::new(mapping, config)?;
    let mut densities = vec![0.2f32; geometry.len()];
    densities[0] = 1.0;
    // the two schedules differ in nothing else: transfers free (the
    // ledger's assumption, so the sequential runs are the ledger itself) and
    // two output-buffer slots per layer
    let sequential = SimOptions::analytical_parity();
    let pipelined = SimOptions { schedule: TimestepSchedule::Pipelined, ..sequential };
    let sim = |options| EventSim::new(&model, Placement::linear(model.mapping())?, options);
    let (seq_sim, pipe_sim) = (sim(sequential)?, sim(pipelined)?);
    println!(
        "pipeline geometry: full traversal {} cycles, bottleneck stage {} cycles, σ–E {} cycles",
        model.timestep_latency(),
        model.bottleneck_stage_cycles(),
        model.sigma_e_latency(CLASSES)
    );
    println!("sequential: {sequential:?}\npipelined:  {pipelined:?}");

    let mut rows = Vec::new();
    let mut requests = Vec::new();
    let mut exits: [Vec<SimReport>; 2] = Default::default();
    // the static SNN runs the whole window without σ–E; each DT-SNN request
    // exits once σ–E has scored its T̂
    let configs = std::iter::once(("static SNN, T=4".to_string(), T_MAX, None))
        .chain((1..=T_MAX).map(|t| (format!("DT-SNN, exit at T̂={t}"), t, Some(CLASSES))));
    for (label, t_hat, classes) in configs {
        let run = |sim: &EventSim| sim.run_exiting(&densities, T_MAX, t_hat, classes);
        let (seq, pipe) = (run(&seq_sim)?, run(&pipe_sim)?);
        rows.push(vec![
            label.clone(),
            format!("{}", pipe.cost.timesteps),
            format!("{:.2}", seq.cost.energy_pj() / 1e6),
            format!("{:.2}", pipe.cost.energy_pj() / 1e6),
            format!("{:.2}", seq.cost.latency_ns() / 1e3),
            format!("{:.2}", pipe.cost.latency_ns() / 1e3),
            format!("{:.2}×", pipe.cost.edp() / seq.cost.edp()),
        ]);
        requests.push(json!({
            "config": label,
            "t_hat": t_hat as f64,
            "sigma_e": classes.is_some(),
            "sequential": report_json(&seq),
            "pipelined": report_json(&pipe),
        }));
        if classes.is_some() {
            exits[0].push(seq);
            exits[1].push(pipe);
        }
    }
    print_table(
        "Extension: sequential vs pipelined timestep scheduling per request (VGG-16 mapping, event simulator)",
        &["request", "T pipe", "E seq (µJ)", "E pipe (µJ)", "L seq (µs)", "L pipe (µs)", "pipe/seq EDP"],
        &rows,
    );

    let mut rows = Vec::new();
    let mut mixtures = Vec::new();
    for (name, counts) in MIXTURES {
        let total: u32 = counts.iter().sum();
        let shares: Vec<f64> = counts.iter().map(|&c| f64::from(c) / f64::from(total)).collect();
        let mean_t: f64 = shares.iter().zip(1..).map(|(s, t)| s * f64::from(t)).sum();
        let (seq, pipe) = (mix(&exits[0], &shares), mix(&exits[1], &shares));
        let mut row = vec![name.to_string(), format!("{mean_t:.3}")];
        for (e, l, edp) in [seq, pipe] {
            row.push(format!("{:.2}", edp / 1e12));
            row.push(format!("{:.2}", e * l / 1e12));
        }
        row.push(format!("{:.2}×", pipe.2 / seq.2));
        rows.push(row);
        let side = |(e, l, edp): (f64, f64, f64)| {
            json!({
                "mean_energy_pj": e,
                "mean_latency_ns": l,
                "mean_edp": edp,
                "edp_of_means": e * l,
            })
        };
        mixtures.push(json!({
            "mixture": name,
            "exit_counts": counts.iter().map(|&c| json::Value::from(f64::from(c))).collect::<Vec<_>>(),
            "exit_shares": shares.iter().map(|&s| json::Value::from(s)).collect::<Vec<_>>(),
            "mean_t_hat": mean_t,
            "sequential": side(seq),
            "pipelined": side(pipe),
        }));
    }
    print_table(
        "Exit mixtures: mean per-request EDP beside the EDP of the mean request (pJ·ns / 1e12)",
        &[
            "exit mix",
            "mean T̂",
            "seq mean EDP",
            "seq E·L",
            "pipe mean EDP",
            "pipe E·L",
            "pipe/seq mean EDP",
        ],
        &rows,
    );
    println!("\npaper design choice: sequential scheduling avoids flush cost on dynamic exits;");
    println!("expected: pipelining helps the static SNN and the T̂=T requests, and wastes the");
    println!("timesteps in flight on every earlier exit");
    let out = json!({
        "geometry": "vgg16_geometry(32, 3, 10)",
        "densities": "1.0 at layer 0, 0.2 elsewhere",
        "t_max": T_MAX as f64,
        "classes": CLASSES as f64,
        "sim_options": json!({"sequential": options_json(&sequential), "pipelined": options_json(&pipelined)}),
        "requests": requests,
        "mixtures": mixtures,
    });
    let path = write_json("ext_pipeline_ablation", &out)?;
    println!("wrote {}", path.display());
    Ok(())
}
