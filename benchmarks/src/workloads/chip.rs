//! `chip_map`: the `imc` crate alone — full-size VGG-16 and ResNet-19
//! geometries × 6 (crossbar, ADC mux) hardware variants × 2 anneal seeds
//! through `ChipMapping::map → CostModel::new → search_placement`; one
//! search is one request and `samples_per_s` counts event-simulator
//! evaluations per host second.
//!
//! The inference stack does nothing here, so this is the no-change control
//! for `tensor` / `snn` / `core` / `serve` changes, and the inference
//! workloads are the control for `imc` changes. The simulated statistics
//! (EDP, stalls, evaluation counts) repeat exactly; the IMC model is not
//! validated against silicon, so no error figure is given.
//!
//! The sweep points are fixed; the seed only orders them, so the summed EDP
//! is the same for every seed.

use super::{traced_passes, Spec};
use crate::passes::{run_for, summarize, Pass};
use crate::report::{peak_rss_mb, LayerMetrics, Measured, Traced};
use crate::setup::{shuffled, T_MAX};
use crate::spans::{timed, Tracer};
use crate::stats::median;
use crate::{fail, Result};
use dtsnn_imc::{
    search_placement, AnnealOptions, ChipMapping, Component, CostModel, EventSim, HardwareConfig,
    Placement, SearchResult, SigmaEModule, SimOptions,
};
use dtsnn_snn::{resnet19_geometry, vgg16_geometry, LayerGeometry};
use dtsnn_tensor::TensorRng;
use std::time::Instant;

/// (crossbar rows/cols, ADC column-mux ratio): per crossbar size the
/// EDP-minimising and the area-minimising mux (as in `mapping_pareto`).
const VARIANTS: [(usize, usize); 6] =
    [(32, 16), (32, 32), (64, 16), (64, 64), (128, 32), (128, 128)];
/// Anneal seeds searched at every (geometry, variant) point.
const ANNEAL_SEEDS: [u64; 2] = [1, 2];
/// Output classes (σ–E module width).
const CLASSES: usize = 10;
/// Input spike density of every layer but the analog-encoded first.
const DENSITY: f32 = 0.2;
/// Set-up is short, so it is repeated and its median reported.
const SETUP_REPEATS: usize = 5;

/// One (geometry, hardware variant, anneal seed) search.
struct Point {
    geometry: usize,
    hardware: HardwareConfig,
    anneal_seed: u64,
}

struct Sweep {
    geometries: [Vec<LayerGeometry>; 2],
    points: Vec<Point>,
}

fn sweep_points() -> Sweep {
    let geometries = [vgg16_geometry(32, 3, CLASSES), resnet19_geometry(32, 3, CLASSES)];
    let mut points = Vec::new();
    for geometry in 0..geometries.len() {
        for &(crossbar_size, adc_mux_ratio) in &VARIANTS {
            for &anneal_seed in &ANNEAL_SEEDS {
                let hardware =
                    HardwareConfig { crossbar_size, adc_mux_ratio, ..HardwareConfig::default() };
                points.push(Point { geometry, hardware, anneal_seed });
            }
        }
    }
    Sweep { geometries, points }
}

fn densities(cost: &CostModel) -> Vec<f32> {
    let mut d = vec![DENSITY; cost.mapping().layers().len()];
    d[0] = 1.0;
    d
}

fn cost_model(sweep: &Sweep, p: &Point) -> Result<CostModel> {
    let mapping = ChipMapping::map(&sweep.geometries[p.geometry], &p.hardware)?;
    Ok(CostModel::new(mapping, p.hardware.clone())?)
}

/// One request: map, build the cost model, search the placement.
fn search(sweep: &Sweep, p: &Point) -> Result<SearchResult> {
    let cost = cost_model(sweep, p)?;
    let options = AnnealOptions {
        seed: p.anneal_seed,
        timesteps: T_MAX,
        classes: Some(CLASSES),
        ..AnnealOptions::default()
    };
    let result = search_placement(&cost, &densities(&cost), &options)?;
    if result.best_edp > result.identity_edp {
        return fail(format!(
            "search lost to the linear placement: {} > {}",
            result.best_edp, result.identity_edp
        ));
    }
    Ok(result)
}

/// What the fixed sweep adds up to (identical for every seed and pass).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Totals {
    best_edp: f64,
    identity_edp: f64,
    evaluations: usize,
}

/// Searches every point in `order`; totals are folded in point order so
/// they do not depend on it.
fn pass(sweep: &Sweep, order: &[usize], mut tracer: Option<&mut Tracer>) -> Result<(Pass, Totals)> {
    let mut results: Vec<Option<SearchResult>> = vec![None; sweep.points.len()];
    let mut latencies_ms = Vec::with_capacity(order.len());
    for &i in order {
        let (result, ms) = timed(tracer.as_deref_mut(), "imc.search", i as u64, || {
            search(sweep, &sweep.points[i])
        });
        results[i] = Some(result?);
        latencies_ms.push(ms);
    }
    let mut totals = Totals::default();
    for r in results.iter().flatten() {
        totals.best_edp += r.best_edp;
        totals.identity_edp += r.identity_edp;
        totals.evaluations += r.evaluations;
    }
    Ok((Pass::closed_loop(totals.evaluations as f64, latencies_ms), totals))
}

/// The (geometry, variant) points, each once (anneal seeds collapsed).
fn hardware_points(sweep: &Sweep) -> Vec<&Point> {
    sweep.points.iter().filter(|p| p.anneal_seed == ANNEAL_SEEDS[0]).collect()
}

/// Share of (geometry, variant) points on which the event simulator, run
/// under `SimOptions::analytical_parity`, equals the analytical ledger
/// bit for bit.
fn parity_share(sweep: &Sweep) -> Result<f64> {
    let mut equal = 0usize;
    let points = hardware_points(sweep);
    for p in &points {
        let cost = cost_model(sweep, p)?;
        let d = densities(&cost);
        let ledger = cost.inference_cost(&d, T_MAX as f64, Some(CLASSES))?;
        let sim = EventSim::new(
            &cost,
            Placement::linear(cost.mapping())?,
            SimOptions::analytical_parity(),
        )?
        .run(&d, T_MAX, Some(CLASSES))?;
        let same = sim.cost.latency_cycles == ledger.latency_cycles
            && sim.cost.energy_pj().to_bits() == ledger.energy_pj().to_bits();
        equal += usize::from(same);
    }
    Ok(equal as f64 / points.len() as f64)
}

struct Ready {
    sweep: Sweep,
    order: Vec<usize>,
    parity: f64,
    totals: Totals,
    setup_s: f64,
}

fn set_up(spec: Spec) -> Result<Ready> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let sweep = sweep_points();
        let parity = parity_share(&sweep)?;
        let order = shuffled(sweep.points.len(), &mut TensorRng::seed_from(spec.seed));
        let (_, totals) = pass(&sweep, &order, None)?;
        times.push(t0.elapsed().as_secs_f64());
        ready = Some(Ready { sweep, order, parity, totals, setup_s: 0.0 });
    }
    let mut ready = ready.expect("SETUP_REPEATS > 0");
    ready.setup_s = median(&times);
    if ready.parity != 1.0 {
        return fail(format!(
            "event simulator equals the ledger on only {} of the points",
            ready.parity
        ));
    }
    Ok(ready)
}

/// Untraced run: end-to-end metrics.
pub fn measure(spec: Spec) -> Result<Measured> {
    let r = set_up(spec)?;
    let mut drifted = false;
    let passes = run_for(spec.seconds, || {
        let (p, totals) = pass(&r.sweep, &r.order, None)?;
        drifted |= totals != r.totals;
        Ok(p)
    })?;
    if drifted {
        return fail("simulated totals changed between passes of the same sweep");
    }
    let timing = summarize(&passes)?;
    Ok(Measured {
        values: [
            timing.throughput,
            timing.p50_ms,
            timing.p90_ms,
            r.parity,
            T_MAX as f64,
            r.totals.best_edp,
            r.setup_s,
            peak_rss_mb()?,
        ],
        attempted: (passes.len() * r.order.len()) as u64,
        failed: 0,
        timing,
    })
}

/// Microseconds per call of `f`: `reps` calls inside one span.
fn stage(
    tracer: &mut Tracer,
    name: &'static str,
    request: u64,
    reps: usize,
    mut f: impl FnMut() -> Result<()>,
) -> Result<f64> {
    let (done, ms) = timed(Some(tracer), name, request, || (0..reps).try_for_each(|_| f()));
    done?;
    Ok(ms * 1e3 / reps as f64)
}

/// Traced run: per-layer metrics.
pub fn trace(spec: Spec, tracer: &mut Tracer) -> Result<Traced> {
    let r = set_up(spec)?;
    let mut m = LayerMetrics::default();
    let passes = traced_passes(spec.seconds, tracer, |t| Ok(pass(&r.sweep, &r.order, t)?.0))?;
    m.set("trace.overhead_ratio", passes.overhead_ratio);
    m.set("imc.search_ms", passes.plain.sweep_seconds * 1e3 / r.order.len() as f64);
    m.set("imc.search_evaluations", r.totals.evaluations as f64);
    m.set("imc.search_edp_gain", 1.0 - r.totals.best_edp / r.totals.identity_edp);

    // --- the stages of one search, each timed on every hardware point -------
    let points = hardware_points(&r.sweep);
    let (mut map_us, mut ledger_us, mut sim_us) = (0.0, 0.0, 0.0);
    let (mut events, mut link_stalls, mut buffer_stalls) = (0u64, 0u64, 0u64);
    let (mut adc, mut digital, mut energy) = (0.0, 0.0, 0.0);
    for (i, p) in points.iter().enumerate() {
        let geometry = &r.sweep.geometries[p.geometry];
        map_us += stage(tracer, "imc.map", i as u64, 20, || {
            std::hint::black_box(ChipMapping::map(geometry, &p.hardware)?);
            Ok(())
        })?;
        let cost = cost_model(&r.sweep, p)?;
        let d = densities(&cost);
        ledger_us += stage(tracer, "imc.ledger_cost", i as u64, 20, || {
            std::hint::black_box(cost.inference_cost(&d, T_MAX as f64, Some(CLASSES))?);
            Ok(())
        })?;
        let ledger = cost.inference_cost(&d, T_MAX as f64, Some(CLASSES))?;
        adc += ledger.energy.component(Component::Adc);
        digital += ledger.energy.component(Component::DigitalPeripherals);
        energy += ledger.energy_pj();
        let sim =
            EventSim::new(&cost, Placement::linear(cost.mapping())?, SimOptions::pipelined())?;
        sim_us += stage(tracer, "imc.sim_run", i as u64, 20, || {
            std::hint::black_box(sim.run(&d, T_MAX, Some(CLASSES))?);
            Ok(())
        })?;
        let report = sim.run(&d, T_MAX, Some(CLASSES))?;
        events += report.events;
        link_stalls += report.link_stall_cycles;
        buffer_stalls += report.buffer_stall_cycles;
    }
    let n = points.len() as f64;
    m.set("imc.map_us", map_us / n);
    m.set("imc.ledger_cost_us", ledger_us / n);
    m.set("imc.sim_run_us", sim_us / n);
    m.set("imc.sim_events_per_s", events as f64 / (sim_us / 1e6));
    m.set("imc.link_stall_cycles", link_stalls as f64);
    m.set("imc.buffer_stall_cycles", buffer_stalls as f64);
    m.set("imc.energy_share_adc", adc / energy);
    m.set("imc.energy_share_digital", digital / energy);

    let module = SigmaEModule::new(&HardwareConfig::default())?;
    let logits: Vec<f32> = (0..CLASSES).map(|i| i as f32 * 0.37 - 1.0).collect();
    let sigma_e_us = stage(tracer, "imc.sigma_e", 0, 1000, || {
        std::hint::black_box(module.evaluate(&logits, 0.5)?);
        Ok(())
    })?;
    m.set("imc.sigma_e_eval_us", sigma_e_us);
    Ok(Traced { metrics: m, attempted: (passes.passes * r.order.len()) as u64, failed: 0 })
}
