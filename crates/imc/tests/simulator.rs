//! Event-driven simulator and mapping-search properties (the `ci.sh`
//! simulator stage runs this file at `DTSNN_THREADS=1` and `4`).
//!
//! The load-bearing guarantees, in order: (1) with pipelining and
//! contention disabled the event model reproduces the analytical
//! `CostModel::inference_cost` ledger exactly — bitwise cycles, bitwise
//! energy components; (2) with unlimited buffers and no contention the
//! pipelined schedule lands exactly on the flow-shop closed form
//! `Σ stages + (T−1)·bottleneck`; (3) contention and finite buffers only
//! ever add latency; (4) the annealing search is seed-reproducible and
//! bitwise invariant to the worker count; (5) a request exiting at T̂ is,
//! sequentially, exactly a T̂-step run, and pipelined, a run that drains
//! what was in flight: T̂ ≤ executed ≤ T, never cheaper than the
//! sequential run, and at T̂ = T the plain run bit for bit.

use dtsnn_imc::{
    search_placement, AnnealOptions, ChipMapping, Component, CostModel, EventSim, HardwareConfig,
    ImcError, Placement, SimOptions, TimestepSchedule,
};
use dtsnn_snn::{resnet19_geometry, vgg16_geometry};
use dtsnn_tensor::parallel::with_threads;

fn model(geometries: &[dtsnn_snn::LayerGeometry]) -> CostModel {
    let config = HardwareConfig::default();
    let mapping = ChipMapping::map(geometries, &config).unwrap();
    CostModel::new(mapping, config).unwrap()
}

fn densities(model: &CostModel) -> Vec<f32> {
    let mut d = vec![0.2f32; model.mapping().layers().len()];
    d[0] = 1.0;
    d
}

#[test]
fn parity_mode_matches_the_ledger_bitwise_for_both_networks() {
    for geometries in [vgg16_geometry(32, 3, 10), resnet19_geometry(32, 3, 10)] {
        let m = model(&geometries);
        let d = densities(&m);
        let sim = EventSim::new(
            &m,
            Placement::linear(m.mapping()).unwrap(),
            SimOptions::analytical_parity(),
        )
        .unwrap();
        for t in [1usize, 2, 4, 8] {
            for classes in [None, Some(10)] {
                let ledger = m.inference_cost(&d, t as f64, classes).unwrap();
                let report = sim.run(&d, t, classes).unwrap();
                assert_eq!(
                    report.cost.latency_cycles, ledger.latency_cycles,
                    "latency at T={t} classes={classes:?}"
                );
                for c in Component::ALL {
                    assert_eq!(
                        report.cost.energy.component(c).to_bits(),
                        ledger.energy.component(c).to_bits(),
                        "energy component {} at T={t} classes={classes:?}",
                        c.name()
                    );
                }
            }
        }
    }
}

#[test]
fn pipelined_no_contention_lands_on_the_flow_shop_closed_form() {
    // With unlimited buffers and free transfers the event graph's critical
    // path must equal the permutation-flow-shop closed form with the σ–E
    // module as one more stage: Σ d_l + S + (T−1) · max(max_l d_l, S).
    let m = model(&vgg16_geometry(32, 3, 10));
    let d = densities(&m);
    let options = SimOptions {
        schedule: TimestepSchedule::Pipelined,
        contention: false,
        buffer_slots: 64, // effectively unlimited
        ..SimOptions::default()
    };
    let sim = EventSim::new(&m, Placement::linear(m.mapping()).unwrap(), options).unwrap();
    for t in [1u64, 2, 4, 8] {
        let report = sim.run(&d, t as usize, Some(10)).unwrap();
        let fill = m.timestep_latency() + m.sigma_e_latency(10);
        let bottleneck = m.bottleneck_stage_cycles().max(m.sigma_e_latency(10));
        assert_eq!(report.cost.latency_cycles, fill + (t - 1) * bottleneck, "T={t}");
    }
}

#[test]
fn pipelining_overlaps_and_contention_only_adds_latency() {
    let m = model(&vgg16_geometry(32, 3, 10));
    let d = densities(&m);
    let linear = || Placement::linear(m.mapping()).unwrap();
    let seq = EventSim::new(&m, linear(), SimOptions::analytical_parity())
        .unwrap()
        .run(&d, 4, Some(10))
        .unwrap();
    let pipe_free = EventSim::new(
        &m,
        linear(),
        SimOptions {
            schedule: TimestepSchedule::Pipelined,
            contention: false,
            ..SimOptions::default()
        },
    )
    .unwrap()
    .run(&d, 4, Some(10))
    .unwrap();
    let pipe_contended = EventSim::new(&m, linear(), SimOptions::pipelined())
        .unwrap()
        .run(&d, 4, Some(10))
        .unwrap();
    let pipe_starved = EventSim::new(
        &m,
        linear(),
        SimOptions { buffer_slots: 1, ..SimOptions::pipelined() },
    )
    .unwrap()
    .run(&d, 4, Some(10))
    .unwrap();
    // pipelining genuinely overlaps: strictly faster than sequential
    assert!(pipe_free.cost.latency_cycles < seq.cost.latency_cycles);
    // modelling link occupancy can only slow things down
    assert!(pipe_contended.cost.latency_cycles >= pipe_free.cost.latency_cycles);
    // starving the output buffers can only slow things down further
    assert!(pipe_starved.cost.latency_cycles >= pipe_contended.cost.latency_cycles);
    // and the contended run observed real mesh traffic
    assert!(pipe_contended.link_flits > 0);
}

#[test]
fn simulator_is_thread_count_invariant() {
    let m = model(&resnet19_geometry(32, 3, 10));
    let d = densities(&m);
    let run = || {
        EventSim::new(&m, Placement::linear(m.mapping()).unwrap(), SimOptions::pipelined())
            .unwrap()
            .run(&d, 4, Some(10))
            .unwrap()
    };
    let one = with_threads(1, run);
    let four = with_threads(4, run);
    assert_eq!(one, four);
}

/// Linear, reversed and one fixed shuffled placement of `m`'s layers.
fn placements(m: &CostModel) -> Vec<Placement> {
    let n = m.mapping().layers().len();
    let shuffle = (0..n).map(|k| (5 * k + 3) % n).collect();
    [(0..n).collect(), (0..n).rev().collect(), shuffle]
        .into_iter()
        .map(|order| Placement::with_order(m.mapping(), order).unwrap())
        .collect()
}

#[test]
fn a_sequential_exit_is_a_run_of_that_many_timesteps() {
    // nothing is in flight when σ–E decides, so stalls, events and finish
    // times all match the shorter run, on free and on contended links
    let slow_links =
        SimOptions { contention: true, link_bytes_per_cycle: 0.1, ..SimOptions::default() };
    for geometries in [vgg16_geometry(32, 3, 10), resnet19_geometry(32, 3, 10)] {
        let m = model(&geometries);
        let d = densities(&m);
        for options in [SimOptions::analytical_parity(), slow_links] {
            for placement in placements(&m) {
                let sim = EventSim::new(&m, placement, options).unwrap();
                for t_hat in 1..=4 {
                    assert_eq!(
                        sim.run_exiting(&d, 4, t_hat, Some(10)).unwrap(),
                        sim.run(&d, t_hat, Some(10)).unwrap(),
                        "T̂={t_hat} {options:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_pipelined_exit_drains_what_is_in_flight() {
    const T: usize = 4;
    let free = SimOptions { schedule: TimestepSchedule::Pipelined, ..SimOptions::default() };
    let starved =
        SimOptions { link_bytes_per_cycle: 0.05, buffer_slots: 1, ..SimOptions::pipelined() };
    let mut wasted = 0.0;
    for geometries in [vgg16_geometry(32, 3, 10), resnet19_geometry(32, 3, 10)] {
        let m = model(&geometries);
        let d = densities(&m);
        for options in [free, SimOptions::pipelined(), starved] {
            for placement in placements(&m) {
                let sequential = SimOptions { schedule: TimestepSchedule::Sequential, ..options };
                let seq_sim = EventSim::new(&m, placement.clone(), sequential).unwrap();
                let sim = EventSim::new(&m, placement, options).unwrap();
                let full = sim.run(&d, T, Some(10)).unwrap();
                assert_eq!(sim.run_exiting(&d, T, T, Some(10)).unwrap(), full, "{options:?}");
                for t_hat in 1..T {
                    let run = sim.run_exiting(&d, T, t_hat, Some(10)).unwrap();
                    let executed = run.cost.timesteps;
                    let what = format!("T̂={t_hat} {options:?}");
                    assert!((t_hat as f64..=T as f64).contains(&executed), "{what}: {executed}");
                    assert_eq!(run.timestep_finish.len() as f64, executed, "{what}");
                    assert_eq!(run.timestep_finish.last(), Some(&run.cost.latency_cycles));
                    // what ran before the decision is what the full run ran,
                    // and the drain only loses contention to later timesteps
                    let before = &run.timestep_finish[..t_hat];
                    assert_eq!(before, &full.timestep_finish[..t_hat], "{what}");
                    for (a, b) in run.timestep_finish.iter().zip(&full.timestep_finish) {
                        assert!(a <= b, "{what}");
                    }
                    let seq = seq_sim.run(&d, t_hat, Some(10)).unwrap();
                    assert!(run.cost.energy_pj() >= seq.cost.energy_pj(), "{what}");
                    wasted += executed - t_hat as f64;
                }
            }
        }
    }
    // some exit found timesteps in flight
    assert!(wasted > 0.0);
}

#[test]
fn hostile_exits_are_typed_errors() {
    let m = model(&vgg16_geometry(32, 3, 10));
    let d = densities(&m);
    let sim = EventSim::new(&m, Placement::linear(m.mapping()).unwrap(), SimOptions::pipelined())
        .unwrap();
    // T̂ = 0, T̂ past the window, and an early exit without σ–E to decide it
    let hostile = [(0, Some(10)), (0, None), (5, Some(10)), (usize::MAX, None), (2, None)];
    for (t_hat, classes) in hostile {
        assert!(
            matches!(sim.run_exiting(&d, 4, t_hat, classes), Err(ImcError::InvalidConfig(_))),
            "T̂={t_hat} classes={classes:?}"
        );
    }
    // a static run of the whole window needs no σ–E
    assert_eq!(sim.run_exiting(&d, 4, 4, None).unwrap(), sim.run(&d, 4, None).unwrap());
}

fn smoke_search_options() -> AnnealOptions {
    AnnealOptions { rounds: 8, proposals_per_round: 3, timesteps: 2, ..AnnealOptions::default() }
}

#[test]
fn annealing_trajectory_is_bitwise_thread_count_invariant() {
    let m = model(&vgg16_geometry(32, 3, 10));
    let d = densities(&m);
    let options = smoke_search_options();
    let one = with_threads(1, || search_placement(&m, &d, &options).unwrap());
    let four = with_threads(4, || search_placement(&m, &d, &options).unwrap());
    // SearchResult derives PartialEq over every field, including the full
    // trajectory's f64 EDPs and temperatures — this is a bitwise check.
    assert_eq!(one, four);
    assert_eq!(one.trajectory.len(), 8 * 3);
    for (a, b) in one.trajectory.iter().zip(&four.trajectory) {
        assert_eq!(a.candidate_edp.to_bits(), b.candidate_edp.to_bits());
        assert_eq!(a.best_edp.to_bits(), b.best_edp.to_bits());
    }
    assert!(one.best_edp <= one.identity_edp);
}

#[test]
fn annealing_is_seed_reproducible() {
    let m = model(&vgg16_geometry(32, 3, 10));
    let d = densities(&m);
    let options = smoke_search_options();
    let a = search_placement(&m, &d, &options).unwrap();
    let b = search_placement(&m, &d, &options).unwrap();
    assert_eq!(a, b);
}
