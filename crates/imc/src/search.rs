//! Automated layer→tile placement search (ROADMAP item 3).
//!
//! Minimizes the EDP reported by the event-driven simulator ([`crate::sim`])
//! over layer placement orders: a greedy best-swap descent seeds a
//! simulated-annealing refinement. Distant consecutive layers pay extra
//! byte-hops of interconnect energy and extra serialization on contended
//! mesh links, so the order a network's layers claim tile blocks in is a
//! genuine optimization variable.
//!
//! # Determinism
//!
//! The search is seed-reproducible and bitwise invariant to `DTSNN_THREADS`
//! via the repo's fold discipline: every random draw (move proposals and
//! Metropolis thresholds) happens *serially* before each round's candidates
//! are evaluated, candidate EDPs are computed with the order-preserving
//! [`map_chunks`] fan-out, and the accept decision folds over the results in
//! candidate-index order (first acceptable candidate wins). The simulator
//! itself is single-threaded, so the whole trajectory — every
//! [`TrajectoryPoint`] — is identical for any worker count. Workers reuse
//! engine buffers across fan-outs, but every run resets the engine's state,
//! so which buffers a candidate runs on cannot change its EDP.

use std::sync::Mutex;

use crate::energy::CostModel;
use crate::mapping::MappedLayer;
use crate::sim::{mesh_side, place, Engine, Prepared, SimOptions};
use crate::{AreaConstants, ImcError, Result};
use dtsnn_tensor::parallel::map_chunks;
use dtsnn_tensor::TensorRng;

/// Knobs of the annealing search.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealOptions {
    /// RNG seed; equal seeds give bitwise-equal trajectories.
    pub seed: u64,
    /// Annealing rounds after the greedy descent.
    pub rounds: usize,
    /// Candidate moves drawn (and evaluated in parallel) per round.
    pub proposals_per_round: usize,
    /// Initial Metropolis temperature, in *relative* EDP units.
    pub initial_temperature: f64,
    /// Geometric temperature decay per round, in (0, 1].
    pub cooling: f64,
    /// Timesteps the objective simulates.
    pub timesteps: usize,
    /// σ–E classes for the objective (`None` = static SNN).
    pub classes: Option<usize>,
    /// Simulator configuration the objective runs under.
    pub sim: SimOptions,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            seed: 7,
            rounds: 48,
            proposals_per_round: 4,
            initial_temperature: 0.05,
            cooling: 0.92,
            timesteps: 4,
            classes: Some(10),
            sim: SimOptions::pipelined(),
        }
    }
}

/// One evaluated annealing candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Annealing round.
    pub round: usize,
    /// Temperature when the candidate was drawn.
    pub temperature: f64,
    /// Candidate EDP, pJ·ns.
    pub candidate_edp: f64,
    /// Whether the Metropolis fold accepted it as the new current order.
    pub accepted: bool,
    /// Best EDP seen so far (including this candidate).
    pub best_edp: f64,
}

/// Outcome of a placement search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best placement order found.
    pub best_order: Vec<usize>,
    /// Its EDP, pJ·ns.
    pub best_edp: f64,
    /// EDP of the network-order (linear) placement.
    pub identity_edp: f64,
    /// EDP after the greedy best-swap descent.
    pub greedy_edp: f64,
    /// Simulator evaluations spent.
    pub evaluations: usize,
    /// Every annealing candidate, in evaluation order.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// Scores placement orders by event-simulated EDP. The placement-independent
/// work is prepared once per search; every worker borrows a parked
/// `Evaluator` (or builds one) and parks it again, so warm engine buffers
/// are reused from one `map_chunks` fan-out to the next.
struct Objective<'a> {
    layers: &'a [MappedLayer],
    mesh_side: usize,
    prepared: Prepared,
    parked: Mutex<Vec<Evaluator>>,
}

/// One worker's reusable buffers: the engine, the anchors and the order.
#[derive(Default)]
struct Evaluator {
    engine: Engine,
    anchors: Vec<(usize, usize)>,
    order: Vec<usize>,
}

impl<'a> Objective<'a> {
    fn new(cost: &'a CostModel, densities: &[f32], options: &AnnealOptions) -> Result<Self> {
        let t = options.timesteps;
        let prepared = Prepared::new(cost, options.sim, densities, t, t, options.classes)?;
        let layers = cost.mapping().layers();
        Ok(Objective { layers, mesh_side: mesh_side(layers), prepared, parked: Mutex::default() })
    }

    /// EDP of the order `write_order` writes for each item, in item order
    /// (`clone_from` into the evaluator's order keeps its capacity).
    fn edps<T>(&self, items: &[T], write_order: impl Fn(&T, &mut Vec<usize>)) -> Vec<Result<f64>> {
        const POISONED: &str = "no worker panics while holding the evaluator pool";
        let mut ev = self.parked.lock().expect(POISONED).pop().unwrap_or_default();
        let edps = items
            .iter()
            .map(|item| {
                write_order(item, &mut ev.order);
                place(self.layers, &ev.order, self.mesh_side, &mut ev.anchors);
                let report = self.prepared.run(&mut ev.engine, &ev.anchors, self.mesh_side)?;
                Ok(report.cost.edp())
            })
            .collect();
        self.parked.lock().expect(POISONED).push(ev);
        edps
    }
}

/// Searches for the placement order minimizing event-simulated EDP.
///
/// # Errors
///
/// Returns [`ImcError::InvalidConfig`] for degenerate options and
/// propagates simulator errors (wrong density counts, etc.).
pub fn search_placement(
    cost: &CostModel,
    densities: &[f32],
    options: &AnnealOptions,
) -> Result<SearchResult> {
    if options.proposals_per_round == 0 {
        return Err(ImcError::InvalidConfig("proposals_per_round must be at least 1".into()));
    }
    if options.cooling <= 0.0 || options.cooling > 1.0 || options.cooling.is_nan() {
        return Err(ImcError::InvalidConfig(format!(
            "cooling must be in (0, 1], got {}",
            options.cooling
        )));
    }
    if options.initial_temperature <= 0.0 || options.initial_temperature.is_nan() {
        return Err(ImcError::InvalidConfig(format!(
            "initial_temperature must be positive, got {}",
            options.initial_temperature
        )));
    }
    let mut trajectory = Vec::new();
    options
        .rounds
        .checked_mul(options.proposals_per_round)
        .and_then(|points| trajectory.try_reserve(points).ok())
        .ok_or_else(|| {
            ImcError::InvalidConfig(format!(
                "{} rounds of {} proposals do not fit a trajectory",
                options.rounds, options.proposals_per_round
            ))
        })?;
    let n = cost.mapping().layers().len();
    let identity: Vec<usize> = (0..n).collect();
    let objective = Objective::new(cost, densities, options)?;
    let identity_edp = objective.edps(&[&identity], |order, buf| buf.clone_from(order)).remove(0)?;
    let mut evaluations = 1usize;
    let mut current = identity;
    let mut current_edp = identity_edp;

    // --- greedy seeding: repeat the best single swap until none improves.
    // All candidate swaps of one pass are evaluated in parallel; the winner
    // is picked by an index-order fold (strict minimum, first index on
    // ties), so the descent path is thread-invariant.
    loop {
        let swaps: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        if swaps.is_empty() {
            break;
        }
        let results = map_chunks(&swaps, |_first, chunk| {
            objective.edps(chunk, |&(i, j), order| {
                order.clone_from(&current);
                order.swap(i, j);
            })
        });
        evaluations += swaps.len();
        let mut best_swap: Option<(usize, f64)> = None;
        for (idx, res) in results.into_iter().enumerate() {
            let edp = res?;
            if best_swap.is_none_or(|(_, b)| edp < b) {
                best_swap = Some((idx, edp));
            }
        }
        let (idx, edp) = best_swap.expect("at least one swap evaluated");
        if edp < current_edp {
            let (i, j) = swaps[idx];
            current.swap(i, j);
            current_edp = edp;
        } else {
            break;
        }
    }
    let greedy_edp = current_edp;

    // --- simulated annealing refinement ---
    let mut rng = TensorRng::seed_from(options.seed);
    let mut best = current.clone();
    let mut best_edp = current_edp;
    let mut temperature = options.initial_temperature;
    for round in 0..options.rounds {
        // draw every move and Metropolis threshold serially, before the
        // parallel fan-out, so the RNG stream is worker-count-independent
        let mut proposals: Vec<(Vec<usize>, f64)> =
            Vec::with_capacity(options.proposals_per_round);
        for _ in 0..options.proposals_per_round {
            let mut order = current.clone();
            if n > 1 {
                let i = rng.below(n);
                let mut j = rng.below(n);
                if j == i {
                    j = (j + 1) % n;
                }
                if rng.bernoulli(0.25) {
                    order[i.min(j)..=i.max(j)].reverse();
                } else {
                    order.swap(i, j);
                }
            }
            let threshold = rng.uniform(0.0, 1.0) as f64;
            proposals.push((order, threshold));
        }
        let results = map_chunks(&proposals, |_first, chunk| {
            objective.edps(chunk, |(order, _), buf| buf.clone_from(order))
        });
        evaluations += proposals.len();
        // fold in candidate-index order: the first acceptable candidate
        // becomes the new current order, later ones only update best-seen
        let mut accepted_any = false;
        for (idx, res) in results.into_iter().enumerate() {
            let edp = res?;
            let (order, threshold) = &proposals[idx];
            if edp < best_edp {
                best_edp = edp;
                best = order.clone();
            }
            let relative = (edp - current_edp) / current_edp.max(f64::MIN_POSITIVE);
            let accepted =
                !accepted_any && (relative < 0.0 || *threshold < (-relative / temperature).exp());
            if accepted {
                accepted_any = true;
                current = order.clone();
                current_edp = edp;
            }
            trajectory.push(TrajectoryPoint {
                round,
                temperature,
                candidate_edp: edp,
                accepted,
                best_edp,
            });
        }
        temperature *= options.cooling;
    }

    Ok(SearchResult { best_order: best, best_edp, identity_edp, greedy_edp, evaluations, trajectory })
}

/// A point of the area × EDP × accuracy-under-faults trade space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Provisioned silicon area, mm².
    pub area_mm2: f64,
    /// Event-simulated energy-delay product, pJ·ns.
    pub edp: f64,
    /// Monte-Carlo mean accuracy under the fault model, in [0, 1].
    pub fault_accuracy: f64,
}

fn dominates(a: &ParetoPoint, b: &ParetoPoint) -> bool {
    a.area_mm2 <= b.area_mm2
        && a.edp <= b.edp
        && a.fault_accuracy >= b.fault_accuracy
        && (a.area_mm2 < b.area_mm2 || a.edp < b.edp || a.fault_accuracy > b.fault_accuracy)
}

/// Indices of the non-dominated points (smaller area and EDP, higher
/// accuracy), in input order. Duplicates are all kept.
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points.iter().enumerate().any(|(j, q)| j != i && dominates(q, &points[i]))
        })
        .collect()
}

/// Area of the *provisioned* mesh: the mapped chip area scaled up to the
/// full √N×√N tile grid the placement reserves (idle tiles still cost
/// silicon). An estimate — shared σ–E/global-buffer area is scaled with the
/// tiles rather than split out.
///
/// # Errors
///
/// Returns [`ImcError::InvalidConfig`] for invalid configurations.
pub fn provisioned_area_mm2(
    cost: &CostModel,
    constants: &AreaConstants,
    mesh_side: usize,
) -> Result<f64> {
    let report = crate::chip_area(cost.mapping(), cost.config(), constants)?;
    let mapped_tiles = cost.mapping().total_tiles().max(1);
    let provisioned = (mesh_side * mesh_side).max(mapped_tiles);
    Ok(report.total_mm2() * provisioned as f64 / mapped_tiles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipMapping, EventSim, HardwareConfig, Placement};
    use dtsnn_snn::vgg16_geometry;

    fn model() -> CostModel {
        let config = HardwareConfig::default();
        let mapping = ChipMapping::map(&vgg16_geometry(32, 3, 10), &config).unwrap();
        CostModel::new(mapping, config).unwrap()
    }

    fn densities(model: &CostModel) -> Vec<f32> {
        let mut d = vec![0.2f32; model.mapping().layers().len()];
        d[0] = 1.0;
        d
    }

    fn quick_options() -> AnnealOptions {
        AnnealOptions { rounds: 6, proposals_per_round: 2, ..AnnealOptions::default() }
    }

    #[test]
    fn search_never_loses_to_the_linear_placement() {
        let m = model();
        let d = densities(&m);
        let r = search_placement(&m, &d, &quick_options()).unwrap();
        assert!(r.best_edp <= r.greedy_edp);
        assert!(r.greedy_edp <= r.identity_edp);
        assert!(r.evaluations > 1);
        assert_eq!(r.trajectory.len(), 6 * 2);
        // the best order must actually evaluate to the reported EDP
        let options = quick_options();
        let placement = Placement::with_order(m.mapping(), r.best_order.clone()).unwrap();
        let check = EventSim::new(&m, placement, options.sim)
            .unwrap()
            .run(&d, options.timesteps, options.classes)
            .unwrap()
            .cost
            .edp();
        assert_eq!(check.to_bits(), r.best_edp.to_bits());
    }

    #[test]
    fn equal_seeds_reproduce_the_whole_trajectory() {
        let m = model();
        let d = densities(&m);
        let a = search_placement(&m, &d, &quick_options()).unwrap();
        let b = search_placement(&m, &d, &quick_options()).unwrap();
        assert_eq!(a, b);
        let other = AnnealOptions { seed: 8, ..quick_options() };
        let c = search_placement(&m, &d, &other).unwrap();
        // a different seed must draw different moves (EDPs may still tie)
        assert!(c.trajectory != a.trajectory || c.best_order != a.best_order || a == c);
    }

    #[test]
    fn degenerate_options_rejected() {
        let m = model();
        let d = densities(&m);
        let bad = AnnealOptions { proposals_per_round: 0, ..AnnealOptions::default() };
        assert!(search_placement(&m, &d, &bad).is_err());
        let bad = AnnealOptions { cooling: 0.0, ..AnnealOptions::default() };
        assert!(search_placement(&m, &d, &bad).is_err());
        let bad = AnnealOptions { initial_temperature: 0.0, ..AnnealOptions::default() };
        assert!(search_placement(&m, &d, &bad).is_err());
    }

    #[test]
    fn a_trajectory_too_long_to_hold_is_a_typed_error() {
        // rounds × proposals overflows usize: the trajectory cannot be
        // reserved, and the search says so before evaluating anything
        let m = model();
        let d = densities(&m);
        let hostile =
            AnnealOptions { rounds: usize::MAX, proposals_per_round: 2, ..quick_options() };
        assert!(matches!(search_placement(&m, &d, &hostile), Err(ImcError::InvalidConfig(_))));
    }

    #[test]
    fn pareto_front_keeps_only_non_dominated_points() {
        let pts = [
            ParetoPoint { area_mm2: 1.0, edp: 10.0, fault_accuracy: 0.9 },
            ParetoPoint { area_mm2: 2.0, edp: 5.0, fault_accuracy: 0.9 },
            ParetoPoint { area_mm2: 2.0, edp: 12.0, fault_accuracy: 0.8 }, // dominated by 0
            ParetoPoint { area_mm2: 0.5, edp: 20.0, fault_accuracy: 0.5 },
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 3]);
        // duplicates survive
        let dup = [pts[0], pts[0]];
        assert_eq!(pareto_front(&dup), vec![0, 1]);
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn provisioned_area_grows_with_the_mesh() {
        let m = model();
        let c = AreaConstants::default();
        let side = Placement::linear(m.mapping()).unwrap().mesh_side();
        let tight = provisioned_area_mm2(&m, &c, side).unwrap();
        let roomy = provisioned_area_mm2(&m, &c, side + 2).unwrap();
        assert!(roomy > tight);
        let mapped = crate::chip_area(m.mapping(), m.config(), &c).unwrap().total_mm2();
        assert!(tight >= mapped);
    }
}
