//! Event-driven multi-tile simulator (SpikeSim-grade; ROADMAP item 3).
//!
//! The analytical [`CostModel`] sums component latencies; this module builds
//! the *critical path through an event graph* instead. Each layer occupies a
//! block of tiles on the √N×√N mesh (a [`Placement`]), computes one
//! timestep's worth of crossbar reads / ADC conversions / shift-&-adds as a
//! serialized datapath occupation, then streams its packed output spikes to
//! the next layer's tiles over XY-routed mesh links. Three resources make
//! latency emergent rather than additive:
//!
//! * **datapath** — a layer processes one timestep at a time
//!   (`compute(t, l)` waits for `compute(t−1, l)`),
//! * **links** — directed mesh links serve one transfer at a time in
//!   arrival order (FIFO arbitration; XY routes are reserved hop-by-hop when
//!   the transfer is injected), and
//! * **output buffers** — a layer holds at most `buffer_slots` produced
//!   timesteps; a slot frees when the forward transfer completes, so slow
//!   consumers backpressure fast producers.
//!
//! Under [`TimestepSchedule::Sequential`] timestep `t+1` may only enter
//! layer 0 once timestep `t` has fully left the chip (the paper's DT-SNN
//! design point). Under [`TimestepSchedule::Pipelined`] timesteps flow
//! through the layer pipeline like a flow shop, and the σ–E module acts as
//! one more serialized stage.
//!
//! # Parity guarantee (fuzz oracle 11)
//!
//! With the default options — Sequential schedule, contention off — the
//! simulator reproduces [`CostModel::inference_cost`] *exactly*: bitwise on
//! latency cycles and on the energy breakdown. Both models share the same
//! per-layer cycle and energy kernels (`layer_compute_cycles`,
//! `layer_timestep_energy`), so they cannot drift apart silently. Every
//! pipelining/contention feature is therefore a measured *delta* against
//! the paper's calibrated ledger, never a reinterpretation of it.
//!
//! The engine is single-threaded and pops events from a binary heap keyed
//! `(time, sequence)`, so runs are deterministic and trivially invariant to
//! `DTSNN_THREADS`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::energy::{Component, CostModel, InferenceCost};
use crate::mapping::ChipMapping;
use crate::pipeline::{TimestepSchedule, PIPELINE_ENERGY_OVERHEAD};
use crate::{ImcError, Result};

/// Assignment of layers to tile blocks on the mesh.
///
/// Tiles are numbered row-major on the smallest square mesh that fits the
/// mapping's total tile count. Layers claim contiguous tile ranges in a
/// caller-chosen *placement order* (a permutation of the layer indices);
/// each layer is then represented by the tile nearest its block centroid,
/// and consecutive layers communicate over the XY route between their
/// representative tiles. [`Placement::linear`] is the floorplan in network
/// order, the one the mapping search starts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    mesh_side: usize,
    order: Vec<usize>,
    anchors: Vec<(usize, usize)>,
}

impl Placement {
    /// Places layers in network order.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for an empty mapping.
    pub fn linear(mapping: &ChipMapping) -> Result<Self> {
        Self::with_order(mapping, (0..mapping.layers().len()).collect())
    }

    /// Places layers in the given order (a permutation of `0..layers`).
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for an empty mapping or when
    /// `order` is not a permutation of the layer indices.
    pub fn with_order(mapping: &ChipMapping, order: Vec<usize>) -> Result<Self> {
        let layers = mapping.layers();
        let n = layers.len();
        if n == 0 {
            return Err(ImcError::InvalidConfig("cannot place an empty mapping".into()));
        }
        if order.len() != n {
            return Err(ImcError::InvalidConfig(format!(
                "placement order has {} entries for {n} layers",
                order.len()
            )));
        }
        let mut seen = vec![false; n];
        for &l in &order {
            if l >= n || seen[l] {
                return Err(ImcError::InvalidConfig(format!(
                    "placement order is not a permutation of 0..{n}"
                )));
            }
            seen[l] = true;
        }
        let total_tiles: usize = layers.iter().map(|l| l.tiles).sum();
        let mesh_side = (total_tiles as f64).sqrt().ceil() as usize;
        let mut anchors = vec![(0usize, 0usize); n];
        let mut next_tile = 0usize;
        for &layer in &order {
            let tiles = layers[layer].tiles;
            let (mut cx, mut cy) = (0.0f64, 0.0f64);
            for t in next_tile..next_tile + tiles {
                cx += (t % mesh_side) as f64;
                cy += (t / mesh_side) as f64;
            }
            let nt = tiles.max(1) as f64;
            let ax = ((cx / nt).round() as usize).min(mesh_side - 1);
            let ay = ((cy / nt).round() as usize).min(mesh_side - 1);
            anchors[layer] = (ax, ay);
            next_tile += tiles;
        }
        Ok(Placement { mesh_side, order, anchors })
    }

    /// Mesh side length (tiles per row).
    pub fn mesh_side(&self) -> usize {
        self.mesh_side
    }

    /// The placement order: `order()[k]` is the layer holding the `k`-th
    /// tile block.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Representative tile (x, y) of a layer's block.
    pub fn anchor(&self, layer: usize) -> (usize, usize) {
        self.anchors[layer]
    }

    /// Manhattan hop count between two layers' representative tiles.
    pub fn hops(&self, from: usize, to: usize) -> usize {
        let (ax, ay) = self.anchors[from];
        let (bx, by) = self.anchors[to];
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// XY route between two layers as directed mesh-link ids: first along
    /// x, then along y. Empty when both anchors share a tile.
    fn route(&self, from: usize, to: usize) -> Vec<usize> {
        let (mut x, mut y) = self.anchors[from];
        let (bx, by) = self.anchors[to];
        let mut links = Vec::with_capacity(self.hops(from, to));
        // directions: 0 = +x, 1 = −x, 2 = +y, 3 = −y
        while x != bx {
            let dir = if bx > x { 0 } else { 1 };
            links.push((y * self.mesh_side + x) * 4 + dir);
            x = if bx > x { x + 1 } else { x - 1 };
        }
        while y != by {
            let dir = if by > y { 2 } else { 3 };
            links.push((y * self.mesh_side + x) * 4 + dir);
            y = if by > y { y + 1 } else { y - 1 };
        }
        links
    }
}

/// Knobs of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Timestep schedule (sequential = the paper's design point).
    pub schedule: TimestepSchedule,
    /// Model NoC link occupancy and buffer backpressure. Off, transfers are
    /// instantaneous and overlap with compute — exactly the analytical
    /// ledger's assumption.
    pub contention: bool,
    /// Link bandwidth: packed spike bytes a mesh link moves per cycle.
    pub link_bytes_per_cycle: f64,
    /// Produced timesteps a layer can hold before backpressuring (≥ 1).
    pub buffer_slots: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            schedule: TimestepSchedule::Sequential,
            contention: false,
            link_bytes_per_cycle: 4.0,
            buffer_slots: 2,
        }
    }
}

impl SimOptions {
    /// The oracle configuration: must reproduce the analytical ledger.
    pub fn analytical_parity() -> Self {
        SimOptions::default()
    }

    /// Full pipelining with contention — the configuration the mapping
    /// search optimizes.
    pub fn pipelined() -> Self {
        SimOptions {
            schedule: TimestepSchedule::Pipelined,
            contention: true,
            ..SimOptions::default()
        }
    }
}

/// What one simulation run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Energy / latency / EDP of the simulated inference.
    pub cost: InferenceCost,
    /// Crossbar read events (vector presentations × crossbars, summed).
    pub crossbar_reads: u64,
    /// ADC conversion events (ledger count: vp × physical cols × segments).
    pub adc_conversions: u64,
    /// Link-hop traversals injected into the mesh.
    pub link_flits: u64,
    /// Cycles transfers spent queued behind busy links.
    pub link_stall_cycles: u64,
    /// Cycles computes spent waiting on output-buffer credits.
    pub buffer_stall_cycles: u64,
    /// Chip-exit time of each timestep, cycles.
    pub timestep_finish: Vec<u64>,
    /// Discrete events processed.
    pub events: u64,
}

/// Heap events, keyed by completion time (ties broken by push sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// `compute(t, l)` left the layer datapath.
    Compute { t: usize, l: usize },
    /// The transfer of timestep `t` from layer `l` reached layer `l + 1`.
    Transfer { t: usize, l: usize },
    /// The σ–E module finished scoring timestep `t`.
    Sigma { t: usize },
}

/// The event-driven simulator, bound to a cost model and a placement.
#[derive(Debug, Clone)]
pub struct EventSim<'a> {
    cost: &'a CostModel,
    placement: Placement,
    options: SimOptions,
}

impl<'a> EventSim<'a> {
    /// Binds the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] when the placement does not
    /// cover the mapping's layers or the options are degenerate.
    pub fn new(cost: &'a CostModel, placement: Placement, options: SimOptions) -> Result<Self> {
        let n = cost.mapping().layers().len();
        if placement.order.len() != n {
            return Err(ImcError::InvalidConfig(format!(
                "placement covers {} layers, mapping has {n}",
                placement.order.len()
            )));
        }
        if options.buffer_slots == 0 {
            return Err(ImcError::InvalidConfig("buffer_slots must be at least 1".into()));
        }
        if options.link_bytes_per_cycle <= 0.0 || options.link_bytes_per_cycle.is_nan() {
            return Err(ImcError::InvalidConfig(format!(
                "link_bytes_per_cycle must be positive, got {}",
                options.link_bytes_per_cycle
            )));
        }
        Ok(EventSim { cost, placement, options })
    }

    /// The placement being simulated.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Simulates one inference of `timesteps` steps at the given per-layer
    /// input spike densities, with the σ–E module engaged when `classes` is
    /// `Some`.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::ActivityMismatch`] for wrong density counts and
    /// [`ImcError::InvalidConfig`] for zero timesteps.
    pub fn run(
        &self,
        densities: &[f32],
        timesteps: usize,
        classes: Option<usize>,
    ) -> Result<SimReport> {
        if timesteps == 0 {
            return Err(ImcError::InvalidConfig("timesteps must be positive, got 0".into()));
        }
        let layers = self.cost.mapping().layers();
        let n = layers.len();
        self.cost.check_densities(densities)?;
        let t_f = timesteps as f64;

        // --- static per-layer quantities (same kernels as the ledger) ---
        let durations: Vec<u64> =
            layers.iter().map(|l| self.cost.layer_compute_cycles(l)).collect();
        let sigma_cycles = classes.map(|k| self.cost.sigma_e_latency(k)).unwrap_or(0);
        // forward routes + per-hop serialization cycles (contention only)
        let mut routes: Vec<Vec<usize>> = Vec::with_capacity(n.saturating_sub(1));
        let mut service: Vec<u64> = Vec::with_capacity(n.saturating_sub(1));
        for l in 0..n.saturating_sub(1) {
            routes.push(self.placement.route(l, l + 1));
            // packed spikes, scaled by the consumer's input density
            let bytes = layers[l].output_neurons as f64 / 8.0 * densities[l + 1] as f64;
            service.push(((bytes / self.options.link_bytes_per_cycle).ceil() as u64).max(1));
        }
        let sequential = self.options.schedule == TimestepSchedule::Sequential;

        // --- mutable engine state ---
        fn push(
            heap: &mut BinaryHeap<Reverse<(u64, u64, Event)>>,
            seq: &mut u64,
            time: u64,
            ev: Event,
        ) {
            heap.push(Reverse((time, *seq, ev)));
            *seq += 1;
        }
        let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
        let mut seq = 0u64;
        // arrivals[l][t]: when timestep t's input is resident at layer l
        let mut arrivals: Vec<Vec<Option<u64>>> = vec![vec![None; timesteps]; n];
        arrivals[0] = vec![Some(0); timesteps]; // encoded input is on-chip
        // gate[t]: when timestep t may enter layer 0 (sequential schedule)
        let mut gate: Vec<Option<u64>> = vec![None; timesteps];
        gate[0] = Some(0);
        if !sequential {
            gate = vec![Some(0); timesteps];
        }
        let mut next_t: Vec<usize> = vec![0; n];
        let mut layer_free: Vec<u64> = vec![0; n];
        // FIFO of times at which an output-buffer credit became available
        let mut credits: Vec<VecDeque<u64>> = (0..n)
            .map(|_| (0..self.options.buffer_slots).map(|_| 0u64).collect())
            .collect();
        let mut link_free: Vec<u64> = vec![0; self.placement.mesh_side * self.placement.mesh_side * 4];
        let mut sigma_free = 0u64;
        let mut finish: Vec<u64> = vec![0; timesteps];
        let mut link_stall_cycles = 0u64;
        let mut buffer_stall_cycles = 0u64;
        let mut link_flits = 0u64;
        let mut events = 0u64;

        // Schedules every currently startable compute, eagerly per layer.
        // Start time = max of the enabling condition times, all of which are
        // already known, so eager scheduling cannot distort the chronology.
        let try_schedule =
            |heap: &mut BinaryHeap<Reverse<(u64, u64, Event)>>,
             seq: &mut u64,
             arrivals: &[Vec<Option<u64>>],
             gate: &[Option<u64>],
             next_t: &mut [usize],
             layer_free: &mut [u64],
             credits: &mut [VecDeque<u64>],
             buffer_stall_cycles: &mut u64| {
                for l in 0..n {
                    loop {
                        let t = next_t[l];
                        if t >= timesteps {
                            break;
                        }
                        let Some(arrival) = arrivals[l][t] else { break };
                        let gate_time = if l == 0 {
                            match gate[t] {
                                Some(g) => g,
                                None => break,
                            }
                        } else {
                            0
                        };
                        // the classifier's output goes straight to σ–E /
                        // off-chip, so only interior layers need a credit
                        let needs_credit = l + 1 < n;
                        if needs_credit && credits[l].is_empty() {
                            break;
                        }
                        let ready = arrival.max(gate_time).max(layer_free[l]);
                        let start = if needs_credit {
                            let credit = credits[l].pop_front().expect("checked non-empty");
                            if credit > ready {
                                *buffer_stall_cycles += credit - ready;
                            }
                            ready.max(credit)
                        } else {
                            ready
                        };
                        layer_free[l] = start.saturating_add(durations[l]);
                        next_t[l] = t + 1;
                        push(heap, seq, layer_free[l], Event::Compute { t, l });
                    }
                }
            };

        try_schedule(
            &mut heap,
            &mut seq,
            &arrivals,
            &gate,
            &mut next_t,
            &mut layer_free,
            &mut credits,
            &mut buffer_stall_cycles,
        );

        while let Some(Reverse((now, _, event))) = heap.pop() {
            events += 1;
            match event {
                Event::Compute { t, l } => {
                    if l + 1 < n {
                        if !self.options.contention || routes[l].is_empty() {
                            // transfer is free: it overlaps with compute
                            // (the ledger's assumption) or stays on-tile
                            arrivals[l + 1][t] = Some(now);
                            credits[l].push_back(now);
                        } else {
                            // reserve the XY route hop by hop, FIFO per link
                            let mut tau = now;
                            for &link in &routes[l] {
                                let start = tau.max(link_free[link]);
                                link_stall_cycles += start - tau;
                                link_free[link] = start.saturating_add(service[l]);
                                tau = link_free[link];
                            }
                            link_flits += routes[l].len() as u64;
                            push(&mut heap, &mut seq, tau, Event::Transfer { t, l });
                        }
                    } else if classes.is_some() {
                        // σ–E is one more serialized stage
                        let start = now.max(sigma_free);
                        sigma_free = start.saturating_add(sigma_cycles);
                        push(&mut heap, &mut seq, sigma_free, Event::Sigma { t });
                    } else {
                        finish[t] = now;
                        if sequential && t + 1 < timesteps {
                            gate[t + 1] = Some(now);
                        }
                    }
                }
                Event::Transfer { t, l } => {
                    arrivals[l + 1][t] = Some(now);
                    credits[l].push_back(now);
                }
                Event::Sigma { t } => {
                    finish[t] = now;
                    if sequential && t + 1 < timesteps {
                        gate[t + 1] = Some(now);
                    }
                }
            }
            try_schedule(
                &mut heap,
                &mut seq,
                &arrivals,
                &gate,
                &mut next_t,
                &mut layer_free,
                &mut credits,
                &mut buffer_stall_cycles,
            );
        }

        if next_t.iter().any(|&t| t < timesteps) {
            return Err(ImcError::InvalidConfig(
                "event simulator deadlocked before completing all timesteps".into(),
            ));
        }
        let latency_cycles = finish.iter().copied().max().unwrap_or(0);

        // --- energy: same activity counts as the ledger, so the breakdown
        // is reproduced bitwise in parity mode ---
        let per_t = self.cost.timestep_energy(densities)?;
        let overhead = match self.options.schedule {
            TimestepSchedule::Sequential => 1.0,
            TimestepSchedule::Pipelined => 1.0 + PIPELINE_ENERGY_OVERHEAD,
        };
        let mut energy = per_t.scaled(t_f * overhead);
        energy.accumulate(&self.cost.fixed_energy(densities)?);
        if let Some(k) = classes {
            energy.add(Component::SigmaE, self.cost.sigma_e_energy(k) * t_f);
        }
        if self.options.contention {
            // placement-aware surcharge: the ledger's flat interconnect term
            // already charges one traversal per output byte; every extra XY
            // hop beyond the first costs another byte-hop. This is what
            // gives the mapping search its spatial gradient.
            let e_byte = self.cost.config().energy.interconnect_byte;
            for l in 0..n.saturating_sub(1) {
                let extra_hops = self.placement.hops(l, l + 1).saturating_sub(1) as f64;
                let bytes = layers[l].output_neurons as f64 / 8.0 * densities[l + 1] as f64;
                energy.add(Component::Interconnect, bytes * extra_hops * e_byte * t_f);
            }
        }

        // event tallies from the same counts the ledger integrates,
        // saturating at u64::MAX
        let mut crossbar_reads = 0u64;
        let mut adc_conversions = 0u64;
        let per_run = |counts: [usize; 3]| {
            counts.iter().fold(timesteps as u64, |p, &c| p.saturating_mul(c as u64))
        };
        for layer in layers {
            let vp = layer.vector_presentations;
            crossbar_reads = crossbar_reads.saturating_add(per_run([vp, layer.crossbars, 1]));
            adc_conversions = adc_conversions
                .saturating_add(per_run([vp, layer.physical_cols, layer.row_segments]));
        }

        Ok(SimReport {
            cost: InferenceCost {
                energy,
                latency_cycles,
                clock_ns: self.cost.config().latency.clock_ns,
                timesteps: t_f,
            },
            crossbar_reads,
            adc_conversions,
            link_flits,
            link_stall_cycles,
            buffer_stall_cycles,
            timestep_finish: finish,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipMapping, HardwareConfig};
    use dtsnn_snn::{vgg16_geometry, LayerGeometry};

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

    #[test]
    fn hostile_latency_parameters_saturate_instead_of_wrapping() {
        // `HardwareConfig::validate` bounds none of these fields: at half of
        // u64::MAX every per-layer, per-timestep and σ–E cycle count
        // overflows, and must read u64::MAX rather than panic (debug) or
        // wrap (release) — through the ledger, the stage model and the event
        // simulator alike.
        let mut config = HardwareConfig::default();
        let half = u64::MAX / 2;
        let l = &mut config.latency;
        (l.crossbar_read, l.adc, l.shift_add, l.layer_overhead, l.sigma_e_per_class) =
            (half, half, half, half, half);
        let mapping = ChipMapping::map(&vgg16_geometry(32, 3, 10), &config).unwrap();
        let m = CostModel::new(mapping, config).unwrap();
        assert!(m.mapping().layers().iter().all(|l| m.layer_compute_cycles(l) == u64::MAX));
        assert_eq!(m.timestep_latency(), u64::MAX);
        assert_eq!(m.sigma_e_latency(10), u64::MAX);
        assert_eq!(m.bottleneck_stage_cycles(), u64::MAX);
        let d = densities(&m);
        for options in [SimOptions::analytical_parity(), SimOptions { contention: true, ..SimOptions::default() }] {
            let sim = EventSim::new(&m, Placement::linear(m.mapping()).unwrap(), options).unwrap();
            let report = sim.run(&d, 3, Some(10)).unwrap();
            assert_eq!(report.cost.latency_cycles, u64::MAX, "{options:?}");
            assert!(report.crossbar_reads > 0 && report.adc_conversions > 0);
        }
    }

    #[test]
    fn parity_mode_reproduces_the_ledger_bitwise() {
        let m = model();
        let d = densities(&m);
        let sim = EventSim::new(&m, Placement::linear(m.mapping()).unwrap(), SimOptions::analytical_parity())
            .unwrap();
        for t in 1..=4usize {
            for classes in [None, Some(10)] {
                let ledger = m.inference_cost(&d, t as f64, classes).unwrap();
                let report = sim.run(&d, t, classes).unwrap();
                assert_eq!(report.cost.latency_cycles, ledger.latency_cycles, "T={t}");
                for c in Component::ALL {
                    assert_eq!(
                        report.cost.energy.component(c).to_bits(),
                        ledger.energy.component(c).to_bits(),
                        "component {} at T={t}",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn placement_rejects_non_permutations() {
        let m = model();
        let n = m.mapping().layers().len();
        assert!(Placement::with_order(m.mapping(), vec![0; n]).is_err());
        assert!(Placement::with_order(m.mapping(), vec![0, 1]).is_err());
        assert!(Placement::with_order(m.mapping(), (0..n).map(|i| i + 1).collect()).is_err());
        assert!(Placement::with_order(m.mapping(), (0..n).rev().collect()).is_ok());
    }

    #[test]
    fn degenerate_options_rejected() {
        let m = model();
        let p = Placement::linear(m.mapping()).unwrap();
        let bad = SimOptions { buffer_slots: 0, ..SimOptions::default() };
        assert!(EventSim::new(&m, p.clone(), bad).is_err());
        let bad = SimOptions { link_bytes_per_cycle: 0.0, ..SimOptions::default() };
        assert!(EventSim::new(&m, p.clone(), bad).is_err());
        let sim = EventSim::new(&m, p, SimOptions::default()).unwrap();
        let d = densities(&m);
        assert!(sim.run(&d, 0, None).is_err());
        assert!(sim.run(&[0.5], 1, None).is_err());
    }

    #[test]
    fn single_layer_network_simulates_under_both_schedules() {
        let config = HardwareConfig::default();
        let mapping = ChipMapping::map(
            &[LayerGeometry::Fc { in_features: 64, out_features: 10 }],
            &config,
        )
        .unwrap();
        let m = CostModel::new(mapping, config).unwrap();
        let d = [1.0f32];
        let stage = m.timestep_latency();
        let sigma = m.sigma_e_latency(10);
        // sequential: each timestep fully exits before the next enters
        let sim = EventSim::new(&m, Placement::linear(m.mapping()).unwrap(), SimOptions::analytical_parity())
            .unwrap();
        let report = sim.run(&d, 3, Some(10)).unwrap();
        assert_eq!(report.cost.latency_cycles, 3 * (stage + sigma));
        assert_eq!(report.link_flits, 0);
        // pipelined: the single compute stage and σ–E overlap as a 2-stage
        // flow shop: Σ stages + (T−1) · bottleneck
        let sim = EventSim::new(&m, Placement::linear(m.mapping()).unwrap(), SimOptions::pipelined())
            .unwrap();
        let report = sim.run(&d, 3, Some(10)).unwrap();
        assert_eq!(report.cost.latency_cycles, stage + sigma + 2 * stage.max(sigma));
        assert_eq!(report.link_flits, 0);
        assert_eq!(report.link_stall_cycles, 0);
    }
}
