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
//! # One engine, prepared once
//!
//! A run splits into a `Prepared` part — everything that depends on the
//! cost model, options, densities, T and σ–E width but not on the placement
//! (durations, link service cycles, the energy ledger, the tallies) — and a
//! per-placement event loop over the reusable buffers of an `Engine`.
//! [`EventSim::run`] prepares and runs once; the mapping search prepares
//! once per search and runs every candidate on one warm engine per worker.
//! The engine is single-threaded and pops events from a binary heap keyed
//! `(time, sequence)`, so runs are deterministic and trivially invariant to
//! `DTSNN_THREADS`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::energy::{Component, CostModel, EnergyBreakdown, InferenceCost};
use crate::mapping::{ChipMapping, MappedLayer};
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
        let mesh_side = mesh_side(layers);
        let mut anchors = Vec::new();
        place(layers, &order, mesh_side, &mut anchors);
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
        hops(self.anchors[from], self.anchors[to])
    }
}

/// Side of the smallest square mesh holding every layer's tiles.
pub(crate) fn mesh_side(layers: &[MappedLayer]) -> usize {
    let total_tiles: usize = layers.iter().map(|l| l.tiles).sum();
    (total_tiles as f64).sqrt().ceil() as usize
}

/// Writes each layer's anchor — the tile nearest its block's centroid — for
/// the blocks claimed in `order` (a permutation of the layer indices).
///
/// The coordinate sums are exact integers, taken one mesh row of the block
/// at a time; a tile-by-tile `f64` sum is exact too below 2^53, so the
/// anchors are the same as a per-tile loop's.
pub(crate) fn place(
    layers: &[MappedLayer],
    order: &[usize],
    mesh_side: usize,
    anchors: &mut Vec<(usize, usize)>,
) {
    anchors.clear();
    anchors.resize(layers.len(), (0, 0));
    let mut next_tile = 0usize;
    for &layer in order {
        let tiles = layers[layer].tiles;
        let (mut cx, mut cy) = (0u64, 0u64);
        // the block's run of tiles in mesh row y starts at column x0
        let (mut y, mut x0) = (next_tile / mesh_side, next_tile % mesh_side);
        let mut left = tiles;
        while left > 0 {
            let width = left.min(mesh_side - x0);
            cx += ((2 * x0 + width - 1) * width / 2) as u64;
            cy += (y * width) as u64;
            (left, y, x0) = (left - width, y + 1, 0);
        }
        let nt = tiles.max(1) as f64;
        let ax = ((cx as f64 / nt).round() as usize).min(mesh_side - 1);
        let ay = ((cy as f64 / nt).round() as usize).min(mesh_side - 1);
        anchors[layer] = (ax, ay);
        next_tile += tiles;
    }
}

/// Manhattan distance between two tiles.
fn hops((ax, ay): (usize, usize), (bx, by): (usize, usize)) -> usize {
    ax.abs_diff(bx) + ay.abs_diff(by)
}

/// Appends the XY route between two tiles as directed mesh-link ids: first
/// along x, then along y. Nothing when both are the same tile.
fn route(
    (mut x, mut y): (usize, usize),
    (bx, by): (usize, usize),
    mesh_side: usize,
    links: &mut Vec<usize>,
) {
    // directions: 0 = +x, 1 = −x, 2 = +y, 3 = −y
    while x != bx {
        let dir = if bx > x { 0 } else { 1 };
        links.push((y * mesh_side + x) * 4 + dir);
        x = if bx > x { x + 1 } else { x - 1 };
    }
    while y != by {
        let dir = if by > y { 2 } else { 3 };
        links.push((y * mesh_side + x) * 4 + dir);
        y = if by > y { y + 1 } else { y - 1 };
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

    fn validate(&self) -> Result<()> {
        if self.buffer_slots == 0 {
            return Err(ImcError::InvalidConfig("buffer_slots must be at least 1".into()));
        }
        if self.link_bytes_per_cycle <= 0.0 || self.link_bytes_per_cycle.is_nan() {
            return Err(ImcError::InvalidConfig(format!(
                "link_bytes_per_cycle must be positive, got {}",
                self.link_bytes_per_cycle
            )));
        }
        Ok(())
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
#[derive(Debug, Clone, Copy)]
enum Event {
    /// `compute(t, l)` left the layer datapath.
    Compute { t: usize, l: usize },
    /// The transfer of timestep `t` from layer `l` reached layer `l + 1`.
    Transfer { t: usize, l: usize },
    /// The σ–E module finished scoring timestep `t`.
    Sigma { t: usize },
}

/// The placement-independent part of a run, computed once from the cost
/// model, the options, the densities, T and the σ–E width. The same kernels
/// as the ledger produce every number here.
#[derive(Debug)]
pub(crate) struct Prepared {
    options: SimOptions,
    timesteps: usize,
    /// Datapath cycles of one timestep, per layer.
    durations: Vec<u64>,
    /// σ–E cycles per timestep when the module is engaged.
    sigma_cycles: Option<u64>,
    /// Packed spike bytes layer `l` sends to `l + 1` per timestep.
    bytes: Vec<f64>,
    /// Cycles each hop of that transfer occupies a link.
    service: Vec<u64>,
    /// The energy ledger without the placement's extra-hop surcharge.
    energy: EnergyBreakdown,
    interconnect_byte: f64,
    clock_ns: f64,
    crossbar_reads: u64,
    adc_conversions: u64,
}

impl Prepared {
    /// Prepares runs of `timesteps` steps at the given per-layer input spike
    /// densities, with the σ–E module engaged when `classes` is `Some`.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for degenerate options, zero
    /// timesteps or a layers × timesteps table that cannot be addressed,
    /// and [`ImcError::ActivityMismatch`] for wrong density counts.
    pub(crate) fn new(
        cost: &CostModel,
        options: SimOptions,
        densities: &[f32],
        timesteps: usize,
        classes: Option<usize>,
    ) -> Result<Self> {
        options.validate()?;
        if timesteps == 0 {
            return Err(ImcError::InvalidConfig("timesteps must be positive, got 0".into()));
        }
        cost.check_densities(densities)?;
        let layers = cost.mapping().layers();
        let n = layers.len();
        if n.checked_mul(timesteps).is_none() {
            return Err(ImcError::InvalidConfig(format!(
                "{timesteps} timesteps of {n} layers overflow the event table"
            )));
        }
        let t_f = timesteps as f64;
        let durations = layers.iter().map(|l| cost.layer_compute_cycles(l)).collect();
        let sigma_cycles = classes.map(|k| cost.sigma_e_latency(k));
        // packed spikes, scaled by the consumer's input density
        let bytes: Vec<f64> = (0..n.saturating_sub(1))
            .map(|l| layers[l].output_neurons as f64 / 8.0 * densities[l + 1] as f64)
            .collect();
        let service = bytes
            .iter()
            .map(|b| ((b / options.link_bytes_per_cycle).ceil() as u64).max(1))
            .collect();

        // energy: same activity counts as the ledger, so the breakdown is
        // reproduced bitwise in parity mode
        let per_t = cost.timestep_energy(densities)?;
        let overhead = match options.schedule {
            TimestepSchedule::Sequential => 1.0,
            TimestepSchedule::Pipelined => 1.0 + PIPELINE_ENERGY_OVERHEAD,
        };
        let mut energy = per_t.scaled(t_f * overhead);
        energy.accumulate(&cost.fixed_energy(densities)?);
        if let Some(k) = classes {
            energy.add(Component::SigmaE, cost.sigma_e_energy(k) * t_f);
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

        Ok(Prepared {
            options,
            timesteps,
            durations,
            sigma_cycles,
            bytes,
            service,
            energy,
            interconnect_byte: cost.config().energy.interconnect_byte,
            clock_ns: cost.config().latency.clock_ns,
            crossbar_reads,
            adc_conversions,
        })
    }

    /// Simulates the placement whose layer anchors on a `mesh_side` mesh
    /// are `anchors`, on `engine`'s buffers.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] when the engine's buffers cannot
    /// be allocated or the event graph deadlocks.
    pub(crate) fn run(
        &self,
        engine: &mut Engine,
        anchors: &[(usize, usize)],
        mesh_side: usize,
    ) -> Result<SimReport> {
        engine.simulate(self, anchors, mesh_side)?;
        let n = self.durations.len();
        let latency_cycles = engine.finish.iter().copied().max().unwrap_or(0);
        let mut energy = self.energy.clone();
        if self.options.contention {
            // placement-aware surcharge: the ledger's flat interconnect term
            // already charges one traversal per output byte; every extra XY
            // hop beyond the first costs another byte-hop. This is what
            // gives the mapping search its spatial gradient.
            let t_f = self.timesteps as f64;
            for l in 0..n.saturating_sub(1) {
                let extra_hops = hops(anchors[l], anchors[l + 1]).saturating_sub(1) as f64;
                energy.add(
                    Component::Interconnect,
                    self.bytes[l] * extra_hops * self.interconnect_byte * t_f,
                );
            }
        }
        Ok(SimReport {
            cost: InferenceCost {
                energy,
                latency_cycles,
                clock_ns: self.clock_ns,
                timesteps: self.timesteps as f64,
            },
            crossbar_reads: self.crossbar_reads,
            adc_conversions: self.adc_conversions,
            link_flits: engine.link_flits,
            link_stall_cycles: engine.link_stall_cycles,
            buffer_stall_cycles: engine.buffer_stall_cycles,
            timestep_finish: engine.finish.clone(),
            events: engine.events,
        })
    }
}

/// The per-placement state of the event loop, in flat buffers that keep
/// their capacity from run to run: once warm, a run allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Engine {
    /// Pending events as `(time, sequence)`; `pushed[sequence]` is the event.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    pushed: Vec<Event>,
    /// `arrival[l * T + t]`: when timestep `t`'s input became resident at
    /// layer `l`. Inputs arrive in timestep order, so the valid entries of a
    /// layer are the prefix `t < arrived[l]`.
    arrival: Vec<u64>,
    arrived: Vec<usize>,
    /// Next timestep each layer computes, and when its datapath frees.
    next_t: Vec<usize>,
    layer_free: Vec<u64>,
    /// Chip-exit time of each timestep; the first `done` are final.
    finish: Vec<u64>,
    done: usize,
    sigma_free: u64,
    /// Busy-until time of every directed mesh link, zero outside a run.
    link_free: Vec<u64>,
    /// The forward XY routes, link `l → l + 1` at `routes[route_at[l]..route_at[l + 1]]`.
    routes: Vec<usize>,
    route_at: Vec<usize>,
    link_flits: u64,
    link_stall_cycles: u64,
    buffer_stall_cycles: u64,
    events: u64,
}

/// Clears `buf` and refills it with `len` copies of `value`, failing with a
/// typed error instead of aborting when `len` cannot be allocated.
fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) -> Result<()> {
    buf.clear();
    buf.try_reserve(len)
        .map_err(|e| ImcError::InvalidConfig(format!("event simulator buffer of {len}: {e}")))?;
    buf.resize(len, value);
    Ok(())
}

impl Engine {
    /// Runs the event loop to completion for one placement.
    fn simulate(
        &mut self,
        p: &Prepared,
        anchors: &[(usize, usize)],
        mesh_side: usize,
    ) -> Result<()> {
        let n = p.durations.len();
        let timesteps = p.timesteps;
        refill(&mut self.arrival, n * timesteps, 0)?; // `Prepared::new` bounds n × T
        refill(&mut self.finish, timesteps, 0)?;
        refill(&mut self.arrived, n, 0)?;
        refill(&mut self.next_t, n, 0)?;
        refill(&mut self.layer_free, n, 0)?;
        // the encoded input is on-chip: every timestep is resident at layer 0
        // at time 0 (the first row of `arrival` is already zero)
        self.arrived[0] = timesteps;

        // restore the links the previous run reserved, then route this one
        for &link in &self.routes {
            self.link_free[link] = 0;
        }
        self.routes.clear();
        self.route_at.clear();
        self.route_at.push(0);
        if p.options.contention {
            let links = mesh_side
                .checked_mul(mesh_side)
                .and_then(|tiles| tiles.checked_mul(4))
                .ok_or_else(|| ImcError::InvalidConfig(format!("mesh side {mesh_side}")))?;
            if self.link_free.len() != links {
                refill(&mut self.link_free, links, 0)?;
            }
        }
        for l in 0..n.saturating_sub(1) {
            if p.options.contention {
                route(anchors[l], anchors[l + 1], mesh_side, &mut self.routes);
            }
            self.route_at.push(self.routes.len());
        }

        self.heap.clear();
        self.pushed.clear();
        self.done = 0;
        self.sigma_free = 0;
        (self.link_flits, self.link_stall_cycles, self.buffer_stall_cycles, self.events) =
            (0, 0, 0, 0);

        for l in 0..n {
            self.schedule(p, l);
        }
        while let Some(Reverse((now, seq))) = self.heap.pop() {
            self.events += 1;
            match self.pushed[seq] {
                Event::Compute { t, l } if l + 1 < n => {
                    let route = &self.routes[self.route_at[l]..self.route_at[l + 1]];
                    if !p.options.contention || route.is_empty() {
                        // transfer is free: it overlaps with compute
                        // (the ledger's assumption) or stays on-tile
                        self.arrive(p, t, l, now);
                    } else {
                        // reserve the XY route hop by hop, FIFO per link
                        let mut tau = now;
                        for &link in route {
                            let start = tau.max(self.link_free[link]);
                            self.link_stall_cycles += start - tau;
                            self.link_free[link] = start.saturating_add(p.service[l]);
                            tau = self.link_free[link];
                        }
                        self.link_flits += route.len() as u64;
                        self.push(tau, Event::Transfer { t, l });
                    }
                }
                Event::Compute { t, .. } => match p.sigma_cycles {
                    Some(cycles) => {
                        // σ–E is one more serialized stage
                        let start = now.max(self.sigma_free);
                        self.sigma_free = start.saturating_add(cycles);
                        self.push(self.sigma_free, Event::Sigma { t });
                    }
                    None => self.exit(p, t, now),
                },
                Event::Transfer { t, l } => self.arrive(p, t, l, now),
                Event::Sigma { t } => self.exit(p, t, now),
            }
        }

        if self.next_t.iter().any(|&t| t < timesteps) {
            return Err(ImcError::InvalidConfig(
                "event simulator deadlocked before completing all timesteps".into(),
            ));
        }
        Ok(())
    }

    fn push(&mut self, time: u64, event: Event) {
        self.heap.push(Reverse((time, self.pushed.len())));
        self.pushed.push(event);
    }

    /// Timestep `t`'s output of layer `l` reached layer `l + 1`, which also
    /// hands layer `l` an output-buffer credit. Only these two layers'
    /// start conditions changed.
    fn arrive(&mut self, p: &Prepared, t: usize, l: usize, now: u64) {
        debug_assert_eq!(self.arrived[l + 1], t, "inputs arrive in timestep order");
        self.arrival[(l + 1) * p.timesteps + t] = now;
        self.arrived[l + 1] = t + 1;
        self.schedule(p, l);
        self.schedule(p, l + 1);
    }

    /// Timestep `t` left the chip, which may open layer 0's gate.
    fn exit(&mut self, p: &Prepared, t: usize, now: u64) {
        debug_assert_eq!(self.done, t, "timesteps exit in order");
        self.finish[t] = now;
        self.done = t + 1;
        self.schedule(p, 0);
    }

    /// Schedules every currently startable compute of layer `l`. Start time
    /// = max of the enabling condition times, all of which are already
    /// known, so eager scheduling cannot distort the chronology.
    fn schedule(&mut self, p: &Prepared, l: usize) {
        let n = p.durations.len();
        let timesteps = p.timesteps;
        loop {
            let t = self.next_t[l];
            if t >= self.arrived[l] {
                break;
            }
            let mut ready = self.arrival[l * timesteps + t].max(self.layer_free[l]);
            if l == 0 && t > 0 && p.options.schedule == TimestepSchedule::Sequential {
                // timestep t enters once t − 1 has left the chip
                if self.done < t {
                    break;
                }
                ready = ready.max(self.finish[t - 1]);
            }
            // the classifier's output goes straight to σ–E / off-chip, so
            // only interior layers need a credit. A layer starts with
            // `buffer_slots` credits at time 0, and the k-th returned one is
            // timestep k's arrival at the next layer, so compute t takes
            // that of timestep t − buffer_slots.
            if l + 1 < n {
                if let Some(k) = t.checked_sub(p.options.buffer_slots) {
                    if self.arrived[l + 1] <= k {
                        break;
                    }
                    let credit = self.arrival[(l + 1) * timesteps + k];
                    if credit > ready {
                        self.buffer_stall_cycles += credit - ready;
                    }
                    ready = ready.max(credit);
                }
            }
            self.layer_free[l] = ready.saturating_add(p.durations[l]);
            self.next_t[l] = t + 1;
            self.push(self.layer_free[l], Event::Compute { t, l });
        }
    }
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
        options.validate()?;
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
    /// [`ImcError::InvalidConfig`] for zero timesteps or more than the
    /// simulator can hold.
    pub fn run(
        &self,
        densities: &[f32],
        timesteps: usize,
        classes: Option<usize>,
    ) -> Result<SimReport> {
        let prepared = Prepared::new(self.cost, self.options, densities, timesteps, classes)?;
        prepared.run(&mut Engine::default(), &self.placement.anchors, self.placement.mesh_side)
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
    fn hostile_buffer_slots_equal_one_slot_per_timestep() {
        // a layer never holds more than T produced timesteps, so any larger
        // buffer is the same as T slots — and allocates nothing extra
        let m = model();
        let d = densities(&m);
        let p = Placement::with_order(m.mapping(), (0..d.len()).rev().collect()).unwrap();
        let t = 3;
        let run = |buffer_slots| {
            let options = SimOptions { buffer_slots, ..SimOptions::pipelined() };
            EventSim::new(&m, p.clone(), options).unwrap().run(&d, t, Some(10)).unwrap()
        };
        let reference = run(t);
        assert_eq!(run(usize::MAX), reference);
        assert_eq!(run(1 << 40), reference);
    }

    #[test]
    fn hostile_timesteps_are_a_typed_error() {
        let m = model();
        let d = densities(&m);
        let p = Placement::linear(m.mapping()).unwrap();
        let sim = EventSim::new(&m, p, SimOptions::pipelined()).unwrap();
        assert!(matches!(sim.run(&d, usize::MAX, Some(10)), Err(ImcError::InvalidConfig(_))));
    }

    #[test]
    fn exact_centroids_match_the_per_tile_loop() {
        // the anchors of every block, against the tile-by-tile f64 sum they
        // replaced, on meshes with partial first and last rows
        let config = HardwareConfig::default();
        for geometries in [vgg16_geometry(32, 3, 10), dtsnn_snn::resnet19_geometry(32, 3, 10)] {
            let mapping = ChipMapping::map(&geometries, &config).unwrap();
            let layers = mapping.layers();
            let n = layers.len();
            for order in [(0..n).collect::<Vec<_>>(), (0..n).rev().collect()] {
                let placement = Placement::with_order(&mapping, order.clone()).unwrap();
                let side = placement.mesh_side();
                let mut next_tile = 0usize;
                for &layer in &order {
                    let tiles = layers[layer].tiles;
                    let (mut cx, mut cy) = (0.0f64, 0.0f64);
                    for t in next_tile..next_tile + tiles {
                        cx += (t % side) as f64;
                        cy += (t / side) as f64;
                    }
                    let nt = tiles.max(1) as f64;
                    let ax = ((cx / nt).round() as usize).min(side - 1);
                    let ay = ((cy / nt).round() as usize).min(side - 1);
                    assert_eq!(placement.anchor(layer), (ax, ay), "layer {layer}");
                    next_tile += tiles;
                }
            }
        }
    }

    #[test]
    fn a_reused_engine_reproduces_fresh_runs() {
        // one engine through placements, schedules and link rates in turn
        // must report exactly what a fresh engine reports for each
        let m = model();
        let d = densities(&m);
        let n = d.len();
        let mut engine = Engine::default();
        for options in [
            SimOptions::pipelined(),
            SimOptions::analytical_parity(),
            SimOptions { link_bytes_per_cycle: 0.05, buffer_slots: 1, ..SimOptions::pipelined() },
        ] {
            let shuffle = (0..n).map(|k| (5 * k + 3) % n).collect();
            for order in [(0..n).collect::<Vec<_>>(), (0..n).rev().collect(), shuffle] {
                let p = Placement::with_order(m.mapping(), order).unwrap();
                let prepared = Prepared::new(&m, options, &d, 4, Some(10)).unwrap();
                let reused = prepared.run(&mut engine, &p.anchors, p.mesh_side).unwrap();
                let fresh = EventSim::new(&m, p, options).unwrap().run(&d, 4, Some(10)).unwrap();
                assert_eq!(reused, fresh, "{options:?}");
            }
        }
    }

    #[test]
    fn a_warm_engine_reuses_its_buffers() {
        // once every placement has run once, running them again moves no
        // buffer and grows none: the engine allocates nothing per run
        let m = model();
        let d = densities(&m);
        let n = d.len();
        let prepared = Prepared::new(&m, SimOptions::pipelined(), &d, 4, Some(10)).unwrap();
        let shuffle = (0..n).map(|k| (5 * k + 3) % n).collect();
        let placements: Vec<Placement> = [(0..n).collect(), (0..n).rev().collect(), shuffle]
            .into_iter()
            .map(|order| Placement::with_order(m.mapping(), order).unwrap())
            .collect();
        let mut engine = Engine::default();
        let buffers = |e: &Engine| {
            (
                e.heap.capacity(),
                [e.pushed.as_ptr() as usize, e.pushed.capacity()],
                [e.arrival.as_ptr() as usize, e.arrival.capacity()],
                [e.finish.as_ptr() as usize, e.link_free.as_ptr() as usize],
                [e.routes.as_ptr() as usize, e.routes.capacity()],
                [e.route_at.as_ptr() as usize, e.next_t.as_ptr() as usize],
            )
        };
        for p in &placements {
            prepared.run(&mut engine, &p.anchors, p.mesh_side).unwrap();
        }
        let warm = buffers(&engine);
        for p in placements.iter().rev() {
            prepared.run(&mut engine, &p.anchors, p.mesh_side).unwrap();
            assert_eq!(buffers(&engine), warm);
        }
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
