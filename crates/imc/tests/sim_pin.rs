//! Literal pins of the event simulator and the mapping search.
//!
//! Every value below was recorded from the simulator before its engine was
//! split into a placement-independent part and a per-placement event loop,
//! so any change to event order, stall accounting, link reservation or the
//! energy surcharge shows up here as a changed literal. The configurations
//! cover both schedules, σ–E on and off, and placements whose links stall
//! (the shuffled pipelined runs) and whose producers wait on output-buffer
//! credits (every 1-slot pipelined run); the `chip_map` benchmark points
//! see no link stalls.

use dtsnn_imc::{
    search_placement, AnnealOptions, ChipMapping, CostModel, EventSim, HardwareConfig,
    Placement, SimOptions, TimestepSchedule,
};
use dtsnn_snn::{resnet19_geometry, vgg16_geometry, LayerGeometry};

const T: usize = 4;

fn model(geometries: &[LayerGeometry], hardware: HardwareConfig) -> CostModel {
    let mapping = ChipMapping::map(geometries, &hardware).unwrap();
    CostModel::new(mapping, hardware).unwrap()
}

fn densities(model: &CostModel) -> Vec<f32> {
    let mut d = vec![0.2f32; model.mapping().layers().len()];
    d[0] = 1.0;
    d
}

/// Placement orders: linear, reversed and one fixed shuffle (5 is coprime
/// with both layer counts, 16 and 21).
fn order(placement: usize, n: usize) -> Vec<usize> {
    match placement {
        0 => (0..n).collect(),
        1 => (0..n).rev().collect(),
        _ => (0..n).map(|k| (5 * k + 3) % n).collect(),
    }
}

/// Pipelined contention on slow links with one buffer slot, sequential
/// contention, and the ledger-parity configuration.
fn options(which: usize) -> SimOptions {
    match which {
        0 => SimOptions {
            schedule: TimestepSchedule::Pipelined,
            contention: true,
            link_bytes_per_cycle: 0.05,
            buffer_slots: 1,
        },
        1 => SimOptions {
            schedule: TimestepSchedule::Sequential,
            contention: true,
            link_bytes_per_cycle: 0.1,
            ..SimOptions::default()
        },
        _ => SimOptions::analytical_parity(),
    }
}

/// (geometry: 0 = VGG-16, 1 = ResNet-19; placement; options; σ–E engaged;
/// latency cycles; energy pJ bits; link flits; link stall cycles; buffer
/// stall cycles; events; timestep finish times).
type Pin = (usize, usize, usize, bool, u64, u64, u64, u64, u64, u64, [u64; T]);

#[rustfmt::skip]
const PINS: [Pin; 36] = [
    (0, 0, 0, true, 733839, 0x41c7c695f49322dc, 248, 0, 302904, 128, [486105, 568683, 651261, 733839]),
    (0, 0, 0, false, 733799, 0x41c7c695a49322dc, 248, 0, 302904, 124, [486065, 568643, 651221, 733799]),
    (0, 0, 1, true, 1028964, 0x41c6a47cf4b139b7, 248, 0, 0, 128, [257241, 514482, 771723, 1028964]),
    (0, 0, 1, false, 1028804, 0x41c6a47ca4b139b7, 248, 0, 0, 124, [257201, 514402, 771603, 1028804]),
    (0, 0, 2, true, 113260, 0x41c6a3e91da6d750, 0, 0, 0, 68, [28315, 56630, 84945, 113260]),
    (0, 0, 2, false, 113100, 0x41c6a3e8cda6d750, 0, 0, 0, 64, [28275, 56550, 84825, 113100]),
    (0, 1, 0, true, 755359, 0x41c7c688fed09042, 288, 0, 390582, 128, [458467, 557431, 656395, 755359]),
    (0, 1, 0, false, 755319, 0x41c7c688aed09042, 288, 0, 390582, 124, [458427, 557391, 656355, 755319]),
    (0, 1, 1, true, 973708, 0x41c6a46ffeeea71d, 288, 0, 0, 128, [243427, 486854, 730281, 973708]),
    (0, 1, 1, false, 973548, 0x41c6a46faeeea71d, 288, 0, 0, 124, [243387, 486774, 730161, 973548]),
    (0, 1, 2, true, 113260, 0x41c6a3e91da6d750, 0, 0, 0, 68, [28315, 56630, 84945, 113260]),
    (0, 1, 2, false, 113100, 0x41c6a3e8cda6d750, 0, 0, 0, 64, [28275, 56550, 84825, 113100]),
    (0, 2, 0, true, 2292066, 0x41c7c7ceea560075, 424, 123720, 1264749, 128, [1195037, 1574460, 1953883, 2292066]),
    (0, 2, 0, false, 2292026, 0x41c7c7ce9a560075, 424, 123720, 1264749, 124, [1194997, 1574420, 1953843, 2292026]),
    (0, 2, 1, true, 2364436, 0x41c6a5b5ea741750, 424, 0, 0, 128, [591109, 1182218, 1773327, 2364436]),
    (0, 2, 1, false, 2364276, 0x41c6a5b59a741750, 424, 0, 0, 124, [591069, 1182138, 1773207, 2364276]),
    (0, 2, 2, true, 113260, 0x41c6a3e91da6d750, 0, 0, 0, 68, [28315, 56630, 84945, 113260]),
    (0, 2, 2, false, 113100, 0x41c6a3e8cda6d750, 0, 0, 0, 64, [28275, 56550, 84825, 113100]),
    (1, 0, 0, true, 6498555, 0x41f44eed26adc089, 328, 0, 3735609, 168, [3322035, 4380875, 5439715, 6498555]),
    (1, 0, 0, false, 6498515, 0x41f44eed1cadc089, 328, 0, 3735609, 164, [3321995, 4380835, 5439675, 6498515]),
    (1, 0, 1, true, 6830284, 0x41f35723b1f4e7c3, 328, 0, 0, 168, [1707571, 3415142, 5122713, 6830284]),
    (1, 0, 1, false, 6830124, 0x41f35723a7f4e7c3, 328, 0, 0, 164, [1707531, 3415062, 5122593, 6830124]),
    (1, 0, 2, true, 372100, 0x41f35693a0ad15aa, 0, 0, 0, 88, [93025, 186050, 279075, 372100]),
    (1, 0, 2, false, 371940, 0x41f3569396ad15aa, 0, 0, 0, 84, [92985, 185970, 278955, 371940]),
    (1, 1, 0, true, 7432730, 0x41f44f1c34c2472d, 440, 0, 3604535, 164, [4059599, 5183976, 6308353, 7432730]),
    (1, 1, 0, false, 7432690, 0x41f44f1c2ac2472d, 440, 0, 3604535, 160, [4059559, 5183936, 6308313, 7432690]),
    (1, 1, 1, true, 8305468, 0x41f35752c0096e68, 440, 0, 0, 164, [2076367, 4152734, 6229101, 8305468]),
    (1, 1, 1, false, 8305308, 0x41f35752b6096e68, 440, 0, 0, 160, [2076327, 4152654, 6228981, 8305308]),
    (1, 1, 2, true, 372100, 0x41f35693a0ad15aa, 0, 0, 0, 88, [93025, 186050, 279075, 372100]),
    (1, 1, 2, false, 371940, 0x41f3569396ad15aa, 0, 0, 0, 84, [92985, 185970, 278955, 371940]),
    (1, 2, 0, true, 9545787, 0x41f44f942d1450b1, 572, 144438, 3866683, 168, [6244875, 7369252, 8421410, 9545787]),
    (1, 2, 0, false, 9545747, 0x41f44f94231450b1, 572, 144438, 3866683, 164, [6244835, 7369212, 8421370, 9545747]),
    (1, 2, 1, true, 12531648, 0x41f357cab85b77eb, 572, 0, 0, 168, [3132912, 6265824, 9398736, 12531648]),
    (1, 2, 1, false, 12531488, 0x41f357caae5b77eb, 572, 0, 0, 164, [3132872, 6265744, 9398616, 12531488]),
    (1, 2, 2, true, 372100, 0x41f35693a0ad15aa, 0, 0, 0, 88, [93025, 186050, 279075, 372100]),
    (1, 2, 2, false, 371940, 0x41f3569396ad15aa, 0, 0, 0, 84, [92985, 185970, 278955, 371940]),
];

#[test]
fn simulator_reports_match_their_pinned_values() {
    let geometries = [vgg16_geometry(32, 3, 10), resnet19_geometry(32, 3, 10)];
    let models = geometries.map(|g| model(&g, HardwareConfig::default()));
    let (mut link_stalls, mut buffer_stalls) = (0, 0);
    for (g, p, o, sigma, latency, energy, flits, link_stall, buffer_stall, events, finish) in PINS
    {
        let m = &models[g];
        let d = densities(m);
        let placement = Placement::with_order(m.mapping(), order(p, d.len())).unwrap();
        let classes = sigma.then_some(10);
        let r = EventSim::new(m, placement, options(o)).unwrap().run(&d, T, classes).unwrap();
        let case = format!("geometry {g} placement {p} options {o} sigma {sigma}");
        assert_eq!(r.cost.latency_cycles, latency, "{case}");
        assert_eq!(r.cost.energy_pj().to_bits(), energy, "{case}");
        assert_eq!(r.link_flits, flits, "{case}");
        assert_eq!(r.link_stall_cycles, link_stall, "{case}");
        assert_eq!(r.buffer_stall_cycles, buffer_stall, "{case}");
        assert_eq!(r.events, events, "{case}");
        assert_eq!(r.timestep_finish, finish, "{case}");
        link_stalls += link_stall;
        buffer_stalls += buffer_stall;
    }
    // the pins exercise both kinds of stall
    assert!(link_stalls > 0 && buffer_stalls > 0);
}

#[test]
fn chip_map_searches_match_their_pinned_results() {
    // (geometry, crossbar size, ADC mux, anneal seed, best order, best EDP
    // bits, evaluations): two points of the `chip_map` benchmark sweep
    let searches = [
        (
            vgg16_geometry(32, 3, 10),
            64,
            16,
            1,
            vec![0, 1, 2, 3, 4, 8, 7, 5, 6, 9, 10, 11, 13, 12, 14, 15],
            0x42c4_5902_7f0a_8f5b_u64,
            793,
        ),
        (
            resnet19_geometry(32, 3, 10),
            128,
            32,
            2,
            vec![0, 1, 2, 3, 4, 5, 6, 7, 11, 10, 9, 8, 12, 13, 16, 14, 15, 17, 18, 20, 19],
            0x4300_ac7e_7929_3950,
            1453,
        ),
    ];
    for (geometries, crossbar_size, adc_mux_ratio, seed, best_order, best_edp, evaluations) in
        searches
    {
        let hardware = HardwareConfig { crossbar_size, adc_mux_ratio, ..HardwareConfig::default() };
        let m = model(&geometries, hardware);
        let options =
            AnnealOptions { seed, timesteps: T, classes: Some(10), ..AnnealOptions::default() };
        let r = search_placement(&m, &densities(&m), &options).unwrap();
        assert_eq!(r.best_order, best_order, "seed {seed}");
        assert_eq!(r.best_edp.to_bits(), best_edp, "seed {seed}");
        assert_eq!(r.evaluations, evaluations, "seed {seed}");
    }
}
