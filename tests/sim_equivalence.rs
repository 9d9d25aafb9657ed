//! Differential conformance: the packed simulation engines must produce
//! *identical* results to the scalar reference loops in `aix::sim::oracle`
//! — same `ErrorStats` (including the f64 fields, bit for bit), same
//! `Activity`, and for `TimedStreams` the same
//! per-vector sampled and settled outputs and timing-error flag as the
//! scalar `TimedSimulator` — for every library component shape, fresh and
//! aged, at vector counts that exercise full words, partial words and the
//! scalar tail.

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::arith::{
    build_adder, build_mac, build_multiplier, AdderKind, ComponentSpec, MultiplierKind,
};
use aix::cells::Library;
use aix::netlist::Netlist;
use aix::sim::{
    measure_errors, oracle, Activity, OperandSource, TimedSimulator, TimedStreams, UniformOperands,
    LANES,
};
use aix::sta::{analyze, NetDelays};
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

/// Seeded uniform stimuli shaped to any component's input count.
fn stimuli(netlist: &Netlist, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let inputs = netlist.inputs().len();
    let width = (inputs / 2).clamp(1, 32);
    let padding = inputs - 2 * width;
    UniformOperands::new(width, seed)
        .vectors_with_zeros(count, padding)
        .collect()
}

/// Asserts both engines agree exactly on activity and error measurement.
fn assert_engines_agree(name: &str, netlist: &Netlist, vectors: &[Vec<bool>]) {
    let scalar_activity =
        oracle::activity(netlist, vectors.iter().cloned()).expect("scalar activity");
    let packed_activity =
        Activity::collect(netlist, vectors.iter().cloned()).expect("packed activity");
    assert_eq!(
        scalar_activity,
        packed_activity,
        "{name}: Activity diverges over {} vectors",
        vectors.len()
    );

    let model = AgingModel::calibrated();
    let clock = analyze(netlist, &NetDelays::fresh(netlist))
        .expect("acyclic netlist")
        .max_delay_ps();
    let aged = NetDelays::aged(
        netlist,
        &model,
        AgingScenario::worst_case(Lifetime::YEARS_10),
    );
    let scalar_errors = oracle::measure_errors(netlist, &aged, clock, vectors.iter().cloned())
        .expect("scalar error measurement");
    let packed_errors = measure_errors(netlist, &aged, clock, vectors.iter().cloned())
        .expect("packed error measurement");
    assert_eq!(
        scalar_errors,
        packed_errors,
        "{name}: ErrorStats diverges over {} vectors",
        vectors.len()
    );
}

#[test]
fn every_component_shape_agrees_on_4k_vectors() {
    let lib = cells();
    // Adders are cheap to clock-simulate: full 4k differential vectors.
    let components = [
        (
            "adder-8 (ripple)",
            build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap(),
            4000,
        ),
        (
            "adder-16 (kogge-stone)",
            build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(16)).unwrap(),
            4000,
        ),
        (
            "adder-16/12 (carry-select, truncated)",
            build_adder(
                &lib,
                AdderKind::CarrySelect,
                ComponentSpec::new(16, 12).unwrap(),
            )
            .unwrap(),
            4000,
        ),
        // Multiplier/MAC arrays glitch heavily under timed simulation;
        // fewer vectors keep the tier-1 budget while still crossing many
        // word boundaries.
        (
            "multiplier-8 (array)",
            build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(8)).unwrap(),
            700,
        ),
        (
            "mac-8",
            build_mac(&lib, ComponentSpec::full(8)).unwrap(),
            700,
        ),
    ];
    for (index, (name, netlist, count)) in components.iter().enumerate() {
        let vectors = stimuli(netlist, *count, 100 + index as u64);
        assert_engines_agree(name, netlist, &vectors);
    }
}

/// Vector counts around the 64-lane word boundary pin the scalar-tail
/// path: 1 (tail only), 63 (one partial word), 64 (exactly one word),
/// 65 (word + 1 tail), 1000 (15 words + 40 tail).
#[test]
fn word_boundary_vector_counts_agree() {
    let lib = cells();
    let netlist = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap();
    for (index, count) in [1usize, 63, 64, 65, 1000].into_iter().enumerate() {
        let vectors = stimuli(&netlist, count, 200 + index as u64);
        assert_engines_agree(&format!("adder-8 x{count}"), &netlist, &vectors);
    }
}

/// Asserts `TimedStreams` reproduces the scalar engine *per vector* on
/// independent `streams` of equal length, 64 per instance: every lane's
/// sampled and settled outputs and timing-error flag at every step, each
/// lane against a dedicated scalar simulator. Returns the erroneous
/// vectors.
fn assert_timed_engines_agree(
    name: &str,
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    streams: &[&[Vec<bool>]],
) -> usize {
    let mut errors = 0;
    for group in streams.chunks(LANES) {
        let mut packed = TimedStreams::new(netlist, delays, clock_ps).expect("timed streams");
        let mut scalars: Vec<TimedSimulator> = group
            .iter()
            .map(|_| TimedSimulator::new(netlist, delays).expect("scalar timed simulator"))
            .collect();
        for step in 0..group[0].len() {
            let batch: Vec<Vec<bool>> = group.iter().map(|stream| stream[step].clone()).collect();
            let error_lanes = packed.step(&batch).expect("timed step");
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let expected = scalar
                    .step(&batch[lane], clock_ps)
                    .expect("scalar timed step");
                let bits = |words: &[u64]| -> Vec<bool> {
                    words.iter().map(|word| (word >> lane) & 1 == 1).collect()
                };
                assert_eq!(
                    (
                        bits(packed.sampled_words()),
                        bits(packed.settled_words()),
                        (error_lanes >> lane) & 1 == 1
                    ),
                    (expected.sampled, expected.settled, expected.timing_error),
                    "{name}: step {step} lane {lane} of {} diverges",
                    group.len()
                );
                errors += usize::from(expected.timing_error);
            }
        }
    }
    errors
}

/// Timed differential: adders of every architecture plus a multiplier,
/// fresh and aged (10 and 20 years), must agree per vector between the
/// scalar engine and `TimedStreams`.
#[test]
fn timed_engines_agree_per_vector_fresh_and_aged() {
    let lib = cells();
    let components = [
        (
            "adder-8 (ripple)",
            build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap(),
            400,
        ),
        (
            "adder-16 (carry-select)",
            build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap(),
            400,
        ),
        (
            "adder-16 (kogge-stone)",
            build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(16)).unwrap(),
            400,
        ),
        (
            "multiplier-8 (array)",
            build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(8)).unwrap(),
            200,
        ),
    ];
    let model = AgingModel::calibrated();
    for (index, (name, netlist, count)) in components.iter().enumerate() {
        let vectors = stimuli(netlist, *count, 300 + index as u64);
        let clock = analyze(netlist, &NetDelays::fresh(netlist))
            .expect("acyclic netlist")
            .max_delay_ps();
        let delay_sets = [
            ("fresh", NetDelays::fresh(netlist)),
            (
                "10y worst",
                NetDelays::aged(
                    netlist,
                    &model,
                    AgingScenario::worst_case(Lifetime::YEARS_10),
                ),
            ),
            (
                "20y worst",
                NetDelays::aged(
                    netlist,
                    &model,
                    AgingScenario::worst_case(Lifetime::from_years(20.0)),
                ),
            ),
        ];
        for (condition, delays) in &delay_sets {
            assert_timed_engines_agree(
                &format!("{name} {condition}"),
                netlist,
                delays,
                clock,
                &[&vectors],
            );
        }
    }
}

/// Independent streams, one per lane, on an aged adder: 65 streams take a
/// 64-lane and a 1-lane `TimedStreams`, and every lane equals a dedicated
/// scalar simulator at every step.
#[test]
fn independent_streams_agree_per_lane() {
    let lib = cells();
    let netlist = build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(16)).unwrap();
    let clock = analyze(&netlist, &NetDelays::fresh(&netlist))
        .expect("acyclic netlist")
        .max_delay_ps();
    let delays = NetDelays::aged(
        &netlist,
        &AgingModel::calibrated(),
        AgingScenario::worst_case(Lifetime::YEARS_10),
    );
    let vectors = stimuli(&netlist, 65 * 8, 500);
    let streams: Vec<&[Vec<bool>]> = vectors.chunks(8).collect();
    let errors = assert_timed_engines_agree("adder-16 x65", &netlist, &delays, clock, &streams);
    assert!(errors > 0, "10-year worst-case aging must err");
}
