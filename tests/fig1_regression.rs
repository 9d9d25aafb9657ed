//! Pinned-seed regression for the Fig. 1 canonical data point: the
//! ultra-mapped carry-select adder-32, clocked at its fresh critical path
//! and aged ten years under worst-case stress, errs on ~5.6 % of 4000
//! seeded signed-normal vectors (EXPERIMENTS.md). The production packed
//! engine must equal the scalar [`oracle`] bit for bit, and the headline
//! rate must stay inside a generous band so an engine regression (or an
//! accidental semantics change) trips loudly. Three more inputs — adder-32,
//! the glitch-heavy multiplier-16 and the Wallace-prefix multiplier-16 (the
//! largest Fig. 1 netlist family), all at twenty years — pin the same
//! equality where many more outputs err. The Wallace-prefix multiplier-16
//! also pins it, and zero-delay activity, on streams that end at the
//! block boundaries of 1 024 vectors.

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::arith::{ComponentSpec, MultiplierKind};
use aix::cells::Library;
use aix::core::ComponentKind;
use aix::netlist::Netlist;
use aix::sim::{
    measure_errors, oracle, Activity, ErrorStats, OperandSource, SignedNormalOperands,
    BLOCK_VECTORS,
};
use aix::sta::{analyze, NetDelays};
use aix::synth::{Effort, Synthesizer};
use std::sync::Arc;

/// `aix error-rate`'s recipe: `ultra` synthesis, clocked at the fresh
/// critical path, worst-case aging over `years`, 4000 signed-normal
/// vectors on seed 1. Returns the oracle's and the production engine's
/// statistics.
fn error_stats(kind: ComponentKind, width: usize, years: f64) -> (ErrorStats, ErrorStats) {
    let cells = Arc::new(Library::nangate45_like());
    let netlist = kind
        .synthesize(&cells, ComponentSpec::full(width), Effort::Ultra)
        .expect("synthesis");
    netlist_error_stats(&netlist, width, years, 4000)
}

/// [`error_stats`] for an already synthesized netlist and `vectors`
/// vectors.
fn netlist_error_stats(
    netlist: &Netlist,
    width: usize,
    years: f64,
    vectors: usize,
) -> (ErrorStats, ErrorStats) {
    let clock = analyze(netlist, &NetDelays::fresh(netlist))
        .expect("synthesized netlists are acyclic")
        .max_delay_ps();
    let delays = NetDelays::aged(
        netlist,
        &AgingModel::calibrated(),
        AgingScenario::worst_case(Lifetime::from_years(years)),
    );
    let stimuli = stimuli(netlist, width, vectors);

    let scalar = oracle::measure_errors(netlist, &delays, clock, stimuli.iter().cloned())
        .expect("scalar measurement");
    let packed = measure_errors(netlist, &delays, clock, stimuli.iter().cloned())
        .expect("packed measurement");
    (scalar, packed)
}

/// `vectors` signed-normal operand pairs on seed 1, any inputs past the
/// two operands tied to zero.
fn stimuli(netlist: &Netlist, width: usize, vectors: usize) -> Vec<Vec<bool>> {
    let padding = netlist.inputs().len() - 2 * width;
    SignedNormalOperands::for_width(width, 1)
        .vectors_with_zeros(vectors, padding)
        .collect()
}

/// The Wallace-prefix multiplier-16 at `ultra`.
fn wallace_prefix_multiplier16() -> Netlist {
    let synth = Synthesizer::new(Arc::new(Library::nangate45_like()), Effort::Ultra);
    synth
        .multiplier_with(MultiplierKind::WallacePrefix, ComponentSpec::full(16))
        .expect("synthesis")
}

#[test]
fn canonical_adder32_ten_year_error_rate_survives_engine_swap() {
    let (scalar, packed) = error_stats(ComponentKind::Adder, 32, 10.0);
    assert_eq!(
        scalar, packed,
        "engines must agree exactly on the canonical Fig. 1 point"
    );

    // EXPERIMENTS.md records 5.6 % for this exact pinned recipe. A wide
    // band tolerates delay-model recalibration but catches an engine that
    // silently changes what is being simulated.
    let percent = packed.error_percent();
    assert!(
        (2.0..=11.0).contains(&percent),
        "canonical 10y worst-case error rate drifted: {percent:.2}% (expected ~5.6%)"
    );
    assert_eq!(packed.vectors, 4000);
    assert!(packed.erroneous > 0, "the aged adder must actually err");
}

#[test]
fn twenty_year_error_rates_match_the_oracle_bit_for_bit() {
    // Multipliers glitch far more than adders: same-tick collisions and
    // zero-width pulses that the adder-32 input barely exercises.
    for (kind, width) in [(ComponentKind::Adder, 32), (ComponentKind::Multiplier, 16)] {
        let (scalar, packed) = error_stats(kind, width, 20.0);
        assert_eq!(scalar, packed, "{kind}-{width} at 20 years");
        assert_eq!(
            scalar.mean_abs_error.to_bits(),
            packed.mean_abs_error.to_bits(),
            "{kind}-{width} at 20 years"
        );
        assert!(packed.erroneous > 0, "{kind}-{width} must err at 20 years");
    }
}

#[test]
fn wallace_prefix_multiplier_matches_the_oracle_at_twenty_years() {
    // The Wallace-prefix tree has the most live (net, instant) pairs of
    // the Fig. 1 netlists, so it exercises the deepest sampling program.
    let netlist = wallace_prefix_multiplier16();
    let (scalar, packed) = netlist_error_stats(&netlist, 16, 20.0, 4000);
    assert_eq!(scalar, packed);
    assert_eq!(
        scalar.mean_abs_error.to_bits(),
        packed.mean_abs_error.to_bits()
    );
    assert!(
        packed.erroneous > 0,
        "the aged multiplier must err at 20 years"
    );
}

#[test]
fn wallace_prefix_multiplier_matches_the_oracles_at_block_edges() {
    // One vector short of a block, one block, and one and two blocks
    // followed by a one-vector block.
    let netlist = wallace_prefix_multiplier16();
    for vectors in [
        BLOCK_VECTORS - 1,
        BLOCK_VECTORS,
        BLOCK_VECTORS + 1,
        2 * BLOCK_VECTORS + 1,
    ] {
        let (scalar, packed) = netlist_error_stats(&netlist, 16, 20.0, vectors);
        assert_eq!(scalar, packed, "{vectors} vectors");
        assert_eq!(
            scalar.mean_abs_error.to_bits(),
            packed.mean_abs_error.to_bits(),
            "{vectors} vectors"
        );
        assert!(packed.erroneous > 0, "{vectors} vectors must see errors");
        let stimuli = stimuli(&netlist, 16, vectors);
        assert_eq!(
            Activity::collect(&netlist, stimuli.iter().cloned()).unwrap(),
            oracle::activity(&netlist, stimuli).unwrap(),
            "{vectors} vectors"
        );
    }
}
