//! Edge cases of the error-measurement and fault-simulation campaigns:
//! empty stimulus sets, empty fault lists, fully detectable faults, a
//! vector of the wrong width deep inside a stream, and clock periods no
//! timed entry point may accept.

use aix_arith::{build_adder, AdderKind, ComponentSpec};
use aix_cells::Library;
use aix_netlist::{Netlist, NetlistError};
use aix_sim::{
    full_fault_list, measure_errors, oracle, simulate_faults, Activity, OperandSource,
    PackedTimedSimulator, StuckAtFault, TimedSimulator, UniformOperands,
};
use aix_sta::NetDelays;
use std::sync::Arc;

fn adder(width: usize) -> Netlist {
    let lib = Arc::new(Library::nangate45_like());
    build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(width)).unwrap()
}

#[test]
fn zero_vectors_yield_zero_error_rate_not_nan() {
    let nl = adder(8);
    let stats = measure_errors(
        &nl,
        &NetDelays::fresh(&nl),
        1.0, // absurdly tight clock: every vector would err, but none run
        std::iter::empty(),
    )
    .unwrap();
    assert_eq!(stats.vectors, 0);
    assert_eq!(stats.erroneous, 0);
    assert_eq!(stats.error_rate(), 0.0, "no division by zero");
    assert_eq!(stats.error_percent(), 0.0);
    assert_eq!(stats.mean_abs_error, 0.0);
}

#[test]
fn zero_fault_sites_count_as_full_coverage() {
    let nl = adder(4);
    let stimuli: Vec<Vec<bool>> = UniformOperands::new(4, 1).vectors(8).collect();
    let coverage = simulate_faults(&nl, &[], &stimuli).unwrap();
    assert_eq!(coverage.detected().len(), 0);
    assert_eq!(coverage.undetected().len(), 0);
    assert_eq!(coverage.coverage(), 1.0, "vacuous truth, not NaN");
    assert_eq!(coverage.vector_count(), 8);
}

#[test]
fn zero_vectors_detect_no_faults() {
    let nl = adder(4);
    let faults = full_fault_list(&nl);
    let coverage = simulate_faults(&nl, &faults, &[]).unwrap();
    assert_eq!(coverage.detected().len(), 0);
    assert_eq!(coverage.undetected().len(), faults.len());
    assert_eq!(coverage.coverage(), 0.0);
    assert_eq!(coverage.vector_count(), 0);
}

#[test]
fn all_detected_reports_exactly_one() {
    // Faults on output nets flip an output directly, so a handful of
    // uniform vectors detects every one of them.
    let nl = adder(4);
    let faults: Vec<StuckAtFault> = nl
        .output_nets()
        .into_iter()
        .flat_map(|net| [false, true].map(|value| StuckAtFault { net, value }))
        .collect();
    let stimuli: Vec<Vec<bool>> = UniformOperands::new(4, 2).vectors(64).collect();
    let coverage = simulate_faults(&nl, &faults, &stimuli).unwrap();
    assert_eq!(coverage.coverage(), 1.0);
    assert_eq!(coverage.detected().len(), faults.len());
    assert!(coverage.undetected().is_empty());
}

#[test]
fn a_short_vector_in_the_second_block_is_rejected_with_its_width() {
    // Vector 1 500 sits in the second block of 1 024; it must be reported
    // as the oracle reports it, not swallowed by the block packing.
    let nl = adder(8);
    let delays = NetDelays::fresh(&nl);
    let mut vectors: Vec<Vec<bool>> = UniformOperands::new(8, 6).vectors(2000).collect();
    vectors[1500].pop();
    let mismatch = NetlistError::InputWidthMismatch {
        expected: 16,
        provided: 15,
    };
    let clock = 50.0;
    assert_eq!(
        oracle::measure_errors(&nl, &delays, clock, vectors.iter().cloned()),
        Err(mismatch.clone())
    );
    assert_eq!(
        measure_errors(&nl, &delays, clock, vectors.iter().cloned()),
        Err(mismatch.clone())
    );
    assert_eq!(
        oracle::activity(&nl, vectors.iter().cloned()),
        Err(mismatch.clone())
    );
    assert_eq!(Activity::collect(&nl, vectors), Err(mismatch));
}

/// NaN and negative periods, which the tick conversion would silently
/// turn into "sample at tick 0".
const BAD_CLOCKS: [f64; 3] = [f64::NAN, -1.0, f64::NEG_INFINITY];

fn assert_invalid_clock<T: std::fmt::Debug>(result: Result<T, NetlistError>, clock: f64) {
    assert!(
        matches!(result, Err(NetlistError::InvalidClock { .. })),
        "clock {clock:?} must be rejected, got {result:?}"
    );
}

#[test]
fn measure_errors_rejects_bad_clocks_and_never_samples_at_infinity() {
    let nl = adder(8);
    let delays = NetDelays::fresh(&nl);
    let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 2).vectors(70).collect();
    for clock in BAD_CLOCKS {
        assert_invalid_clock(measure_errors(&nl, &delays, clock, vectors.clone()), clock);
        assert_invalid_clock(
            measure_errors(&nl, &delays, clock, std::iter::empty()),
            clock,
        );
    }
    let stats = measure_errors(&nl, &delays, f64::INFINITY, vectors).unwrap();
    assert_eq!((stats.vectors, stats.erroneous), (70, 0));
}

#[test]
fn oracle_measure_errors_rejects_bad_clocks() {
    let nl = adder(8);
    let delays = NetDelays::fresh(&nl);
    let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 2).vectors(3).collect();
    for clock in BAD_CLOCKS {
        let result = oracle::measure_errors(&nl, &delays, clock, vectors.clone());
        assert_invalid_clock(result, clock);
        let result = oracle::measure_errors(&nl, &delays, clock, std::iter::empty());
        assert_invalid_clock(result, clock);
    }
    let stats = oracle::measure_errors(&nl, &delays, f64::INFINITY, vectors).unwrap();
    assert_eq!((stats.vectors, stats.erroneous), (3, 0));
}

#[test]
fn timed_simulator_step_rejects_bad_clocks() {
    let nl = adder(4);
    let delays = NetDelays::fresh(&nl);
    let vectors: Vec<Vec<bool>> = UniformOperands::new(4, 3).vectors(2).collect();
    let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
    for clock in BAD_CLOCKS {
        // Both the untimed first step and a timed later one.
        assert_invalid_clock(sim.step(&vectors[0], clock), clock);
    }
    sim.step(&vectors[0], f64::INFINITY).unwrap();
    for clock in BAD_CLOCKS {
        assert_invalid_clock(sim.step(&vectors[1], clock), clock);
    }
    assert!(!sim.step(&vectors[1], f64::INFINITY).unwrap().timing_error);
}

#[test]
fn packed_stream_batch_step_rejects_bad_clocks() {
    let nl = adder(4);
    let delays = NetDelays::fresh(&nl);
    let batch: Vec<Vec<bool>> = UniformOperands::new(4, 4).vectors(5).collect();
    let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
    for clock in BAD_CLOCKS {
        assert_invalid_clock(sim.step_stream_batch(&batch, clock), clock);
    }
    let outcome = sim.step_stream_batch(&batch, f64::INFINITY).unwrap();
    assert_eq!(outcome.error_lanes(), 0);
}

#[test]
fn packed_streams_step_rejects_bad_clocks() {
    let nl = adder(4);
    let delays = NetDelays::fresh(&nl);
    let batch: Vec<Vec<bool>> = UniformOperands::new(4, 5).vectors(5).collect();
    let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
    for clock in BAD_CLOCKS {
        assert_invalid_clock(sim.step_streams(&batch, clock), clock);
    }
    sim.step_streams(&batch, f64::INFINITY).unwrap();
    for clock in BAD_CLOCKS {
        assert_invalid_clock(sim.step_streams(&batch, clock), clock);
    }
    let outcome = sim.step_streams(&batch, f64::INFINITY).unwrap();
    assert_eq!(outcome.error_lanes(), 0);
}
