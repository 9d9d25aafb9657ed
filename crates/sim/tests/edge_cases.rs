//! Edge cases of the error-measurement campaigns: empty stimulus sets, a
//! vector of the wrong width deep inside a stream, and clock periods no
//! timed entry point may accept.

use aix_arith::{build_adder, AdderKind, ComponentSpec};
use aix_cells::Library;
use aix_netlist::{Netlist, NetlistError};
use aix_sim::{
    measure_errors, oracle, Activity, OperandSource, TimedSimulator, TimedStreams, UniformOperands,
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
    // One stream in one packed batch, the sampling program's stream mode.
    let nl = adder(4);
    let delays = NetDelays::fresh(&nl);
    let batch: Vec<Vec<bool>> = UniformOperands::new(4, 4).vectors(5).collect();
    for clock in BAD_CLOCKS {
        assert_invalid_clock(measure_errors(&nl, &delays, clock, batch.clone()), clock);
    }
    let stats = measure_errors(&nl, &delays, f64::INFINITY, batch).unwrap();
    assert_eq!((stats.vectors, stats.erroneous), (5, 0));
}

#[test]
fn packed_streams_step_rejects_bad_clocks() {
    let nl = adder(4);
    let delays = NetDelays::fresh(&nl);
    for clock in BAD_CLOCKS {
        assert_invalid_clock(TimedStreams::new(&nl, &delays, clock), clock);
    }
    // An infinite clock never samples: no lane errs, on the untimed first
    // step or on the timed ones after it.
    let vectors: Vec<Vec<bool>> = UniformOperands::new(4, 5).vectors(15).collect();
    let mut sim = TimedStreams::new(&nl, &delays, f64::INFINITY).unwrap();
    for batch in vectors.chunks(5) {
        assert_eq!(sim.step(batch).unwrap(), 0);
    }
}
