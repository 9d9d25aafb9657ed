//! Throughput floors of the packed engines over the scalar reference
//! loops in `aix_sim::oracle`, on the 32-bit study components, in both
//! simulation modes: value mode (`Activity::collect`) and timed mode
//! (`measure_errors`).
//!
//! Each test checks that both engines return identical results and that
//! the packed engine is at least 4× faster. They measure wall time, so
//! they are `#[ignore]`d by default and meant for an optimized build:
//!
//! ```text
//! cargo test --release -p aix-sim --test throughput -- --ignored
//! ```
//!
//! Measured speedups are well above the floor (tens of ×), so it trips
//! only on a real regression, not on the noise of a shared runner.

use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::{build_adder, build_multiplier, AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_netlist::Netlist;
use aix_sim::{measure_errors, oracle, Activity, NormalOperands, OperandSource};
use aix_sta::{analyze, NetDelays};
use std::sync::Arc;
use std::time::Instant;

const WIDTH: usize = 32;
const FLOOR: f64 = 4.0;

/// The two study components: a Kogge-Stone adder and an array multiplier.
fn components() -> Vec<(&'static str, Netlist)> {
    let cells = Arc::new(Library::nangate45_like());
    let spec = ComponentSpec::full(WIDTH);
    vec![
        (
            "adder-32 (kogge-stone)",
            build_adder(&cells, AdderKind::KoggeStone, spec).unwrap(),
        ),
        (
            "multiplier-32 (array)",
            build_multiplier(&cells, MultiplierKind::Array, spec).unwrap(),
        ),
    ]
}

/// Wall time of `run` in seconds, with its result.
fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = run();
    (start.elapsed().as_secs_f64(), value)
}

fn assert_floor(label: &str, scalar_s: f64, packed_s: f64) {
    let speedup = scalar_s / packed_s.max(1e-9);
    eprintln!("{label}: scalar {scalar_s:.3} s, packed {packed_s:.3} s, {speedup:.1}x");
    assert!(
        speedup >= FLOOR,
        "{label}: packed engine only {speedup:.2}x the scalar reference"
    );
}

#[test]
#[ignore = "wall-clock floor; run with --release -- --ignored"]
fn packed_value_simulation_is_at_least_4x_scalar() {
    const VECTORS: usize = 20_000;
    for (index, (label, netlist)) in components().iter().enumerate() {
        let stimuli: Vec<Vec<bool>> = NormalOperands::new(WIDTH, 11 + index as u64)
            .vectors(VECTORS)
            .collect();
        let (scalar_s, scalar) = timed(|| oracle::activity(netlist, stimuli.iter().cloned()));
        let (packed_s, packed) = timed(|| Activity::collect(netlist, stimuli.iter().cloned()));
        assert_eq!(
            scalar.unwrap(),
            packed.unwrap(),
            "{label}: activity differs"
        );
        assert_floor(label, scalar_s, packed_s);
    }
}

#[test]
#[ignore = "wall-clock floor; run with --release -- --ignored"]
fn packed_timed_simulation_is_at_least_4x_scalar() {
    const VECTORS: usize = 4_096;
    let model = AgingModel::calibrated();
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
    for (index, (label, netlist)) in components().iter().enumerate() {
        // Aged gates at the fresh clock, so real timing violations occur.
        let clock_ps = analyze(netlist, &NetDelays::fresh(netlist))
            .unwrap()
            .max_delay_ps();
        let delays = NetDelays::aged(netlist, &model, scenario);
        let stimuli: Vec<Vec<bool>> = NormalOperands::new(WIDTH, 23 + index as u64)
            .vectors(VECTORS)
            .collect();
        let (scalar_s, scalar) =
            timed(|| oracle::measure_errors(netlist, &delays, clock_ps, stimuli.iter().cloned()));
        let (packed_s, packed) =
            timed(|| measure_errors(netlist, &delays, clock_ps, stimuli.iter().cloned()));
        assert_eq!(
            scalar.unwrap(),
            packed.unwrap(),
            "{label}: error statistics differ"
        );
        assert_floor(label, scalar_s, packed_s);
    }
}
