//! Property tests for the incremental timer: on random netlists under
//! random cell-swap sequences, the timer's loads, delays, arrivals and
//! critical-path delay equal a from-scratch annotation plus full STA, bit
//! for bit, after every step.

use aix_aging::{AgingModel, AgingScenario, Lifetime, StressFactor, StressPair};
use aix_cells::{CellFunction, CellId, DriveStrength, Library};
use aix_netlist::{GateId, Netlist};
use aix_sta::{analyze, critical_path, IncrementalTimer, NetDelays, SlackReport, StressSource};
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic xorshift step.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random combinational DAG over every non-sequential cell: fanin drawn
/// from all nets so far (repeats and constants included), some nets marked
/// as outputs more than once.
fn random_netlist(lib: &Arc<Library>, seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut state = seed | 1;
    let mut nl = Netlist::new(format!("rand_{seed}"), Arc::clone(lib));
    let mut nets: Vec<_> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
    let cells: Vec<_> = lib
        .iter()
        .filter(|(_, cell)| cell.function != CellFunction::Dff)
        .map(|(id, cell)| (id, cell.function.input_count()))
        .collect();
    for g in 0..gates {
        let (cell, arity) = cells[(next(&mut state) as usize) % cells.len()];
        let fanin: Vec<_> = (0..arity)
            .map(|_| {
                if next(&mut state).is_multiple_of(13) {
                    nl.constant(next(&mut state).is_multiple_of(2))
                } else {
                    nets[(next(&mut state) as usize) % nets.len()]
                }
            })
            .collect();
        let outs = nl.add_gate(cell, &fanin).expect("valid arity");
        for _ in 0..next(&mut state) % 3 {
            if next(&mut state).is_multiple_of(2) {
                nl.mark_output(format!("o{g}_{}", nl.outputs().len()), outs[0]);
            }
        }
        nets.extend(outs);
    }
    nl.mark_output("last", *nets.last().expect("nonempty"));
    nl.validate()
        .expect("random DAGs are valid by construction");
    nl
}

/// Another drive strength of `cell`'s function, picked by `pick`.
fn resize(lib: &Library, cell: CellId, pick: u64) -> CellId {
    let function = lib.cell(cell).function;
    let options: Vec<CellId> = DriveStrength::ALL
        .iter()
        .filter_map(|&d| lib.find(function, d))
        .collect();
    options[(pick as usize) % options.len()]
}

/// The annotation kinds the timer supports.
fn annotation(kind: u8, seed: u64) -> impl Fn(&Netlist) -> NetDelays {
    let model = AgingModel::calibrated();
    move |nl: &Netlist| match kind {
        0 => NetDelays::fresh(nl),
        1 => NetDelays::aged(nl, &model, AgingScenario::worst_case(Lifetime::YEARS_10)),
        _ => {
            let mut state = seed | 1;
            let pairs = (0..nl.gate_count())
                .map(|_| {
                    let mut f =
                        || StressFactor::new((next(&mut state) % 101) as f64 / 100.0).unwrap();
                    StressPair::new(f(), f())
                })
                .collect();
            NetDelays::aged_with_stress(
                nl,
                &model,
                &StressSource::PerGate(pairs),
                Lifetime::YEARS_10,
            )
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts the timer agrees with a from-scratch annotation and full STA.
fn agrees(
    timer: &IncrementalTimer<'_>,
    delay_fn: &impl Fn(&Netlist) -> NetDelays,
    step: usize,
) -> Result<(), TestCaseError> {
    let nl = timer.netlist();
    let delays = delay_fn(nl);
    let full = analyze(nl, &delays).expect("acyclic");
    prop_assert_eq!(
        bits(timer.loads()),
        bits(&nl.net_loads_ff()),
        "loads after step {}",
        step
    );
    prop_assert_eq!(
        bits(timer.delays()),
        bits(delays.as_slice()),
        "delays after step {}",
        step
    );
    prop_assert_eq!(
        bits(timer.arrivals()),
        bits(full.arrivals()),
        "arrivals after step {}",
        step
    );
    prop_assert_eq!(
        timer.max_delay_ps().to_bits(),
        full.max_delay_ps().to_bits(),
        "max delay after step {}",
        step
    );
    prop_assert_eq!(
        timer.critical_path(),
        critical_path(nl, &full),
        "critical path after step {}",
        step
    );
    let clock = full.max_delay_ps() * 0.9 + 1.0;
    let slack = SlackReport::compute(nl, &delays, &full, clock).expect("acyclic");
    prop_assert_eq!(
        bits(timer.slack_report(clock).slacks()),
        bits(slack.slacks()),
        "slacks after step {}",
        step
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single swaps and batches, under fresh, uniform-aged and per-gate
    /// annotations: the timer never drifts from full STA.
    #[test]
    fn timer_tracks_full_sta_through_swaps(
        seed in any::<u64>(),
        inputs in 1usize..8,
        gates in 1usize..60,
        kind in 0u8..3,
        steps in 1usize..24,
    ) {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = random_netlist(&lib, seed, inputs, gates);
        let delay_fn = annotation(kind, seed ^ 0xA5A5);
        let delays = delay_fn(&nl);
        let mut timer = IncrementalTimer::new(&mut nl, delays).expect("supported annotation");
        agrees(&timer, &delay_fn, 0)?;
        let mut state = seed ^ 0x5EED | 1;
        for step in 1..=steps {
            let gate_count = timer.netlist().gate_count() as u64;
            let batch = 1 + (next(&mut state) % 4) as usize;
            let swaps: Vec<(GateId, CellId)> = (0..batch)
                .map(|_| {
                    let gate = GateId::from_raw((next(&mut state) % gate_count) as u32);
                    let cell = resize(&lib, timer.netlist().gate(gate).cell, next(&mut state));
                    (gate, cell)
                })
                .collect();
            if batch == 1 {
                timer.set_cell(swaps[0].0, swaps[0].1);
            } else {
                timer.set_cells(swaps);
            }
            agrees(&timer, &delay_fn, step)?;
        }
    }
}

#[test]
fn every_opaque_constructor_is_rejected() {
    let lib = Arc::new(Library::nangate45_like());
    let mut nl = random_netlist(&lib, 7, 4, 30);
    let model = AgingModel::calibrated();
    let fresh = NetDelays::fresh(&nl);
    let tables = aix_cells::DegradationAwareLibrary::generate(&lib, &model, Lifetime::YEARS_10);
    let stress = StressSource::Uniform(StressPair::WORST);
    for delays in [
        NetDelays::from_raw(fresh.as_slice().to_vec()),
        fresh.scaled_by_gate(&nl, |_| 1.05),
        NetDelays::aged_from_tables(&nl, &tables, &stress),
    ] {
        let err = IncrementalTimer::new(&mut nl, delays).unwrap_err();
        assert!(
            matches!(err, aix_netlist::NetlistError::NotRetimeable(_)),
            "{err}"
        );
    }
}
