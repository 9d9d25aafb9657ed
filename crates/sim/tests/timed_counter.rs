//! The packed timed engine reports its work once per measurement: one
//! `timed_event_groups` counter event whose `by` is that call's waveform
//! entries. A test binary of its own, because the trace recorder is
//! process-wide and other tests would add events to it.

use aix_arith::{build_multiplier, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_obs::{names, EventKind, Recorder};
use aix_sim::{
    collect_timed_activity, measure_errors, OperandSource, PackedTimedSimulator, UniformOperands,
    LANES,
};
use aix_sta::{analyze, NetDelays};
use std::sync::Arc;

#[test]
fn one_counter_event_per_measurement_with_its_entries() {
    let library = Arc::new(Library::nangate45_like());
    let netlist =
        build_multiplier(&library, MultiplierKind::Array, ComponentSpec::full(6)).unwrap();
    let delays = NetDelays::fresh(&netlist);
    let clock = analyze(&netlist, &delays).unwrap().max_delay_ps() * 0.5;
    // Three full batches and a partial one.
    let vectors: Vec<Vec<bool>> = UniformOperands::new(6, 3).vectors(3 * LANES + 17).collect();

    // The expected count, from the simulator the measurement uses.
    let mut sim = PackedTimedSimulator::new(&netlist, &delays).unwrap();
    for batch in vectors.chunks(LANES) {
        sim.step_stream_batch(batch, clock).unwrap();
    }
    let entries = sim.waveform_entries();
    let transitions: u64 = sim.transition_counts().iter().sum();
    assert!(entries > 0, "random operands make the multiplier switch");
    assert!(
        entries <= transitions,
        "each entry changes at least one lane: {entries} entries, {transitions} transitions"
    );

    aix_obs::install(Recorder::in_memory("timed-counter", false));
    let stats = measure_errors(&netlist, &delays, clock, vectors.iter().cloned()).unwrap();
    collect_timed_activity(&netlist, &delays, vectors.iter().cloned()).unwrap();
    let recorder = aix_obs::uninstall().expect("recorder installed above");
    assert_eq!(stats.vectors, vectors.len() as u64);

    let counters: Vec<_> = recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == names::sim::TIMED_EVENT_GROUPS)
        .collect();
    assert_eq!(counters.len(), 2, "one event per call, not per batch");
    assert_eq!(counters[0].str_field("consumer"), Some("measure_errors"));
    assert_eq!(counters[0].int_field("by"), Some(entries as i64));
    assert_eq!(counters[1].str_field("consumer"), Some("activity_timed"));
    // Timed activity clocks generously, so it builds the same waveforms.
    assert_eq!(counters[1].int_field("by"), Some(entries as i64));
    assert_eq!(
        recorder.snapshot().counter(names::sim::TIMED_EVENT_GROUPS),
        2 * entries
    );
}
