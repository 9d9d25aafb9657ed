//! Timed measurements report their work once per call. `measure_errors`
//! emits one `timed_program_ops` counter event whose `by` is its sampling
//! program's ops times its batches, and its span records the program's
//! live nets, live pairs and store rows. Its block walks count one
//! `packed_words` per 64-vector batch, as one-batch walks would. Each
//! `TimedStreams` compile opens the same span, for the `gate_level`
//! consumer, with the same fields. A test binary of its own, because the
//! trace recorder is process-wide and other tests would add events to it.

use aix_arith::{build_multiplier, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_obs::{names, EventKind, Recorder, TraceSummary};
use aix_sim::{measure_errors, OperandSource, TimedStreams, UniformOperands, LANES};
use aix_sta::{analyze, NetDelays};
use std::sync::Arc;

#[test]
fn one_counter_event_per_measurement_with_its_work() {
    let library = Arc::new(Library::nangate45_like());
    let netlist =
        build_multiplier(&library, MultiplierKind::Array, ComponentSpec::full(6)).unwrap();
    let delays = NetDelays::fresh(&netlist);
    let clock = analyze(&netlist, &delays).unwrap().max_delay_ps() * 0.5;
    // Three full batches and a partial one.
    let vectors: Vec<Vec<bool>> = UniformOperands::new(6, 3).vectors(3 * LANES + 17).collect();
    let batches = vectors.len().div_ceil(LANES) as i64;

    aix_obs::install(Recorder::in_memory("timed-counter", false));
    let stats = measure_errors(&netlist, &delays, clock, vectors.iter().cloned()).unwrap();
    let recorder = aix_obs::uninstall().expect("recorder installed above");
    assert_eq!(stats.vectors, vectors.len() as u64);
    assert!(stats.erroneous > 0, "half the critical path must err");

    // The span opens before compiling, so the live counts ride on its
    // close event.
    let events = recorder.events();
    let opens: Vec<_> = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::SpanOpen
                && e.name == names::sim::SPAN_TIMED_PACKED
                && e.str_field("consumer") == Some("measure_errors")
        })
        .collect();
    assert_eq!(opens.len(), 1, "one span per measurement");
    let close = events
        .iter()
        .find(|e| {
            e.kind == EventKind::SpanClose && e.int_field("open_seq") == Some(opens[0].seq as i64)
        })
        .expect("the span closes");
    let live_nets = close.int_field("live_nets").expect("live_nets field");
    let live_pairs = close.int_field("live_pairs").expect("live_pairs field");
    let rows = close.int_field("rows").expect("rows field");
    let nets = opens[0].int_field("nets").expect("nets field");
    assert!(
        0 < live_nets && live_nets <= live_pairs && live_nets <= nets,
        "{live_nets} live nets, {live_pairs} live pairs, {nets} nets"
    );
    // At most one row per old and settled net, one per op, and the dump
    // row.
    assert!(
        0 < rows && rows <= 2 * nets + live_pairs + 1,
        "{rows} rows for {live_pairs} live pairs on {nets} nets"
    );

    let counters = |name: &str| -> Vec<_> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == name)
            .collect()
    };
    let ops = counters(names::sim::TIMED_PROGRAM_OPS);
    assert_eq!(ops.len(), 1, "one event per call, not per batch");
    assert_eq!(ops[0].str_field("consumer"), Some("measure_errors"));
    assert_eq!(ops[0].int_field("by"), Some(live_pairs * batches));

    let summary = TraceSummary::from_events(recorder.events(), true).unwrap();
    assert_eq!(
        summary.counter(names::sim::TIMED_PROGRAM_OPS),
        (live_pairs * batches) as u64
    );

    // Four full blocks of 1 024 vectors: the same totals as 64 one-batch
    // walks and program runs.
    let vectors: Vec<Vec<bool>> = UniformOperands::new(6, 4).vectors(4096).collect();
    aix_obs::install(Recorder::in_memory("timed-counter-blocks", false));
    measure_errors(&netlist, &delays, clock, vectors).unwrap();
    let recorder = aix_obs::uninstall().expect("recorder installed above");
    let summary = TraceSummary::from_events(recorder.events(), true).unwrap();
    assert_eq!(summary.counter(names::sim::PACKED_WORDS), 64);
    assert_eq!(
        summary.counter(names::sim::TIMED_PROGRAM_OPS),
        live_pairs as u64 * 64
    );

    // Each gate-level compile opens one span of its own, with the same
    // program fields and the same values for the same program.
    let batch: Vec<Vec<bool>> = UniformOperands::new(6, 5).vectors(LANES).collect();
    aix_obs::install(Recorder::in_memory("timed-counter-gate-level", false));
    for _ in 0..2 {
        let mut streams = TimedStreams::new(&netlist, &delays, clock).unwrap();
        streams.step(&batch).unwrap();
    }
    let recorder = aix_obs::uninstall().expect("recorder installed above");
    let events = recorder.events();
    let opens: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanOpen && e.name == names::sim::SPAN_TIMED_PACKED)
        .collect();
    assert_eq!(opens.len(), 2, "one span per compile");
    for open in opens {
        assert_eq!(open.str_field("consumer"), Some("gate_level"));
        assert_eq!(open.int_field("nets"), Some(nets));
        let close = events
            .iter()
            .find(|e| {
                e.kind == EventKind::SpanClose && e.int_field("open_seq") == Some(open.seq as i64)
            })
            .expect("the span closes");
        assert_eq!(close.int_field("live_nets"), Some(live_nets));
        assert_eq!(close.int_field("live_pairs"), Some(live_pairs));
        assert_eq!(close.int_field("rows"), Some(rows));
    }
}
