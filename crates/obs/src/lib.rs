//! `aix-obs` — dependency-free structured observability for the aix
//! workspace: hierarchical spans, typed counters/gauges/histograms and a
//! crash-safe JSON-lines event trace, behind a global [`Recorder`] whose
//! default is a no-op. It also holds the workspace's one hash function,
//! [`fnv1a`], because it is dependency-free and every crate that keys
//! anything depends on it.
//!
//! # Design
//!
//! * **No-op by default.** Instrumented code pays one relaxed atomic load
//!   when no recorder is installed; the [`span!`]/[`count!`] macros do not
//!   evaluate their field expressions in that case.
//! * **Deterministic events.** Trace lines carry seeded, reproducible
//!   fields only (job keys, precisions, cache verdicts). Wall-clock
//!   enters the file solely as the `elapsed_us` field of `span_close`
//!   events, and a recorder opened without timings removes even that,
//!   making traces byte-comparable across runs and worker counts. Aggregates
//!   (histograms, counter totals) stay in memory and are never serialized
//!   into the trace.
//! * **Crash-safe log.** The trace file is born atomically (temp +
//!   rename, carrying the `run_start` header) and then grows by
//!   single-`write` appended lines, so a killed run leaves at most one
//!   torn final line — which the lenient reader tolerates and the strict
//!   validator reports.
//!
//! # Example
//!
//! ```
//! use aix_obs as obs;
//!
//! obs::install(obs::Recorder::in_memory("demo", true));
//! {
//!     let _span = obs::span!("synth", kind = "adder", width = 8usize);
//!     obs::count!("cache_miss", job = "adder-w8-p6-ultra");
//! }
//! let rec = obs::uninstall().unwrap();
//! assert_eq!(rec.snapshot().counter("cache_miss"), 1);
//! assert_eq!(rec.events().len(), 4); // run_start, span_open, counter, span_close
//! ```

mod event;
mod json;
mod metrics;
pub mod names;
mod span;
mod summary;

pub use event::{Event, EventError, EventKind, TRACE_SCHEMA};
pub use json::{parse_object, render_object, JsonError, Value};
pub use metrics::{Histogram, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use span::SpanGuard;
pub use summary::{StageSummary, SummaryError, TraceSummary};

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The 64-bit FNV-1a offset basis: the state a fresh [`fnv1a`] hash starts
/// from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a hash `state` and returns the new
/// state. Start from [`FNV_OFFSET`]; chaining calls hashes the
/// concatenation. This is the workspace's one hash for cache keys,
/// fingerprints, fault decisions and verification seeds: it is stable
/// across platforms and runs, so anything keyed by it on disk stays valid
/// across builds.
#[inline]
#[must_use]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// Fast path: one relaxed load decides whether instrumentation does any
// work at all. The recorder state itself lives behind a mutex that is
// only touched once this is true.
static ENABLED: AtomicBool = AtomicBool::new(false);
static QUIET: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<State>> = Mutex::new(None);

#[derive(Debug)]
enum Sink {
    Memory(Vec<Event>),
    File(std::fs::File),
}

#[derive(Debug)]
struct State {
    seq: u64,
    sink: Sink,
    path: Option<PathBuf>,
    timings: bool,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl State {
    fn emit(&mut self, kind: EventKind, name: &str, fields: Vec<(String, Value)>) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        let event = Event::new(seq, kind, name, fields);
        match &mut self.sink {
            Sink::Memory(events) => events.push(event),
            Sink::File(file) => {
                let mut line = event.to_json();
                line.push('\n');
                // Best-effort: a full disk must degrade observability, not
                // abort the characterization pipeline it observes.
                let _ = file.write_all(line.as_bytes());
            }
        }
        seq
    }
}

/// A trace recorder: the event sink plus its in-memory aggregates.
///
/// Construct one, [`install`] it globally, run instrumented code, then
/// [`uninstall`] to get it back for inspection.
#[derive(Debug)]
pub struct Recorder {
    state: State,
}

impl Recorder {
    /// A recorder that retains events in memory (for tests and in-process
    /// inspection). `timings` controls whether `span_close` events carry
    /// `elapsed_us`.
    pub fn in_memory(label: &str, timings: bool) -> Self {
        let mut state = State {
            seq: 0,
            sink: Sink::Memory(Vec::new()),
            path: None,
            timings,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        emit_run_start(&mut state, label);
        Self { state }
    }

    /// A recorder that streams events to a JSONL file at `path`.
    ///
    /// The file is created atomically — the `run_start` header is written
    /// to a temp file in the same directory which is then renamed into
    /// place (the same pattern as the engine's cache writes) —
    /// and subsequent events are appended one `write` per line.
    pub fn to_file(path: &Path, label: &str, timings: bool) -> io::Result<Self> {
        let mut state = State {
            seq: 0,
            sink: Sink::Memory(Vec::new()),
            path: Some(path.to_owned()),
            timings,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        emit_run_start(&mut state, label);
        let Sink::Memory(header) = &state.sink else {
            unreachable!("recorder is born with a memory sink");
        };
        let mut text = String::new();
        for event in header {
            text.push_str(&event.to_json());
            text.push('\n');
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, path)?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        state.sink = Sink::File(file);
        Ok(Self { state })
    }

    /// The trace file path, for file-backed recorders.
    pub fn path(&self) -> Option<&Path> {
        self.state.path.as_deref()
    }

    /// The retained events (empty for file-backed recorders — read the
    /// file instead).
    pub fn events(&self) -> &[Event] {
        match &self.state.sink {
            Sink::Memory(events) => events,
            Sink::File(_) => &[],
        }
    }

    /// A deterministic (name-sorted) copy of the aggregates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .state
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .state
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .state
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

fn emit_run_start(state: &mut State, label: &str) {
    let timings = state.timings;
    state.emit(
        EventKind::RunStart,
        label,
        vec![
            ("schema".to_owned(), Value::from(TRACE_SCHEMA)),
            ("timings".to_owned(), Value::from(timings)),
        ],
    );
}

/// Whether a recorder is installed. Instrumentation macros check this
/// before evaluating their fields; the disabled cost is this single
/// relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` as the global sink, returning the previous one.
pub fn install(recorder: Recorder) -> Option<Recorder> {
    let mut guard = lock();
    let previous = guard.replace(recorder.state).map(|state| Recorder { state });
    ENABLED.store(true, Ordering::SeqCst);
    previous
}

/// Removes and returns the global recorder; instrumentation reverts to
/// no-op.
pub fn uninstall() -> Option<Recorder> {
    let mut guard = lock();
    ENABLED.store(false, Ordering::SeqCst);
    guard.take().map(|state| Recorder { state })
}

/// Silences (or re-enables) [`progress!`]/[`warn!`] output.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::SeqCst);
}

/// Whether progress output is currently silenced by [`set_quiet`].
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
    // A panic while holding the lock (e.g. a quarantined job mid-emit)
    // must not take observability down with it: the state is a log plus
    // monotonic aggregates, valid at every intermediate step.
    GLOBAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    lock().as_mut().map(f)
}

/// Opens a span: emits `span_open` and returns the guard that will close
/// it. Prefer the [`span!`] macro, which skips field evaluation when
/// disabled.
pub fn open_span(name: &str, fields: Vec<(String, Value)>) -> SpanGuard {
    match with_state(|state| state.emit(EventKind::SpanOpen, name, fields)) {
        Some(open_seq) => SpanGuard::live(name, open_seq),
        None => SpanGuard::noop(),
    }
}

pub(crate) fn close_span(
    name: &str,
    open_seq: u64,
    elapsed_us: u64,
    recorded: Vec<(String, Value)>,
) {
    with_state(|state| {
        state
            .histograms
            .entry(name.to_owned())
            .or_default()
            .observe_us(elapsed_us);
        let mut fields = vec![("open_seq".to_owned(), Value::from(open_seq))];
        fields.extend(recorded);
        if state.timings {
            fields.push(("elapsed_us".to_owned(), Value::from(elapsed_us)));
        }
        state.emit(EventKind::SpanClose, name, fields);
    });
}

/// Increments counter `name` and emits a `counter` event. Prefer the
/// [`count!`] macro.
pub fn counter(name: &str, fields: Vec<(String, Value)>) {
    with_state(|state| {
        *state.counters.entry(name.to_owned()).or_insert(0) += 1;
        state.emit(EventKind::Counter, name, fields);
    });
}

/// Adds `by` to counter `name` and emits one `counter` event carrying
/// `by` as its first field, so a pass that tallies thousands of steps
/// writes one line. Prefer the [`count_by!`] macro.
pub fn counter_by(name: &str, by: u64, fields: Vec<(String, Value)>) {
    with_state(|state| {
        *state.counters.entry(name.to_owned()).or_insert(0) += by;
        let mut all = vec![("by".to_owned(), Value::from(by))];
        all.extend(fields);
        state.emit(EventKind::Counter, name, all);
    });
}

/// Sets gauge `name` to `value` and emits a `gauge` event. Prefer the
/// [`gauge!`] macro.
pub fn gauge(name: &str, value: f64, fields: Vec<(String, Value)>) {
    with_state(|state| {
        state.gauges.insert(name.to_owned(), value);
        let mut all = vec![("value".to_owned(), Value::from(value))];
        all.extend(fields);
        state.emit(EventKind::Gauge, name, all);
    });
}

/// Emits a `quarantine` event (one per quarantined job). Prefer the
/// [`quarantine!`] macro.
pub fn quarantine(name: &str, fields: Vec<(String, Value)>) {
    with_state(|state| state.emit(EventKind::Quarantine, name, fields));
}

/// Emits a free-form `message` event. Prefer the [`event!`] macro.
pub fn message(name: &str, fields: Vec<(String, Value)>) {
    with_state(|state| state.emit(EventKind::Message, name, fields));
}

/// A point-in-time copy of the global recorder's aggregates, if one is
/// installed.
pub fn snapshot() -> Option<MetricsSnapshot> {
    with_state(|state| MetricsSnapshot {
        counters: state.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        gauges: state.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        histograms: state
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    })
}

/// Opens a hierarchical span; returns a [`SpanGuard`] that closes it when
/// dropped. Fields are `key = value` pairs of any [`Value`]-convertible
/// scalar and are not evaluated when the recorder is disabled.
///
/// ```
/// # use aix_obs as obs;
/// let _span = obs::span!("synth", kind = "adder", width = 8usize, precision = 6usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::open_span(
                $name,
                vec![$((stringify!($key).to_owned(), $crate::Value::from($value))),*],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// Increments a named counter, emitting a `counter` event with the given
/// fields. No-op (fields unevaluated) when the recorder is disabled.
#[macro_export]
macro_rules! count {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::counter(
                $name,
                vec![$((stringify!($key).to_owned(), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Adds an amount to a named counter, emitting one `counter` event with a
/// `by` field. No-op (amount and fields unevaluated) when the recorder is
/// disabled.
#[macro_export]
macro_rules! count_by {
    ($name:expr, $by:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::counter_by(
                $name,
                u64::try_from($by).unwrap_or(u64::MAX),
                vec![$((stringify!($key).to_owned(), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Sets a named gauge, emitting a `gauge` event.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $gauge_value:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::gauge(
                $name,
                f64::from($gauge_value),
                vec![$((stringify!($key).to_owned(), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Emits a `quarantine` event mirroring one quarantined job.
#[macro_export]
macro_rules! quarantine {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::quarantine(
                $name,
                vec![$((stringify!($key).to_owned(), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Emits a free-form `message` event.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::message(
                $name,
                vec![$((stringify!($key).to_owned(), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Prints a progress line to stderr unless quiet mode is on. Progress
/// output never enters the trace file — it is for humans, and keeping it
/// out of the event stream preserves the trace's byte-determinism.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        if !$crate::quiet() {
            eprintln!($($arg)*);
        }
    };
}

/// Prints a `warning:`-prefixed line to stderr unless quiet mode is on.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if !$crate::quiet() {
            eprintln!("warning: {}", format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide; tests that install one must
    // not interleave. Serialize them through a shared lock.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let _serial = serial();
        let _ = uninstall(); // clean slate
        assert!(!enabled());
        let mut evaluated = false;
        let guard = span!("synth", flag = {
            evaluated = true;
            true
        });
        assert!(!guard.is_live());
        assert!(!evaluated, "fields must not be evaluated when disabled");
        count!("cache_hit", job = {
            evaluated = true;
            "x"
        });
        assert!(!evaluated);
        drop(guard);
    }

    #[test]
    fn in_memory_recorder_captures_ordered_events() {
        let _serial = serial();
        install(Recorder::in_memory("unit", true));
        {
            let outer = span!("campaign", jobs_planned = 2usize);
            {
                let _inner = span!("synth", kind = "adder", width = 8usize);
                count!("cache_miss", job = "adder-w8-p6-ultra");
            }
            count!("cache_hit", job = "adder-w8-p7-ultra");
            drop(outer);
        }
        let rec = uninstall().unwrap();
        let kinds: Vec<EventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::RunStart,
                EventKind::SpanOpen,  // campaign
                EventKind::SpanOpen,  // synth
                EventKind::Counter,   // cache_miss
                EventKind::SpanClose, // synth
                EventKind::Counter,   // cache_hit
                EventKind::SpanClose, // campaign
            ]
        );
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<u64>>(), "seq is dense");
        // span_close refers back to its own open.
        let synth_open = rec.events()[2].seq;
        assert_eq!(rec.events()[4].int_field("open_seq"), Some(synth_open as i64));
        assert!(rec.events()[4].field("elapsed_us").is_some());
        let snap = rec.snapshot();
        assert_eq!(snap.counter("cache_hit"), 1);
        assert_eq!(snap.counter("cache_miss"), 1);
        assert_eq!(snap.histogram("synth").unwrap().count(), 1);
    }

    #[test]
    fn timings_off_omits_elapsed_and_stays_deterministic() {
        let _serial = serial();
        let mut traces = Vec::new();
        for _ in 0..2 {
            install(Recorder::in_memory("det", false));
            {
                let _span = span!("plan", scenarios = 13usize);
                count!("cache_hit", job = "adder-w4-p4-ultra");
            }
            let rec = uninstall().unwrap();
            let lines: Vec<String> = rec.events().iter().map(Event::to_json).collect();
            traces.push(lines.join("\n"));
        }
        assert_eq!(traces[0], traces[1], "identical work → identical bytes");
        assert!(
            !traces[0].contains("elapsed_us"),
            "timings off removes wall-clock from the trace: {}",
            traces[0]
        );
    }

    #[test]
    fn file_recorder_creates_header_atomically_and_appends() {
        let _serial = serial();
        let dir = std::env::temp_dir().join(format!("aix-obs-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("trace").join("run.jsonl");
        install(Recorder::to_file(&path, "filetest", true).unwrap());
        assert!(path.is_file(), "header lands before any instrumentation");
        {
            let _span = span!("sta", site = "adder-w8-p6-ultra@cal1");
        }
        event!("note", detail = "free-form");
        uninstall().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let events: Vec<Event> = lines.iter().map(|l| Event::parse(l).unwrap()).collect();
        assert_eq!(events[0].kind, EventKind::RunStart);
        assert_eq!(events[0].name, "filetest");
        assert_eq!(events[0].str_field("schema"), Some(TRACE_SCHEMA));
        assert_eq!(events[1].kind, EventKind::SpanOpen);
        assert_eq!(events[2].kind, EventKind::SpanClose);
        assert_eq!(events[3].kind, EventKind::Message);
        // No temp file survives the atomic creation.
        let siblings: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(siblings.len(), 1, "no temp residue: {siblings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn count_by_adds_its_amount_in_one_event() {
        let _serial = serial();
        let _ = uninstall();
        let mut evaluated = false;
        count_by!("moves", {
            evaluated = true;
            5usize
        });
        assert!(!evaluated, "the amount is not evaluated when disabled");
        install(Recorder::in_memory("count_by", true));
        count_by!("moves", 5usize, pass = "sizing");
        count_by!("moves", 2u64);
        let rec = uninstall().unwrap();
        assert_eq!(rec.snapshot().counter("moves"), 7);
        assert_eq!(rec.events().len(), 3, "one event per call");
        assert_eq!(rec.events()[1].int_field("by"), Some(5));
        assert_eq!(rec.events()[1].str_field("pass"), Some("sizing"));
        let summary = TraceSummary::from_events(rec.events(), true).unwrap();
        assert_eq!(summary.counters, vec![("moves".to_owned(), 7)]);
    }

    #[test]
    fn recorded_fields_land_on_the_span_close() {
        let _serial = serial();
        let mut noop = SpanGuard::noop();
        noop.record("ignored", 1usize);
        install(Recorder::in_memory("record", false));
        {
            let mut span = span!("compile", width = 8usize);
            span.record("ops", 42usize);
        }
        let rec = uninstall().unwrap();
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].int_field("ops"), None, "unknown at open");
        assert_eq!(events[2].kind, EventKind::SpanClose);
        assert_eq!(events[2].int_field("open_seq"), Some(1));
        assert_eq!(events[2].int_field("ops"), Some(42));
        TraceSummary::from_events(events, true).unwrap();
    }

    #[test]
    fn gauges_record_last_value() {
        let _serial = serial();
        install(Recorder::in_memory("gauges", true));
        gauge!("jobs_planned", 24.0f64);
        gauge!("jobs_planned", 8.0f64, stage = "resume");
        let rec = uninstall().unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.gauges, vec![("jobs_planned".to_owned(), 8.0)]);
        assert_eq!(rec.events()[2].str_field("stage"), Some("resume"));
    }

    #[test]
    fn quiet_silences_progress_macro_paths() {
        let _serial = serial();
        set_quiet(true);
        assert!(quiet());
        // The macros must still be expandable and side-effect free here.
        progress!("hidden {}", 1);
        warn!("hidden {}", 2);
        set_quiet(false);
        assert!(!quiet());
    }
}
