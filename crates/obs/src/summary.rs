//! Trace summarisation and validation: turn a JSONL trace into a
//! per-stage latency/counter table and a machine-readable bench record.
//!
//! Two reading modes:
//!
//! * **lenient** — tolerates a torn final line (the expected artifact of a
//!   killed run, since events are appended one `write` at a time) and
//!   reports it via [`TraceSummary::torn_tail`];
//! * **strict** — every line must validate against the event schema, `seq`
//!   must be dense from 0, and every `span_close` must pair with a prior
//!   unclosed `span_open` of the same name. This is the conformance
//!   mode the trace tests use.

use crate::event::{Event, EventError, EventKind, TRACE_SCHEMA};
use crate::json::{write_json_string, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Why a trace failed to read or validate.
#[derive(Debug)]
pub enum SummaryError {
    /// The file could not be read.
    Io(io::Error),
    /// A line failed event parsing/validation (1-based line number).
    Line {
        /// 1-based line number in the trace file.
        number: usize,
        /// The underlying parse or schema error.
        source: EventError,
    },
    /// The lines parsed individually but the trace structure is invalid.
    Structure(String),
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::Io(e) => write!(f, "cannot read trace: {e}"),
            SummaryError::Line { number, source } => {
                write!(f, "trace line {number}: {source}")
            }
            SummaryError::Structure(m) => write!(f, "invalid trace structure: {m}"),
        }
    }
}

impl std::error::Error for SummaryError {}

impl From<io::Error> for SummaryError {
    fn from(e: io::Error) -> Self {
        SummaryError::Io(e)
    }
}

/// Aggregated view of one span name across the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// The span name.
    pub name: String,
    /// Number of `span_open` events.
    pub spans: u64,
    /// Opens without a matching close (crash or still-running).
    pub unclosed: u64,
    /// Sum of `elapsed_us` over closes, when timings were recorded.
    pub total_us: Option<u64>,
    /// Largest single `elapsed_us`, when timings were recorded.
    pub max_us: Option<u64>,
}

/// The digest of one trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Run label from the `run_start` event.
    pub label: String,
    /// Whether the run recorded `elapsed_us` timings.
    pub timings: bool,
    /// Total events read (excluding a tolerated torn tail).
    pub events: usize,
    /// Per-span-name aggregates, name-sorted.
    pub stages: Vec<StageSummary>,
    /// Counter totals by name, name-sorted: each event adds its `by`
    /// field, or 1 when it has none.
    pub counters: Vec<(String, u64)>,
    /// Last value per gauge name, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Number of `quarantine` events.
    pub quarantines: u64,
    /// Number of `message` events.
    pub messages: u64,
    /// Whether a torn (unparseable) final line was tolerated.
    pub torn_tail: bool,
}

#[derive(Default)]
struct StageAgg {
    opens: u64,
    closes: u64,
    total_us: Option<u64>,
    max_us: Option<u64>,
}

impl TraceSummary {
    /// Reads and summarises the trace at `path`.
    pub fn read_file(path: &Path, strict: bool) -> Result<Self, SummaryError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_lines(text.lines(), strict)
    }

    /// Summarises trace lines (no trailing-newline handling needed — pass
    /// `str::lines`).
    pub fn from_lines<'a>(
        lines: impl Iterator<Item = &'a str>,
        strict: bool,
    ) -> Result<Self, SummaryError> {
        let lines: Vec<&str> = lines.collect();
        let mut events = Vec::with_capacity(lines.len());
        let mut torn_tail = false;
        for (index, line) in lines.iter().enumerate() {
            match Event::parse(line) {
                Ok(event) => events.push(event),
                Err(source) => {
                    let last = index + 1 == lines.len();
                    if last && !strict {
                        // A killed run can leave one torn final line; the
                        // events before it are intact by construction.
                        torn_tail = true;
                        break;
                    }
                    return Err(SummaryError::Line {
                        number: index + 1,
                        source,
                    });
                }
            }
        }
        let mut summary = Self::from_events(&events, strict)?;
        summary.torn_tail = torn_tail;
        Ok(summary)
    }

    /// Summarises already-parsed events (for in-memory recorders).
    pub fn from_events(events: &[Event], strict: bool) -> Result<Self, SummaryError> {
        let Some(first) = events.first() else {
            return Err(SummaryError::Structure("empty trace".to_owned()));
        };
        if first.kind != EventKind::RunStart {
            return Err(SummaryError::Structure(
                "first event must be `run_start`".to_owned(),
            ));
        }
        match first.str_field("schema") {
            Some(TRACE_SCHEMA) => {}
            Some(other) => {
                return Err(SummaryError::Structure(format!(
                    "unsupported trace schema `{other}` (expected `{TRACE_SCHEMA}`)"
                )))
            }
            None => {
                return Err(SummaryError::Structure(
                    "`run_start` lacks a `schema` field".to_owned(),
                ))
            }
        }
        let timings = matches!(first.field("timings"), Some(Value::Bool(true)));

        let mut stages: BTreeMap<String, StageAgg> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
        let mut open_spans: BTreeMap<u64, String> = BTreeMap::new();
        let mut quarantines = 0u64;
        let mut messages = 0u64;

        for (index, event) in events.iter().enumerate() {
            if strict && event.seq != index as u64 {
                return Err(SummaryError::Structure(format!(
                    "event {index} has seq {} (expected dense seq from 0)",
                    event.seq
                )));
            }
            match event.kind {
                EventKind::RunStart => {
                    if index != 0 {
                        return Err(SummaryError::Structure(format!(
                            "`run_start` appears again at event {index}"
                        )));
                    }
                }
                EventKind::SpanOpen => {
                    stages.entry(event.name.clone()).or_default().opens += 1;
                    open_spans.insert(event.seq, event.name.clone());
                }
                EventKind::SpanClose => {
                    let open_seq = event
                        .int_field("open_seq")
                        .and_then(|s| u64::try_from(s).ok());
                    let paired = open_seq
                        .and_then(|seq| open_spans.remove(&seq))
                        .is_some_and(|open_name| open_name == event.name);
                    if strict && !paired {
                        return Err(SummaryError::Structure(format!(
                            "`span_close` of `{}` at event {index} does not pair with an \
                             open span of the same name",
                            event.name
                        )));
                    }
                    let agg = stages.entry(event.name.clone()).or_default();
                    agg.closes += 1;
                    if let Some(us) = event
                        .int_field("elapsed_us")
                        .and_then(|v| u64::try_from(v).ok())
                    {
                        agg.total_us = Some(agg.total_us.unwrap_or(0).saturating_add(us));
                        agg.max_us = Some(agg.max_us.unwrap_or(0).max(us));
                    }
                }
                EventKind::Counter => {
                    let by = event.int_field("by").and_then(|v| u64::try_from(v).ok());
                    *counters.entry(event.name.clone()).or_insert(0) += by.unwrap_or(1);
                }
                EventKind::Gauge => {
                    let value = match event.field("value") {
                        Some(Value::Float(v)) => *v,
                        Some(Value::Int(v)) => *v as f64,
                        _ => {
                            return Err(SummaryError::Structure(format!(
                                "`gauge` event {index} lacks a numeric `value` field"
                            )))
                        }
                    };
                    gauges.insert(event.name.clone(), value);
                }
                EventKind::Quarantine => quarantines += 1,
                EventKind::Message => messages += 1,
            }
        }

        let stages = stages
            .into_iter()
            .map(|(name, agg)| StageSummary {
                name,
                spans: agg.opens,
                unclosed: agg.opens.saturating_sub(agg.closes),
                total_us: agg.total_us,
                max_us: agg.max_us,
            })
            .collect();
        Ok(Self {
            label: first.name.clone(),
            timings,
            events: events.len(),
            stages,
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            quarantines,
            messages,
            torn_tail: false,
        })
    }

    /// The total of counter `name`, or 0 when the trace has none.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find_map(|(n, total)| (n == name).then_some(*total))
            .unwrap_or(0)
    }

    /// The per-stage latency/counter table, human-readable.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace `{}` — {} events", self.label, self.events);
        let name_width = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .chain(self.counters.iter().map(|(n, _)| n.len()))
            .chain([5])
            .max()
            .unwrap_or(5);
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>7}  {:>8}  {:>10}  {:>10}",
            "stage", "spans", "unclosed", "total_ms", "max_ms"
        );
        for stage in &self.stages {
            let total = match stage.total_us {
                Some(us) => format!("{:.1}", us as f64 / 1000.0),
                None => "-".to_owned(),
            };
            let max = match stage.max_us {
                Some(us) => format!("{:.1}", us as f64 / 1000.0),
                None => "-".to_owned(),
            };
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>7}  {:>8}  {:>10}  {:>10}",
                stage.name, stage.spans, stage.unclosed, total, max
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<name_width$}  {:>7}", "counter", "count");
            for (name, count) in &self.counters {
                let _ = writeln!(out, "{name:<name_width$}  {count:>7}");
            }
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} = {value}");
        }
        let _ = writeln!(
            out,
            "quarantines: {}  messages: {}  torn tail: {}",
            self.quarantines,
            self.messages,
            if self.torn_tail { "yes" } else { "no" }
        );
        out
    }

    /// A one-line machine-readable record for `out/BENCH_characterize.json`.
    /// Starts with `{"label"` so the bench log's retention filter keeps it,
    /// and parses back with [`crate::parse_object`].
    pub fn to_json_record(&self) -> String {
        let mut out = String::from("{\"label\":");
        let _ = write_json_string(&mut out, &format!("trace:{}", self.label));
        let mut field = |key: &str, value: Value| {
            out.push(',');
            let _ = write_json_string(&mut out, key);
            out.push(':');
            let _ = write!(out, "{value}");
        };
        field("schema", Value::from(TRACE_SCHEMA));
        field("events", Value::from(self.events));
        field("quarantines", Value::from(self.quarantines));
        field("messages", Value::from(self.messages));
        field("torn_tail", Value::from(self.torn_tail));
        for stage in &self.stages {
            field(&format!("spans:{}", stage.name), Value::from(stage.spans));
            if let Some(us) = stage.total_us {
                field(&format!("total_us:{}", stage.name), Value::from(us));
            }
        }
        for (name, count) in &self.counters {
            field(&format!("count:{name}"), Value::from(*count));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_lines() -> Vec<String> {
        vec![
            format!(
                "{{\"seq\":0,\"ev\":\"run_start\",\"name\":\"t\",\
                 \"schema\":\"{TRACE_SCHEMA}\",\"timings\":true}}"
            ),
            "{\"seq\":1,\"ev\":\"span_open\",\"name\":\"campaign\"}".to_owned(),
            "{\"seq\":2,\"ev\":\"span_open\",\"name\":\"synth\",\"job\":\"adder-w4-p3-ultra\"}"
                .to_owned(),
            "{\"seq\":3,\"ev\":\"counter\",\"name\":\"cache_miss\"}".to_owned(),
            "{\"seq\":4,\"ev\":\"span_close\",\"name\":\"synth\",\"open_seq\":2,\"elapsed_us\":1500}"
                .to_owned(),
            "{\"seq\":5,\"ev\":\"quarantine\",\"name\":\"job\",\"job\":\"adder-w4-p2-ultra\"}"
                .to_owned(),
            "{\"seq\":6,\"ev\":\"span_close\",\"name\":\"campaign\",\"open_seq\":1,\"elapsed_us\":9000}"
                .to_owned(),
        ]
    }

    #[test]
    fn summarises_stages_counters_and_quarantines() {
        let lines = trace_lines();
        let summary = TraceSummary::from_lines(lines.iter().map(String::as_str), true).unwrap();
        assert_eq!(summary.label, "t");
        assert!(summary.timings);
        assert_eq!(summary.events, 7);
        assert_eq!(summary.quarantines, 1);
        assert!(!summary.torn_tail);
        let synth = summary.stages.iter().find(|s| s.name == "synth").unwrap();
        assert_eq!(synth.spans, 1);
        assert_eq!(synth.unclosed, 0);
        assert_eq!(synth.total_us, Some(1500));
        assert_eq!(synth.max_us, Some(1500));
        assert_eq!(summary.counters, vec![("cache_miss".to_owned(), 1)]);
        let table = summary.render_table();
        assert!(table.contains("campaign"), "{table}");
        assert!(table.contains("cache_miss"), "{table}");
        assert!(table.contains("quarantines: 1"), "{table}");
    }

    #[test]
    fn bench_record_starts_with_label_and_reparses() {
        let lines = trace_lines();
        let summary = TraceSummary::from_lines(lines.iter().map(String::as_str), true).unwrap();
        let record = summary.to_json_record();
        assert!(record.starts_with("{\"label\":\"trace:t\""), "{record}");
        let fields = crate::parse_object(&record).unwrap();
        assert!(fields
            .iter()
            .any(|(k, v)| k == "spans:synth" && *v == Value::Int(1)));
        assert!(fields
            .iter()
            .any(|(k, v)| k == "count:cache_miss" && *v == Value::Int(1)));
    }

    #[test]
    fn torn_tail_tolerated_only_when_lenient() {
        let mut lines = trace_lines();
        lines.push("{\"seq\":7,\"ev\":\"counter\",\"na".to_owned()); // torn mid-write
        let lenient = TraceSummary::from_lines(lines.iter().map(String::as_str), false).unwrap();
        assert!(lenient.torn_tail);
        assert_eq!(lenient.events, 7);
        let strict = TraceSummary::from_lines(lines.iter().map(String::as_str), true);
        assert!(matches!(strict, Err(SummaryError::Line { number: 8, .. })));
    }

    #[test]
    fn strict_mode_rejects_structural_violations() {
        // Dangling close (open_seq never opened).
        let bad_close = [
            format!(
                "{{\"seq\":0,\"ev\":\"run_start\",\"name\":\"t\",\
                 \"schema\":\"{TRACE_SCHEMA}\",\"timings\":false}}"
            ),
            "{\"seq\":1,\"ev\":\"span_close\",\"name\":\"synth\",\"open_seq\":99}".to_owned(),
        ];
        let err = TraceSummary::from_lines(bad_close.iter().map(String::as_str), true)
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not pair"), "{err}");
        // Lenient mode tolerates it (crash-truncated traces lose opens' closes, not vice
        // versa, but resumed readers should still get a digest).
        assert!(TraceSummary::from_lines(bad_close.iter().map(String::as_str), false).is_ok());

        // Gapped seq.
        let gapped = [
            format!(
                "{{\"seq\":0,\"ev\":\"run_start\",\"name\":\"t\",\
                 \"schema\":\"{TRACE_SCHEMA}\",\"timings\":false}}"
            ),
            "{\"seq\":5,\"ev\":\"counter\",\"name\":\"x\"}".to_owned(),
        ];
        let err = TraceSummary::from_lines(gapped.iter().map(String::as_str), true)
            .unwrap_err()
            .to_string();
        assert!(err.contains("dense"), "{err}");

        // Wrong schema token.
        let wrong = [
            "{\"seq\":0,\"ev\":\"run_start\",\"name\":\"t\",\"schema\":\"other/v9\"}".to_owned(),
        ];
        let err = TraceSummary::from_lines(wrong.iter().map(String::as_str), true)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unsupported trace schema"), "{err}");

        // Empty trace.
        assert!(matches!(
            TraceSummary::from_lines(std::iter::empty(), true),
            Err(SummaryError::Structure(_))
        ));
    }
}
