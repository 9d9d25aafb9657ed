//! The trace event schema (`aix-trace/v1`): typed, ordered, one JSON
//! object per line.
//!
//! Every line starts with the same three reserved keys — `seq` (a
//! monotonically increasing sequence number), `ev` (the event kind) and
//! `name` — followed by the event's own fields in emission order. Keeping
//! the key order fixed makes the serialized form canonical: an event
//! serializes to exactly one byte sequence, so traces can be compared
//! byte-for-byte and tests can assert on exact event sequences.

use crate::json::{parse_object, write_json_string, JsonError, Value};
use std::fmt;
use std::fmt::Write as _;

/// The schema identifier stamped into every run's `run_start` event.
pub const TRACE_SCHEMA: &str = "aix-trace/v1";

/// The kind of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// First event of every trace: names the run and the schema version.
    RunStart,
    /// A span began; `seq` doubles as the span's identity.
    SpanOpen,
    /// A span ended; `open_seq` refers back to the opening event.
    SpanClose,
    /// A named counter was incremented.
    Counter,
    /// A named gauge was set.
    Gauge,
    /// A job was quarantined (mirrors a `JobFailure` record).
    Quarantine,
    /// A free-form diagnostic message.
    Message,
}

impl EventKind {
    /// Every kind, in schema order.
    pub const ALL: [EventKind; 7] = [
        EventKind::RunStart,
        EventKind::SpanOpen,
        EventKind::SpanClose,
        EventKind::Counter,
        EventKind::Gauge,
        EventKind::Quarantine,
        EventKind::Message,
    ];

    /// The serialized token of this kind.
    pub fn token(self) -> &'static str {
        match self {
            EventKind::RunStart => "run_start",
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Quarantine => "quarantine",
            EventKind::Message => "message",
        }
    }

    /// Parses a serialized kind token.
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.token() == token)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One trace event: kind, name and ordered scalar fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic position in the trace, starting at 0.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The span/counter/gauge name (or run label for `run_start`).
    pub name: String,
    /// The event's own fields, in emission order. Keys must not collide
    /// with the reserved `seq`/`ev`/`name` keys.
    pub fields: Vec<(String, Value)>,
}

/// Why a line failed event-schema validation.
#[derive(Debug, Clone, PartialEq)]
pub enum EventError {
    /// The line is not a valid flat JSON object.
    Json(JsonError),
    /// The object parsed but violates the event schema.
    Schema(String),
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::Json(e) => write!(f, "invalid JSON: {e}"),
            EventError::Schema(m) => write!(f, "schema violation: {m}"),
        }
    }
}

impl std::error::Error for EventError {}

impl Event {
    /// Builds an event after checking its fields avoid the reserved keys.
    ///
    /// # Panics
    ///
    /// Panics if a field key is `seq`, `ev` or `name` — that is a bug at
    /// the instrumentation site, not a runtime condition.
    pub fn new(seq: u64, kind: EventKind, name: &str, fields: Vec<(String, Value)>) -> Self {
        for (key, _) in &fields {
            assert!(
                !matches!(key.as_str(), "seq" | "ev" | "name"),
                "field key `{key}` collides with a reserved event key"
            );
        }
        Self {
            seq,
            kind,
            name: name.to_owned(),
            fields,
        }
    }

    /// The canonical single-line JSON rendering (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"seq\":{},\"ev\":\"{}\",\"name\":",
            self.seq, self.kind
        );
        let _ = write_json_string(&mut out, &self.name);
        for (key, value) in &self.fields {
            out.push(',');
            let _ = write_json_string(&mut out, key);
            out.push(':');
            let _ = write!(out, "{value}");
        }
        out.push('}');
        out
    }

    /// Parses and validates one trace line against the event schema: the
    /// reserved keys must come first and in order, `seq` must be a
    /// non-negative integer, `ev` a known kind, `name` a string, and no
    /// later field may reuse a reserved key.
    pub fn parse(line: &str) -> Result<Self, EventError> {
        let fields = parse_object(line).map_err(EventError::Json)?;
        let mut it = fields.into_iter();
        let seq = match it.next() {
            Some((key, Value::Int(seq))) if key == "seq" && seq >= 0 => seq as u64,
            Some((key, _)) if key == "seq" => {
                return Err(EventError::Schema(
                    "`seq` must be a non-negative integer".to_owned(),
                ))
            }
            _ => return Err(EventError::Schema("first key must be `seq`".to_owned())),
        };
        let kind = match it.next() {
            Some((key, Value::Str(token))) if key == "ev" => EventKind::from_token(&token)
                .ok_or_else(|| EventError::Schema(format!("unknown event kind `{token}`")))?,
            _ => {
                return Err(EventError::Schema(
                    "second key must be `ev` with a string value".to_owned(),
                ))
            }
        };
        let name = match it.next() {
            Some((key, Value::Str(name))) if key == "name" => name,
            _ => {
                return Err(EventError::Schema(
                    "third key must be `name` with a string value".to_owned(),
                ))
            }
        };
        if name.is_empty() {
            return Err(EventError::Schema("`name` must be non-empty".to_owned()));
        }
        let rest: Vec<(String, Value)> = it.collect();
        for (key, _) in &rest {
            if matches!(key.as_str(), "seq" | "ev" | "name") {
                return Err(EventError::Schema(format!(
                    "reserved key `{key}` reused as a field"
                )));
            }
        }
        Ok(Self {
            seq,
            kind,
            name,
            fields: rest,
        })
    }

    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The string value of field `key`, if present and a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The integer value of field `key`, if present and an integer.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        match self.field(key) {
            Some(Value::Int(i)) => Some(*i),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_roundtrip() {
        let event = Event::new(
            7,
            EventKind::Counter,
            "cache_hit",
            vec![
                ("job".to_owned(), Value::from("adder-w16-p12-ultra")),
                ("width".to_owned(), Value::from(16usize)),
            ],
        );
        let line = event.to_json();
        assert_eq!(
            line,
            "{\"seq\":7,\"ev\":\"counter\",\"name\":\"cache_hit\",\
             \"job\":\"adder-w16-p12-ultra\",\"width\":16}"
        );
        let parsed = Event::parse(&line).unwrap();
        assert_eq!(parsed, event);
        assert_eq!(parsed.to_json(), line, "canonical form is a fixpoint");
        assert_eq!(parsed.str_field("job"), Some("adder-w16-p12-ultra"));
        assert_eq!(parsed.int_field("width"), Some(16));
    }

    #[test]
    fn schema_violations_are_named() {
        for (line, needle) in [
            ("{\"ev\":\"counter\",\"seq\":1,\"name\":\"x\"}", "first key"),
            (
                "{\"seq\":-1,\"ev\":\"counter\",\"name\":\"x\"}",
                "non-negative",
            ),
            (
                "{\"seq\":1,\"ev\":\"nope\",\"name\":\"x\"}",
                "unknown event kind",
            ),
            ("{\"seq\":1,\"ev\":\"counter\",\"name\":\"\"}", "non-empty"),
            ("{\"seq\":1,\"ev\":\"counter\"}", "third key"),
            (
                "{\"seq\":1,\"ev\":\"counter\",\"name\":\"x\",\"seq\":2}",
                "reserved key",
            ),
            ("not json", "invalid JSON"),
        ] {
            let err = Event::parse(line).unwrap_err().to_string();
            assert!(
                err.contains(needle),
                "`{line}` → `{err}` must mention `{needle}`"
            );
        }
    }

    #[test]
    fn every_kind_token_roundtrips() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_token(kind.token()), Some(kind));
        }
        assert_eq!(EventKind::from_token("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "reserved event key")]
    fn reserved_field_keys_are_a_bug() {
        let _ = Event::new(
            0,
            EventKind::Counter,
            "x",
            vec![("ev".to_owned(), Value::from(1i64))],
        );
    }
}
