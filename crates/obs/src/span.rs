//! Span guards: RAII handles that close their span when dropped.

use crate::json::Value;
use std::time::Instant;

/// An open span. Dropping the guard emits the matching `span_close` event
/// (carrying `open_seq`, any fields added with [`record`](Self::record),
/// plus `elapsed_us` when timings are enabled) and feeds the span's
/// latency histogram.
///
/// Obtain one through the [`span!`](crate::span) macro; when the recorder
/// is disabled the guard is a no-op and costs nothing beyond its `Drop`.
/// Bind it to a named variable (`let _span = span!(…)`) — binding to `_`
/// drops it immediately and the span measures nothing.
#[must_use = "dropping a span guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<Live>,
}

#[derive(Debug)]
struct Live {
    name: String,
    open_seq: u64,
    start: Instant,
    fields: Vec<(String, Value)>,
}

impl SpanGuard {
    /// A guard that does nothing on drop (recorder disabled).
    pub fn noop() -> Self {
        Self { live: None }
    }

    pub(crate) fn live(name: &str, open_seq: u64) -> Self {
        Self {
            live: Some(Live {
                name: name.to_owned(),
                open_seq,
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// Whether this guard will emit a `span_close` on drop.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The `seq` of the `span_open` event, for live guards.
    pub fn open_seq(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.open_seq)
    }

    /// Adds a field to the span's `span_close` event, for a fact known
    /// only once part of the span's work is done. No-op on a disabled
    /// recorder's guard.
    pub fn record(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(live) = &mut self.live {
            live.fields.push((key.to_owned(), value.into()));
        }
    }

    /// Closes the span now instead of at end of scope.
    pub fn close(self) {
        drop(self);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let elapsed_us = u64::try_from(live.start.elapsed().as_micros()).unwrap_or(u64::MAX);
            crate::close_span(&live.name, live.open_seq, elapsed_us, live.fields);
        }
    }
}
