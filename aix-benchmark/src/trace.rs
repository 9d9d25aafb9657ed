//! Spans kept in memory around the public calls a traced repetition
//! makes, and the per-layer numbers derived from them.
//!
//! Layers are named after the module whose entry point a span wraps. The
//! benchmark records spans from its own code only, around each call into
//! a layer, so a layer's busy time includes whatever that call does
//! internally (STA run inside sizing counts as `synth.sizing`).

use aix_obs::{render_object, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that covers one whole traced repetition.
pub const ROOT: &str = "rep";

/// Every layer, with the work counters recorded at its boundary.
pub const LAYERS: [(&str, &[&str]); 14] = [
    ("arith", &["gates"]),
    ("synth.optimize", &["gates_removed"]),
    ("synth.sizing", &["iterations", "upsized"]),
    ("synth.area_recovery", &["downsized"]),
    ("sta.delays", &["nets"]),
    ("sta.analyze", &["gates"]),
    ("sim.packed", &["vectors"]),
    ("sim.stress", &[]),
    ("sim.timed", &["vectors", "error_vectors"]),
    ("core.engine", &["cache_hits", "cache_misses", "retries"]),
    ("core.library", &["bytes"]),
    ("core.microarch", &[]),
    ("core.eq2", &[]),
    ("explore", &["evaluated", "front_points"]),
];

/// Useful outcomes over attempts, per layer: `(layer, ratio, numerator,
/// counters summed into the denominator)`.
pub const RATIOS: [(&str, &str, &str, &[&str]); 2] = [
    ("synth.sizing", "accept_ratio", "upsized", &["iterations"]),
    (
        "core.engine",
        "hit_ratio",
        "cache_hits",
        &["cache_hits", "cache_misses"],
    ),
];

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, or [`ROOT`].
    pub name: &'static str,
    /// Repetition the span belongs to.
    pub rep: usize,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A named value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as written in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Records spans and work counters of traced repetitions.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<(&'static str, &'static str), f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Runs one repetition under a [`ROOT`] span.
    pub fn rep<R>(&mut self, rep: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        self.rep = rep;
        self.span(ROOT, f)
    }

    /// Runs `f` under a span named `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Adds `amount` to a layer's work counter.
    pub fn count(&mut self, layer: &'static str, counter: &'static str, amount: usize) {
        *self.counts.entry((layer, counter)).or_default() += amount as f64;
    }

    /// The recorded spans, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Durations of every [`ROOT`] span, in seconds.
    pub fn rep_seconds(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == ROOT)
            .map(|span| (span.end_ns - span.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per-layer totals: (calls, self seconds) by span name.
    fn totals(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut totals: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += self_ns as f64 * 1e-9;
        }
        totals
    }

    /// The share of traced repetition time that layer spans cover.
    pub fn coverage(&self) -> f64 {
        let totals = self.totals();
        let total: f64 = self.rep_seconds().iter().sum();
        let untraced = totals.get(ROOT).map_or(0.0, |t| t.1);
        if total > 0.0 {
            1.0 - untraced / total
        } else {
            0.0
        }
    }

    /// Every per-layer metric, each a total over traced repetitions
    /// divided by their number.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let reps = self.rep_seconds().len();
        let per_rep = |v: f64| if reps > 0 { v / reps as f64 } else { 0.0 };
        let totals = self.totals();
        let mut metrics = Vec::new();
        for (layer, counters) in LAYERS {
            let (calls, busy) = totals.get(layer).copied().unwrap_or_default();
            let mut push = |name: String, value: f64, unit| {
                metrics.push(Metric {
                    name,
                    value,
                    unit,
                    samples: reps,
                });
            };
            push(format!("{layer}.calls"), per_rep(calls as f64), "count");
            push(format!("{layer}.busy_s"), per_rep(busy), "s");
            for counter in counters {
                push(
                    format!("{layer}.{counter}"),
                    per_rep(self.counter(layer, counter)),
                    "count",
                );
            }
            for (_, ratio, numerator, denominator) in RATIOS.iter().filter(|r| r.0 == layer) {
                let below: f64 = denominator.iter().map(|c| self.counter(layer, c)).sum();
                let value = if below > 0.0 {
                    self.counter(layer, numerator) / below
                } else {
                    0.0
                };
                push(format!("{layer}.{ratio}"), value, "frac");
            }
        }
        metrics
    }

    fn counter(&self, layer: &'static str, counter: &'static str) -> f64 {
        self.counts.get(&(layer, counter)).copied().unwrap_or(0.0)
    }

    /// The per-layer table: calls and busy seconds per traced repetition,
    /// share of the traced repetition time, work counters and ratios.
    pub fn table(&self, workload: &str) -> String {
        let reps = self.rep_seconds();
        let mean_rep_s = reps.iter().sum::<f64>() / reps.len().max(1) as f64;
        let share = |busy_s: f64| 100.0 * busy_s / mean_rep_s;
        let metrics = self.layer_metrics();
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let mut out = format!(
            "{workload}: per traced repetition ({} repetitions)\n{:<20} {:>8} {:>9} {:>7}  work\n",
            reps.len(),
            "layer",
            "calls",
            "busy_s",
            "share"
        );
        for (layer, _) in LAYERS {
            let calls = value(&format!("{layer}.calls"));
            if calls == 0.0 {
                continue;
            }
            let busy_s = value(&format!("{layer}.busy_s"));
            let work: Vec<String> = metrics
                .iter()
                .filter_map(|m| {
                    let short = m.name.strip_prefix(layer)?.strip_prefix('.')?;
                    let rounded = (m.value * 1e4).round() / 1e4;
                    (!matches!(short, "calls" | "busy_s")).then(|| format!("{short}={rounded}"))
                })
                .collect();
            let _ = writeln!(
                out,
                "{layer:<20} {calls:>8.1} {busy_s:>9.4} {:>6.1}%  {}",
                share(busy_s),
                work.join(" ")
            );
        }
        let outside_s = (1.0 - self.coverage()) * mean_rep_s;
        let _ = writeln!(
            out,
            "{:<20} {:>8} {outside_s:>9.4} {:>6.1}%",
            "(outside layers)",
            "",
            share(outside_s)
        );
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (index, (span, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            out.push_str(&render_object(&[
                ("id", Value::from(index)),
                ("name", Value::from(span.name)),
                ("workload", Value::from(workload)),
                ("rep", Value::from(span.rep)),
                ("start_ns", Value::from(span.start_ns)),
                ("end_ns", Value::from(span.end_ns)),
                ("parent", span.parent.map_or(Value::Int(-1), Value::from)),
                ("self_ns", Value::from(self_ns)),
            ]));
            out.push('\n');
        }
        out
    }
}

/// Each span's duration minus the time its direct children cover. Spans
/// come from one thread, so children of one parent never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent] = self_ns[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            rep: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(ROOT, 0, 100, None),
            span("synth.sizing", 10, 60, Some(0)),
            span("sta.analyze", 20, 30, Some(1)),
            span("sta.analyze", 35, 45, Some(1)),
            span("core.library", 70, 90, Some(0)),
        ];
        // Root: 100 − (50 + 20); sizing: 50 − (10 + 10); leaves keep theirs.
        assert_eq!(self_times(&spans), vec![30, 30, 10, 10, 20]);
    }

    #[test]
    fn recorded_spans_nest_and_layer_totals_cover_the_repetition() {
        let mut tracer = Tracer::default();
        tracer.rep(0, |t| {
            t.span("synth.sizing", |t| {
                t.span("sta.analyze", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.count("synth.sizing", "iterations", 4);
                t.count("synth.sizing", "upsized", 1);
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(1)));
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
        let self_sum: u64 = self_times(spans).iter().sum();
        assert_eq!(self_sum, spans[0].end_ns - spans[0].start_ns);
        assert!(tracer.coverage() > 0.5);
        let metrics = tracer.layer_metrics();
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("synth.sizing.calls"), 1.0);
        assert_eq!(value("synth.sizing.accept_ratio"), 0.25);
        assert_eq!(value("sta.analyze.calls"), 1.0);
        assert_eq!(value("core.engine.calls"), 0.0);
        assert_eq!(tracer.jsonl("w").lines().count(), 3);
    }
}
