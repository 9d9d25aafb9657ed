//! Property tests for the observability layer: arbitrary instrumentation
//! interleavings never panic and sum to the counter totals applied, and
//! trace lines round-trip through the JSON layer.
//!
//! The vendored proptest shim only generates scalars and fixed-size
//! arrays, so structured inputs (events, op sequences) are derived
//! deterministically from arrays of random words.

use aix_obs::{
    count, count_by, event, gauge, quarantine, span, Event, EventKind, Recorder, TraceSummary,
    Value,
};
use proptest::array::{uniform16, uniform32};
use proptest::prelude::*;
use std::sync::Mutex;

/// The global recorder is process-wide state; tests that install one must
/// run one at a time.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Derives a printable-or-awkward char from one random word: the low
/// range deliberately lands on quotes, backslashes, control characters
/// and non-ASCII so the JSON escaping paths all get exercised.
fn char_from_word(word: u64) -> char {
    const AWKWARD: [char; 12] = [
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{1}',
        '\u{1f}',
        '/',
        'µ',
        '→',
        '語',
        '\u{10348}',
    ];
    if word.is_multiple_of(3) {
        AWKWARD[(word / 3) as usize % AWKWARD.len()]
    } else {
        char::from_u32(0x20 + (word % 0x5f) as u32).unwrap_or('x')
    }
}

fn name_from_words(words: &[u64]) -> String {
    let mut name = String::from("n");
    for &w in words {
        name.push(char_from_word(w));
    }
    name
}

fn value_from_words(tag: u64, word: u64) -> Value {
    match tag % 4 {
        0 => Value::from(name_from_words(&[word, word >> 17, word >> 41])),
        1 => Value::from(word as i64),
        // from_bits covers NaN/inf, which Value::from folds to strings.
        2 => Value::from(f64::from_bits(word)),
        _ => Value::from(word.is_multiple_of(2)),
    }
}

fn event_from_words(words: &[u64; 16]) -> Event {
    let kind = EventKind::ALL[(words[0] % EventKind::ALL.len() as u64) as usize];
    let name = name_from_words(&words[1..4]);
    let field_count = (words[4] % 5) as usize;
    let fields = (0..field_count)
        .map(|i| {
            let key = format!("f{i}_{}", char_from_word(words[5 + i]));
            (
                key,
                value_from_words(words[10 + i], words[5 + i].rotate_left(13)),
            )
        })
        .collect();
    Event::new(words[15] % (i64::MAX as u64), kind, &name, fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialize → parse → equal, for arbitrary kinds, names (including
    /// escapes, control chars, astral-plane unicode) and field values
    /// (including non-finite floats, which fold to strings on
    /// construction). The canonical rendering is a fixpoint.
    #[test]
    fn jsonl_lines_round_trip(words in uniform16(any::<u64>())) {
        let event = event_from_words(&words);
        let line = event.to_json();
        let parsed = Event::parse(&line)
            .map_err(|e| TestCaseError::fail(format!("`{line}` did not reparse: {e}")))?;
        prop_assert_eq!(&parsed, &event, "round-trip of `{}`", line);
        prop_assert_eq!(parsed.to_json(), line, "canonical form is a fixpoint");
    }

    /// Any interleaving of span opens/closes, counter bumps (single and
    /// by an amount), gauges, quarantines and messages neither panics nor
    /// produces a trace that fails strict validation; the summary's
    /// counter total matches the ops applied.
    #[test]
    fn arbitrary_interleavings_never_panic(ops in uniform32(any::<u8>())) {
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        aix_obs::install(Recorder::in_memory("prop", true));
        let mut open = Vec::new();
        let mut counter_events = 0usize;
        let mut counter_bumps = 0u64;
        for &op in &ops {
            match op % 7 {
                0 => open.push(span!("stage", depth = open.len())),
                1 => {
                    // Close spans in arbitrary (not necessarily LIFO) order.
                    if !open.is_empty() {
                        let guard: aix_obs::SpanGuard =
                            open.remove(op as usize % open.len());
                        guard.close();
                    }
                }
                2 => {
                    count!("ops", tag = op as i64);
                    counter_events += 1;
                    counter_bumps += 1;
                }
                3 => gauge!("level", f64::from(op)),
                4 => quarantine!("job", site = "adder-w4-p2-ultra", attempt = op as i64),
                5 => event!("note", tag = op as i64),
                _ => {
                    count_by!("ops", op % 5, tag = op as i64);
                    counter_events += 1;
                    counter_bumps += u64::from(op % 5);
                }
            }
        }
        let open_left = open.len();
        open.clear(); // closes the stragglers
        let rec = aix_obs::uninstall().expect("recorder still installed");
        let summary = TraceSummary::from_events(rec.events(), true)
            .map_err(|e| TestCaseError::fail(format!("strict validation failed: {e}")))?;
        prop_assert_eq!(summary.counters.len(), usize::from(counter_events > 0));
        prop_assert_eq!(summary.counter("ops"), counter_bumps);
        let stage = summary.stages.iter().find(|s| s.name == "stage");
        if let Some(stage) = stage {
            prop_assert_eq!(stage.unclosed, 0, "all guards dropped ({open_left} at end)");
        }
        // Every line of the serialized trace is schema-valid.
        for event in rec.events() {
            prop_assert!(Event::parse(&event.to_json()).is_ok());
        }
    }
}
