//! Trace-conformance tests: spawn the real `aix` binary with `--trace`
//! and assert over the recorded JSONL event stream — the trace doubles as
//! a conformance surface for the engine's cache and quarantine
//! behaviour, so these tests pin exactly which work each run performed.
//!
//! All traced runs set `AIX_TRACE_TIMINGS=off` so events carry no
//! wall-clock fields and byte-level comparisons are meaningful.

mod common;

use aix::obs::{Event, EventKind, TraceSummary};
use std::path::{Path, PathBuf};

fn aix() -> common::Aix {
    let mut cmd = common::aix();
    cmd.env("AIX_TRACE_TIMINGS", "off");
    cmd
}

/// A fresh scratch directory unique to this test and process.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aix-trace-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Parses every line of a trace file; panics on any malformed event.
fn events(path: &Path) -> Vec<Event> {
    std::fs::read_to_string(path)
        .expect("trace file")
        .lines()
        .map(|line| Event::parse(line).expect("valid trace event"))
        .collect()
}

fn count(events: &[Event], kind: EventKind, name: &str) -> usize {
    events
        .iter()
        .filter(|e| e.kind == kind && e.name == name)
        .count()
}

/// `characterize --kind adder --width 8` against `cache`, tracing to
/// `trace`.
fn characterize_adder8(cache: &Path, trace: &Path, jobs: &str) -> std::process::Output {
    aix()
        .args(["characterize", "--kind", "adder", "--width", "8"])
        .args(["--effort", "medium", "--jobs", jobs])
        .arg(format!("--cache={}", cache.display()))
        .arg(format!("--trace={}", trace.display()))
        .output()
        .expect("spawn aix")
}

#[test]
fn cold_and_warm_traces_pin_the_work_performed() {
    let dir = scratch("coldwarm");
    let cache = dir.join("cache");

    // Cold: every one of the 8 planned jobs (precisions 8..=1) misses the
    // cache and synthesizes.
    let cold_trace = dir.join("cold.jsonl");
    let output = characterize_adder8(&cache, &cold_trace, "2");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let cold = events(&cold_trace);
    assert_eq!(count(&cold, EventKind::Counter, "cache_miss"), 8);
    assert_eq!(count(&cold, EventKind::Counter, "cache_hit"), 0);
    assert_eq!(count(&cold, EventKind::SpanOpen, "synth"), 8);
    assert_eq!(
        count(&cold, EventKind::SpanOpen, "synthesize"),
        8,
        "each engine synth job reaches the synthesizer exactly once"
    );

    // Warm: the cache serves everything — exactly zero synthesis spans and
    // one cache-hit event per planned job.
    let warm_trace = dir.join("warm.jsonl");
    let output = characterize_adder8(&cache, &warm_trace, "2");
    assert!(output.status.success());
    let warm = events(&warm_trace);
    assert_eq!(count(&warm, EventKind::Counter, "cache_hit"), 8);
    assert_eq!(count(&warm, EventKind::Counter, "cache_miss"), 0);
    assert_eq!(count(&warm, EventKind::SpanOpen, "synth"), 0);
    assert_eq!(count(&warm, EventKind::SpanOpen, "synthesize"), 0);
    assert_eq!(count(&warm, EventKind::SpanOpen, "sta"), 0);
    assert_eq!(count(&warm, EventKind::Quarantine, "job"), 0);

    // Both traces pass strict validation: dense seq numbers, matched
    // span pairs, a schema-carrying run_start header.
    TraceSummary::from_events(&cold, true).expect("strict cold trace");
    TraceSummary::from_events(&warm, true).expect("strict warm trace");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_traces_are_byte_identical_across_worker_counts() {
    let dir = scratch("warmjobs");
    let cache = dir.join("cache");

    // Populate the cache once, then trace two warm runs with different
    // worker counts: with timings off the files must match byte for byte,
    // because every warm event is emitted from sequential code in plan
    // order and no event records the worker count.
    let output = characterize_adder8(&cache, &dir.join("seed.jsonl"), "2");
    assert!(output.status.success());
    let serial = dir.join("warm-j1.jsonl");
    let parallel = dir.join("warm-j3.jsonl");
    assert!(characterize_adder8(&cache, &serial, "1").status.success());
    assert!(characterize_adder8(&cache, &parallel, "3").status.success());
    let serial_bytes = std::fs::read(&serial).expect("serial trace");
    let parallel_bytes = std::fs::read(&parallel).expect("parallel trace");
    assert_eq!(
        serial_bytes, parallel_bytes,
        "warm traces must not depend on --jobs"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A deterministic fault seed whose synth-stage panic spec fires on some
/// but not all of the four jobs of `characterize --kind adder --width 4`.
fn partial_panic_seed() -> (u64, usize) {
    use aix::faults::{FaultMode, FaultSpec, FaultStage};
    (0..10_000u64)
        .find_map(|seed| {
            let spec = FaultSpec {
                mode: FaultMode::Panic,
                probability: 0.5,
                seed,
                stage: Some(FaultStage::Synth),
                delay_ms: 0,
            };
            let doomed = (1..=4)
                .filter(|p| spec.fires(FaultStage::Synth, &format!("adder-w4-p{p}-ultra")))
                .count();
            (doomed > 0 && doomed < 4).then_some((seed, doomed))
        })
        .expect("a partial seed exists")
}

#[test]
fn quarantine_events_mirror_job_failures_and_resume_traces_the_remainder() {
    let dir = scratch("fault");
    let cache = dir.join("cache");
    let (seed, doomed) = partial_panic_seed();

    let characterize = |extra: &[String], trace: &Path| {
        let mut cmd = aix();
        cmd.args(["characterize", "--kind", "adder", "--width", "4"]);
        cmd.arg(format!("--cache={}", cache.display()));
        cmd.arg(format!("--trace={}", trace.display()));
        cmd.args(extra);
        cmd.arg("--out").arg(dir.join("lib.txt"));
        cmd.output().expect("spawn aix")
    };

    // Faulted run: `doomed` of the 4 jobs panic in synthesis and are
    // quarantined.
    let fault_trace = dir.join("fault.jsonl");
    let output = characterize(
        &[format!("--fault=panic:p=0.5,seed={seed},stage=synth")],
        &fault_trace,
    );
    assert_eq!(output.status.code(), Some(2), "partial campaigns exit 2");
    let trace = events(&fault_trace);
    TraceSummary::from_events(&trace, true).expect("strict faulted trace");

    // One quarantine event per reported JobFailure, in the same (plan)
    // order, each naming the failed site and stage.
    let quarantines: Vec<&Event> = trace
        .iter()
        .filter(|e| e.kind == EventKind::Quarantine)
        .collect();
    assert_eq!(quarantines.len(), doomed);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let failed_lines: Vec<&str> = stderr
        .lines()
        .filter(|line| line.contains("job FAILED"))
        .collect();
    assert_eq!(failed_lines.len(), doomed, "stderr: {stderr}");
    for (event, line) in quarantines.iter().zip(&failed_lines) {
        assert_eq!(event.name, "job");
        assert_eq!(event.str_field("stage"), Some("synth"));
        let site = event.str_field("job").expect("quarantine names its job");
        // Site `adder-w4-p2-ultra` appears on stderr as `adder w4 p2`.
        let precision = site
            .split("-p")
            .nth(1)
            .and_then(|rest| rest.split('-').next())
            .expect("site carries a precision");
        assert!(
            line.contains(&format!("adder w4 p{precision}")),
            "quarantine {site} must match failure line `{line}`"
        );
    }

    // A plain rerun: the cache serves the survivors (cache_hit each) and
    // only the quarantined remainder is synthesized again.
    let rerun_trace = dir.join("rerun.jsonl");
    let output = characterize(&[], &rerun_trace);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let rerun = events(&rerun_trace);
    TraceSummary::from_events(&rerun, true).expect("strict rerun trace");
    assert_eq!(
        count(&rerun, EventKind::Counter, "cache_hit"),
        4 - doomed,
        "every earlier success is served from the cache"
    );
    assert_eq!(count(&rerun, EventKind::SpanOpen, "synth"), doomed);
    assert_eq!(count(&rerun, EventKind::Quarantine, "job"), 0);

    // The rerun's library is byte-identical to a fault-free cold run's.
    let rerun_text = std::fs::read_to_string(dir.join("lib.txt")).expect("rerun library");
    let output = characterize(&["--no-cache".into()], &dir.join("reference.jsonl"));
    assert!(output.status.success(), "the fault-free run completes");
    let reference_text = std::fs::read_to_string(dir.join("lib.txt")).expect("reference");
    assert_eq!(rerun_text, reference_text);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiet_runs_are_silent_on_stderr() {
    let dir = scratch("quiet");
    for env_quiet in [false, true] {
        let mut cmd = aix();
        cmd.args(["characterize", "--kind", "adder", "--width", "4"]);
        cmd.arg("--no-cache");
        if env_quiet {
            cmd.env("AIX_QUIET", "1");
        } else {
            cmd.arg("--quiet");
        }
        let output = cmd.output().expect("spawn aix");
        assert!(output.status.success());
        assert!(
            output.stderr.is_empty(),
            "quiet run (env: {env_quiet}) must not write to stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            !output.stdout.is_empty(),
            "quiet silences progress, not results"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_summarize_renders_the_table_and_validates_strictly() {
    let dir = scratch("summarize");
    let cache = dir.join("cache");
    let trace = dir.join("run.jsonl");
    assert!(characterize_adder8(&cache, &trace, "2").status.success());

    // `--strict --no-record`: the table renders from a fully validated
    // trace without touching the benchmark log.
    let output = aix()
        .args(["trace", "summarize", "--strict", "--no-record", "--file"])
        .arg(&trace)
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in ["stage", "synth", "cache_miss", "quarantines: 0"] {
        assert!(stdout.contains(needle), "summary table must mention `{needle}`:\n{stdout}");
    }

    // Without `--no-record` the summary is appended to the benchmark log
    // (relative to the working directory) as a reparseable record.
    let output = aix()
        .args(["trace", "summarize", "--file"])
        .arg(&trace)
        .current_dir(&dir)
        .output()
        .expect("spawn aix");
    assert!(output.status.success());
    let bench = std::fs::read_to_string(dir.join("out/BENCH_characterize.json"))
        .expect("benchmark log written");
    let record = bench
        .lines()
        .map(str::trim)
        .find(|line| line.starts_with("{\"label\":\"trace:characterize\""))
        .expect("trace summary record present");
    aix::obs::parse_object(record.trim_end_matches(',')).expect("record is valid JSON");

    // A torn final line (a crash mid-append) is tolerated leniently but
    // rejected under --strict.
    let torn = dir.join("torn.jsonl");
    let mut text = std::fs::read_to_string(&trace).expect("trace");
    text.push_str("{\"seq\":9999,\"ev\":\"counter\",\"na");
    std::fs::write(&torn, text).expect("write torn trace");
    let lenient = aix()
        .args(["trace", "summarize", "--no-record", "--file"])
        .arg(&torn)
        .output()
        .expect("spawn aix");
    assert!(lenient.status.success());
    assert!(String::from_utf8_lossy(&lenient.stdout).contains("torn tail: yes"));
    let strict = aix()
        .args(["trace", "summarize", "--strict", "--no-record", "--file"])
        .arg(&torn)
        .output()
        .expect("spawn aix");
    assert!(!strict.status.success(), "--strict must reject a torn trace");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_candidate_spans_split_into_the_four_scoring_steps() {
    let dir = scratch("explore");
    let trace = dir.join("explore.jsonl");
    let output = aix()
        .args(["explore", "--kind", "adder", "--width", "8"])
        .args(["--budget", "12", "--vectors", "64"])
        .args(["--jobs", "1", "--no-cache"])
        .arg(format!("--trace={}", trace.display()))
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let events = events(&trace);

    // One job, so spans nest as a stack: collect each candidate span's
    // direct children in the order they open.
    let steps = [
        aix::obs::names::explore::SPAN_BUILD,
        aix::obs::names::explore::SPAN_OPTIMIZE,
        aix::obs::names::explore::SPAN_SIMULATE,
        aix::obs::names::explore::SPAN_STA,
    ];
    let mut stack: Vec<(&str, Vec<String>)> = Vec::new();
    let mut candidates = Vec::new();
    for event in &events {
        match event.kind {
            EventKind::SpanOpen => {
                if let Some((_, children)) = stack.last_mut() {
                    children.push(event.name.clone());
                }
                stack.push((event.name.as_str(), Vec::new()));
            }
            EventKind::SpanClose => {
                let (name, children) = stack.pop().expect("close pairs with an open span");
                assert_eq!(name, event.name, "spans close in stack order");
                if name == aix::obs::names::explore::SPAN_CANDIDATE {
                    candidates.push(children);
                }
            }
            _ => {}
        }
    }
    assert_eq!(candidates.len(), 12, "one span per scored candidate");
    for children in &candidates {
        assert_eq!(children, &steps, "candidate children in scoring order");
    }

    let output = aix()
        .args(["trace", "summarize", "--strict", "--no-record", "--file"])
        .arg(&trace)
        .output()
        .expect("spawn aix");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for step in steps {
        assert!(stdout.contains(step), "summary lacks `{step}`:\n{stdout}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn packed_words_count_one_per_batch_walked() {
    // 200 vectors are four 64-lane batches (the last partial) in one block
    // walk per candidate, so 12 candidates walk 48 batches.
    let dir = scratch("packed");
    let trace = dir.join("explore.jsonl");
    let output = aix()
        .args(["explore", "--kind", "adder", "--width", "8"])
        .args(["--budget", "12", "--vectors", "200"])
        .args(["--jobs", "1", "--no-cache"])
        .arg(format!("--trace={}", trace.display()))
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let summary = aix()
        .args(["trace", "summarize", "--strict", "--no-record", "--file"])
        .arg(&trace)
        .output()
        .expect("spawn aix");
    assert!(summary.status.success());
    let stdout = String::from_utf8_lossy(&summary.stdout);
    let total = stdout
        .lines()
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some(aix::obs::names::sim::PACKED_WORDS))
                .then(|| fields.next().expect("counter total"))
        })
        .unwrap_or_else(|| panic!("summary lacks packed_words:\n{stdout}"));
    assert_eq!(total, "48", "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}
