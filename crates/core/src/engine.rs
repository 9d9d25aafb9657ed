//! Parallel, persistently cached, fault-tolerant characterization engine.
//!
//! The paper's key economic argument is that the library of aging-induced
//! approximations is built *once* per component family and then reused at
//! the microarchitecture level with no further gate-level work (Fig. 3,
//! Fig. 6). This module makes that pre-characterization loop cheap,
//! measurable and robust:
//!
//! * **Job planner** — a [`CharacterizationConfig`] batch expands into
//!   independent `(kind, width, precision)` *synthesis jobs* and
//!   `(kind, width, precision, scenario)` *STA jobs*.
//! * **Work pool** — jobs self-schedule over [`std::thread::scope`] worker
//!   threads ([`parallel_map`]), with the thread count taken from an
//!   explicit option, the `AIX_JOBS` environment variable, or the machine's
//!   available parallelism.
//! * **Content-addressed cache** — per-synthesis-job results persist under
//!   a cache directory (default `out/cache/`), keyed by a fingerprint of
//!   (cell-library content hash, aging-model calibration, kind, width,
//!   precision, effort). A warm run skips synthesis and STA entirely.
//!   Corrupted, truncated or stale files are detected and fall back to
//!   re-synthesis — they can never poison results.
//! * **Fault containment** — every synthesis and STA job runs under a
//!   guard (panic isolation, an optional wall-clock watchdog, seeded
//!   retry with exponential backoff for transient I/O failures). A job
//!   that panics, hangs or exhausts its retries becomes a [`JobFailure`]
//!   in the campaign's report; the other jobs complete normally.
//! * **Crash-safe resume** — with a journal directory configured, the
//!   campaign appends a write-ahead journal (atomic temp-file + rename,
//!   like the cache) recording planned, done and failed jobs. A rerun
//!   with `resume` set skips completed work — even with caching off —
//!   and produces byte-identical library text.
//! * **Fault injection** — an [`aix_faults::FaultPlan`] (the `AIX_FAULT` /
//!   `--fault` grammar) deterministically injects panics, I/O errors and
//!   delays at synthesis, STA and cache sites, so all of the above is
//!   testable end to end.
//! * **Observability** — [`EngineReport`] carries per-stage wall-clock and
//!   cache/journal/retry counters; [`append_bench_record`] persists them as
//!   machine-readable `BENCH_characterize.json` so the perf trajectory of
//!   repeated runs is measurable. When a global `aix-obs` recorder is
//!   installed the campaign additionally emits a structured trace:
//!   `campaign`/`plan`/`synth_stage`/`sta_stage`/`merge` spans, per-job
//!   `synth`/`sta` spans, `cache_hit`/`cache_miss`/`journal_hit` counter
//!   events (in plan order, from sequential code — so warm-run traces are
//!   byte-identical for any worker count) and one `quarantine` event per
//!   [`JobFailure`], in merge order.
//!
//! The engine is deterministic: characterization output is byte-identical
//! for any job count, for cold versus warm caches, and for interrupted
//! runs resumed from the journal. Jobs never share mutable state; results
//! merge in planned order, and cached delays round-trip through the same
//! 6-decimal text format the [`ApproxLibrary`] serializes, which reformats
//! to identical bytes.
//!
//! # Examples
//!
//! ```
//! use aix_core::{CharacterizationConfig, CharacterizationEngine, ComponentKind, EngineOptions};
//! use aix_cells::Library;
//! use std::sync::Arc;
//!
//! let cells = Arc::new(Library::nangate45_like());
//! let engine = CharacterizationEngine::new(cells, EngineOptions::sequential());
//! let config = CharacterizationConfig::quick(ComponentKind::Adder, 8);
//! let (characterization, report) = engine.characterize(&config)?;
//! assert!(characterization.fresh_full_delay_ps() > 0.0);
//! assert_eq!(report.synth_executed, config.precisions.len());
//! # Ok::<(), aix_core::AixError>(())
//! ```

use crate::fsutil::write_atomic;
use crate::guard::{JobError, JobGuard};
use crate::journal::RunJournal;
use crate::library::{parse_scenario, scenario_token};
use crate::{
    AixError, ApproxLibrary, CharacterizationConfig, CharacterizationEntry,
    ComponentCharacterization, ComponentKind,
};
use aix_aging::{AgingModel, Calibration};
use aix_arith::ComponentSpec;
use aix_cells::Library;
use aix_faults::{FaultPlan, FaultStage};
use aix_netlist::Netlist;
use aix_obs::names::core as names;
use aix_obs::{fnv1a, FNV_OFFSET};
use aix_sta::{analyze, NetDelays};
use aix_synth::Effort;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the engine schedules, caches and fault-guards its jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// Worker threads; `0` resolves to `AIX_JOBS` or, failing that, the
    /// machine's available parallelism.
    pub jobs: usize,
    /// Directory of the persistent characterization cache; `None` disables
    /// on-disk caching.
    pub cache_dir: Option<PathBuf>,
    /// Directory of the write-ahead run journal; `None` disables
    /// journaling (and therefore resume).
    pub journal_dir: Option<PathBuf>,
    /// Whether to load a prior journal for the same campaign and skip jobs
    /// it records as done.
    pub resume: bool,
    /// Wall-clock watchdog per job attempt; `None` lets jobs run
    /// unbounded.
    pub job_timeout: Option<Duration>,
    /// Retry budget for *transient* job failures (I/O errors, timeouts).
    /// Panics and structural errors never retry.
    pub retries: usize,
    /// Base of the decorrelated-jitter retry backoff, in milliseconds.
    pub backoff_ms: u64,
    /// Upper bound on any single backoff sleep, in milliseconds; `0`
    /// leaves the backoff uncapped.
    pub backoff_cap_ms: u64,
    /// Deterministic fault-injection plan evaluated at synthesis, STA and
    /// cache sites; `None` injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl EngineOptions {
    /// One worker, no cache, no journal, no watchdog: the configuration
    /// that reproduces the historical sequential [`characterize_component`]
    /// behaviour exactly (it is also what that function now uses
    /// internally).
    ///
    /// [`characterize_component`]: crate::characterize_component
    pub fn sequential() -> Self {
        Self {
            jobs: 1,
            cache_dir: None,
            journal_dir: None,
            resume: false,
            job_timeout: None,
            retries: 0,
            backoff_ms: 0,
            backoff_cap_ms: 0,
            faults: None,
        }
    }

    /// The defaults the environment-driven constructors start from: jobs
    /// auto-resolved, cache and journal at their default locations, no
    /// watchdog, no retries (25 ms backoff base if retries are enabled),
    /// no fault injection.
    fn env_defaults() -> Self {
        Self {
            jobs: 0,
            cache_dir: Some(default_cache_dir()),
            journal_dir: Some(default_journal_dir()),
            resume: false,
            job_timeout: None,
            retries: 0,
            backoff_ms: 25,
            backoff_cap_ms: 10_000,
            faults: None,
        }
    }

    /// Honours the environment leniently: `AIX_JOBS`, `AIX_CACHE`,
    /// `AIX_JOURNAL`, `AIX_JOB_TIMEOUT`, `AIX_RETRIES`, `AIX_BACKOFF_MS`
    /// and `AIX_FAULT`, with unparseable values silently ignored. Prefer
    /// [`EngineOptions::from_env_strict`] anywhere a diagnostic can be
    /// surfaced.
    pub fn from_env() -> Self {
        let mut options = Self::env_defaults();
        if let Ok(value) = std::env::var("AIX_JOBS") {
            if let Ok(jobs) = parse_env_jobs(&value) {
                options.jobs = jobs;
            }
        }
        options.cache_dir = env_dir("AIX_CACHE", default_cache_dir);
        options.journal_dir = env_dir("AIX_JOURNAL", default_journal_dir);
        if let Ok(value) = std::env::var("AIX_JOB_TIMEOUT") {
            if let Ok(timeout) = parse_env_timeout("AIX_JOB_TIMEOUT", &value) {
                options.job_timeout = timeout;
            }
        }
        if let Ok(value) = std::env::var("AIX_RETRIES") {
            if let Ok(retries) = parse_env_count("AIX_RETRIES", &value) {
                options.retries = retries;
            }
        }
        if let Ok(value) = std::env::var("AIX_BACKOFF_MS") {
            if let Ok(backoff) = parse_env_count("AIX_BACKOFF_MS", &value) {
                options.backoff_ms = backoff as u64;
            }
        }
        if let Ok(value) = std::env::var("AIX_BACKOFF_CAP_MS") {
            if let Ok(cap) = parse_env_count("AIX_BACKOFF_CAP_MS", &value) {
                options.backoff_cap_ms = cap as u64;
            }
        }
        if let Ok(value) = std::env::var("AIX_FAULT") {
            if let Ok(plan) = parse_env_faults("AIX_FAULT", &value) {
                options.faults = Some(plan);
            }
        }
        options
    }

    /// Honours the same environment variables as
    /// [`EngineOptions::from_env`], but a malformed or out-of-range value
    /// is an error naming the variable — the same diagnostic shape the
    /// equivalent CLI flag produces — instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// Returns [`AixError::InvalidOption`] naming the offending variable.
    pub fn from_env_strict() -> Result<Self, AixError> {
        let mut options = Self::env_defaults();
        if let Ok(value) = std::env::var("AIX_JOBS") {
            options.jobs = parse_env_jobs(&value)?;
        }
        options.cache_dir = env_dir("AIX_CACHE", default_cache_dir);
        options.journal_dir = env_dir("AIX_JOURNAL", default_journal_dir);
        if let Ok(value) = std::env::var("AIX_JOB_TIMEOUT") {
            options.job_timeout = parse_env_timeout("AIX_JOB_TIMEOUT", &value)?;
        }
        if let Ok(value) = std::env::var("AIX_RETRIES") {
            options.retries = parse_env_count("AIX_RETRIES", &value)?;
        }
        if let Ok(value) = std::env::var("AIX_BACKOFF_MS") {
            options.backoff_ms = parse_env_count("AIX_BACKOFF_MS", &value)? as u64;
        }
        if let Ok(value) = std::env::var("AIX_BACKOFF_CAP_MS") {
            options.backoff_cap_ms = parse_env_count("AIX_BACKOFF_CAP_MS", &value)? as u64;
        }
        if let Ok(value) = std::env::var("AIX_FAULT") {
            options.faults = Some(parse_env_faults("AIX_FAULT", &value)?);
        }
        Ok(options)
    }

    /// The effective worker count: an explicit `jobs`, else `AIX_JOBS`,
    /// else the machine's available parallelism.
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        if let Some(jobs) = std::env::var("AIX_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j > 0)
        {
            return jobs;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// What [`FaultPlan`] values are expected to look like, for diagnostics.
pub const FAULT_GRAMMAR: &str = "`mode[:p=F,seed=N,stage=synth|sta|cache|import,ms=N]` specs \
     (mode panic|io|delay|shortwrite|enospc), `;`-separated";

/// Parses a worker-count value (`AIX_JOBS` / `--jobs`): a positive
/// integer.
pub(crate) fn parse_env_jobs(value: &str) -> Result<usize, AixError> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&jobs| jobs > 0)
        .ok_or_else(|| AixError::InvalidOption {
            flag: "AIX_JOBS",
            value: value.to_owned(),
            expected: "a positive integer",
        })
}

/// Parses a non-negative count (`AIX_RETRIES`, `AIX_BACKOFF_MS`).
pub(crate) fn parse_env_count(flag: &'static str, value: &str) -> Result<usize, AixError> {
    value
        .trim()
        .parse::<usize>()
        .map_err(|_| AixError::InvalidOption {
            flag,
            value: value.to_owned(),
            expected: "a non-negative integer",
        })
}

/// Parses a per-job timeout in (possibly fractional) seconds; `0`, `off`
/// and `none` disable the watchdog.
pub(crate) fn parse_env_timeout(
    flag: &'static str,
    value: &str,
) -> Result<Option<Duration>, AixError> {
    let trimmed = value.trim();
    if matches!(trimmed, "0" | "off" | "none") {
        return Ok(None);
    }
    trimmed
        .parse::<f64>()
        .ok()
        .filter(|secs| secs.is_finite() && *secs > 0.0)
        .map(|secs| Some(Duration::from_secs_f64(secs)))
        .ok_or_else(|| AixError::InvalidOption {
            flag,
            value: value.to_owned(),
            expected: "a positive number of seconds, or `off`",
        })
}

/// Parses a fault-injection plan (`AIX_FAULT` / `--fault`).
pub(crate) fn parse_env_faults(
    flag: &'static str,
    value: &str,
) -> Result<Arc<FaultPlan>, AixError> {
    value
        .parse::<FaultPlan>()
        .map(Arc::new)
        .map_err(|_| AixError::InvalidOption {
            flag,
            value: value.to_owned(),
            expected: FAULT_GRAMMAR,
        })
}

/// Resolves a directory-valued variable: `off`, `none` or `0` disable it,
/// any other value is the directory, unset falls back to `default`.
fn env_dir(name: &str, default: fn() -> PathBuf) -> Option<PathBuf> {
    match std::env::var(name) {
        Ok(value) if matches!(value.as_str(), "off" | "none" | "0") => None,
        Ok(value) => Some(PathBuf::from(value)),
        Err(_) => Some(default()),
    }
}

/// The default persistent cache location.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("out/cache")
}

/// The default write-ahead journal location.
pub fn default_journal_dir() -> PathBuf {
    PathBuf::from("out/journal")
}

/// The default path of the machine-readable characterization benchmark log.
pub fn default_bench_json_path() -> PathBuf {
    PathBuf::from("out/BENCH_characterize.json")
}

/// Runs `run` over `items` on up to `jobs` scoped worker threads and
/// returns the results *in item order*, regardless of which worker finished
/// first. Workers self-schedule from a shared index (work stealing over a
/// common queue), so an expensive item does not serialize the rest.
///
/// With `jobs <= 1` (or a single item) everything runs inline on the
/// calling thread — no spawn overhead for the sequential case.
///
/// A worker that observes a poisoned slot mutex recovers the value: slot
/// contents are plain `Option` moves, valid regardless of where a sibling
/// worker panicked, so one crashing job must not cascade into the others.
///
/// # Panics
///
/// Propagates panics from `run` once all workers have stopped.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.into_iter().map(run).collect();
    }
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = queue.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= queue.len() {
                    break;
                }
                let item = queue[index]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .take()
                    .expect("each item is claimed exactly once");
                *slots[index]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(run(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every item was processed")
        })
        .collect()
}

/// Thread-safe memoization of synthesized netlists, keyed by
/// `(kind, width, precision, effort)`. Synthesis is deterministic, so
/// concurrent duplicate synthesis is merely wasted work — the first result
/// stored wins and all callers observe identical netlists.
///
/// The engine shares one cache across a whole batch; re-verification
/// ([`aix-verify`]) reuses the same type so the full-width constraint
/// netlist is synthesized once per component rather than once per scenario.
///
/// A poisoned inner mutex is recovered, not propagated: the map holds only
/// complete `Arc<Netlist>` values (insertion is a single move), so a
/// panicking synthesis job on a sibling thread cannot leave it in an
/// inconsistent state — and must not take down every other worker.
///
/// [`aix-verify`]: crate#
#[derive(Debug, Default)]
pub struct NetlistCache {
    inner: Mutex<HashMap<SynthKey, Arc<Netlist>>>,
}

/// Memoization key of one synthesis job: `(kind, width, precision, effort)`.
type SynthKey = (ComponentKind, usize, usize, Effort);

impl NetlistCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct netlists held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// Whether no netlist has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Synthesizes `(kind, width, precision)` at `effort`, or returns the
    /// memoized netlist.
    ///
    /// # Errors
    ///
    /// Propagates invalid specs and synthesis failures as [`AixError`].
    pub fn synthesize(
        &self,
        cells: &Arc<Library>,
        kind: ComponentKind,
        width: usize,
        precision: usize,
        effort: Effort,
    ) -> Result<Arc<Netlist>, AixError> {
        let key = (kind, width, precision, effort);
        if let Some(hit) = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&key)
        {
            return Ok(Arc::clone(hit));
        }
        let spec = ComponentSpec::new(width, precision)?;
        let netlist = Arc::new(kind.synthesize(cells, spec, effort)?);
        let mut lock = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Ok(Arc::clone(lock.entry(key).or_insert(netlist)))
    }
}

/// Per-stage wall-clock and cache/fault counters of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineReport {
    /// Worker threads the run resolved to.
    pub jobs: usize,
    /// Synthesis jobs the planner expanded (one per precision per config).
    pub synth_planned: usize,
    /// Synthesis jobs actually executed (planned minus cache/journal hits).
    pub synth_executed: usize,
    /// STA passes executed (scenarios × executed synthesis jobs).
    pub sta_executed: usize,
    /// Synthesis jobs satisfied from the on-disk cache.
    pub cache_hits: usize,
    /// Synthesis jobs that consulted the cache and missed.
    pub cache_misses: usize,
    /// Synthesis jobs satisfied from a resumed run journal.
    pub journal_hits: usize,
    /// Extra job attempts spent on transient-failure retries.
    pub job_retries: usize,
    /// Jobs that exhausted their guard and were quarantined.
    pub job_failures: usize,
    /// Planning stage wall-clock, in milliseconds (includes cache probes).
    pub plan_ms: f64,
    /// Synthesis stage wall-clock, in milliseconds.
    pub synth_ms: f64,
    /// STA stage wall-clock, in milliseconds.
    pub sta_ms: f64,
    /// Merge/cache-writeback stage wall-clock, in milliseconds.
    pub merge_ms: f64,
    /// End-to-end wall-clock, in milliseconds.
    pub wall_ms: f64,
}

impl EngineReport {
    /// One human-readable summary line for CLI output.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} job(s) · {:.0} ms wall: {} synth planned, {} executed \
             ({} cache hit / {} miss), {} STA passes \
             [plan {:.0} · synth {:.0} · sta {:.0} · merge {:.0} ms]",
            self.jobs,
            self.wall_ms,
            self.synth_planned,
            self.synth_executed,
            self.cache_hits,
            self.cache_misses,
            self.sta_executed,
            self.plan_ms,
            self.synth_ms,
            self.sta_ms,
            self.merge_ms,
        );
        if self.journal_hits > 0 {
            let _ = write!(line, ", {} journal hit(s)", self.journal_hits);
        }
        if self.job_retries > 0 {
            let _ = write!(line, ", {} retry(ies)", self.job_retries);
        }
        if self.job_failures > 0 {
            let _ = write!(line, ", {} job(s) FAILED", self.job_failures);
        }
        line
    }

    /// The run as one machine-readable JSON object (a single line).
    pub fn to_json_record(&self, label: &str) -> String {
        format!(
            "{{\"label\":\"{}\",\"jobs\":{},\"wall_ms\":{:.3},\"plan_ms\":{:.3},\
             \"synth_ms\":{:.3},\"sta_ms\":{:.3},\"merge_ms\":{:.3},\
             \"synth_planned\":{},\"synth_executed\":{},\"sta_executed\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"journal_hits\":{},\
             \"job_retries\":{},\"job_failures\":{}}}",
            label.replace('\\', "\\\\").replace('"', "\\\""),
            self.jobs,
            self.wall_ms,
            self.plan_ms,
            self.synth_ms,
            self.sta_ms,
            self.merge_ms,
            self.synth_planned,
            self.synth_executed,
            self.sta_executed,
            self.cache_hits,
            self.cache_misses,
            self.journal_hits,
            self.job_retries,
            self.job_failures,
        )
    }

    /// Folds another report into this one (used when several engine runs
    /// make up one logical build, e.g. the bench library covering four
    /// components).
    pub fn absorb(&mut self, other: &EngineReport) {
        self.jobs = self.jobs.max(other.jobs);
        self.synth_planned += other.synth_planned;
        self.synth_executed += other.synth_executed;
        self.sta_executed += other.sta_executed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.journal_hits += other.journal_hits;
        self.job_retries += other.job_retries;
        self.job_failures += other.job_failures;
        self.plan_ms += other.plan_ms;
        self.synth_ms += other.synth_ms;
        self.sta_ms += other.sta_ms;
        self.merge_ms += other.merge_ms;
        self.wall_ms += other.wall_ms;
    }
}

/// One quarantined job of a campaign: which job, where it died, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Component kind of the failed synthesis job.
    pub kind: ComponentKind,
    /// Operand width of the failed job.
    pub width: usize,
    /// Precision of the failed job.
    pub precision: usize,
    /// Scenario token (e.g. `wc:10`) for STA-stage failures; `None` when
    /// synthesis itself failed.
    pub scenario: Option<String>,
    /// Stage the failure occurred in: `synth` or `sta`.
    pub stage: &'static str,
    /// Attempts spent before quarantining, including retries.
    pub attempts: usize,
    /// Human-readable cause (error display, panic message, or timeout).
    pub reason: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} w{} p{}", self.kind, self.width, self.precision)?;
        if let Some(token) = &self.scenario {
            write!(f, " @{token}")?;
        }
        write!(
            f,
            " [{}]: {} ({} attempt(s))",
            self.stage, self.reason, self.attempts
        )
    }
}

/// How completely a campaign ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Every planned job produced its entries.
    Complete,
    /// Some jobs failed; the healthy ones produced a usable partial
    /// library.
    Partial,
    /// Every planned job failed — nothing usable came out.
    Empty,
}

/// The outcome of a fault-tolerant characterization campaign: whatever
/// completed, plus a machine-readable account of whatever did not.
#[derive(Debug)]
pub struct Campaign {
    /// One characterization per config, in config order. A config whose
    /// jobs all failed yields an empty characterization (no entries).
    pub characterizations: Vec<ComponentCharacterization>,
    /// Stage timings and cache/journal/retry counters.
    pub report: EngineReport,
    /// Quarantined jobs, in planned order; empty for a clean run.
    pub failures: Vec<JobFailure>,
}

impl Campaign {
    /// Whether the campaign is complete, usable-but-partial, or empty.
    pub fn status(&self) -> CampaignStatus {
        if self.failures.is_empty() {
            CampaignStatus::Complete
        } else if self.failures.len() >= self.report.synth_planned {
            CampaignStatus::Empty
        } else {
            CampaignStatus::Partial
        }
    }

    /// Collects the healthy characterizations (those with at least one
    /// entry) into an [`ApproxLibrary`].
    pub fn library(&self) -> ApproxLibrary {
        let mut library = ApproxLibrary::new();
        for characterization in &self.characterizations {
            if !characterization.entries().is_empty() {
                library.insert(characterization.clone());
            }
        }
        library
    }
}

/// Appends one run record to the machine-readable benchmark log at `path`
/// (created if absent). The file is a JSON object with a `runs` array, one
/// record per engine run — comparing the wall-clock of consecutive records
/// shows the cold-versus-warm cache trajectory. The rewrite is atomic
/// (temp file + rename), so concurrent or killed runs cannot tear the log.
///
/// # Errors
///
/// Returns I/O errors from reading or writing the log.
pub fn append_bench_record(
    path: &Path,
    label: &str,
    report: &EngineReport,
) -> std::io::Result<()> {
    append_bench_json(path, report.to_json_record(label))
}

/// Appends one pre-rendered single-line JSON record (which must start with
/// `{"label"` to survive future rewrites) to the benchmark log at `path`.
/// This is the record-agnostic half of [`append_bench_record`], shared with
/// trace summaries and other non-engine records.
///
/// # Errors
///
/// Returns I/O errors from reading or writing the log.
pub fn append_bench_json(path: &Path, record: String) -> std::io::Result<()> {
    // Existing records are one per line; carry them over verbatim.
    let mut records: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|line| line.starts_with("{\"label\""))
            .map(|line| line.trim_end_matches(',').to_owned())
            .collect(),
        Err(_) => Vec::new(),
    };
    records.push(record);
    let mut out = String::from("{\n  \"schema\": \"aix-bench-characterize/v1\",\n  \"runs\": [\n");
    for (index, record) in records.iter().enumerate() {
        let comma = if index + 1 < records.len() { "," } else { "" };
        let _ = writeln!(out, "    {record}{comma}");
    }
    out.push_str("  ]\n}\n");
    write_atomic(path, &out)
}

/// The parallel, persistently cached characterization engine.
///
/// Construction snapshots the content fingerprint of the cell library and
/// the aging-model calibration; every cache probe and write is keyed
/// against it, so a retuned cell or recalibrated model can never serve
/// stale delays.
#[derive(Debug)]
pub struct CharacterizationEngine {
    cells: Arc<Library>,
    options: EngineOptions,
    netlists: Arc<NetlistCache>,
    fingerprint_base: u64,
}

/// Where and why one planned job failed, keyed by plan index until the
/// merge stage turns it into a [`JobFailure`].
struct FailureInfo {
    stage: &'static str,
    scenario: Option<String>,
    attempts: usize,
    reason: String,
}

impl From<(&'static str, Option<String>, JobError)> for FailureInfo {
    fn from((stage, scenario, error): (&'static str, Option<String>, JobError)) -> Self {
        Self {
            stage,
            scenario,
            attempts: error.attempts,
            reason: error.reason,
        }
    }
}

impl CharacterizationEngine {
    /// Creates an engine over `cells` with the given scheduling options.
    pub fn new(cells: Arc<Library>, options: EngineOptions) -> Self {
        // The part of every cache fingerprint shared by all jobs: the cell
        // library's content hash and the aging calibration token.
        let fingerprint_base = fnv1a(
            fnv1a(FNV_OFFSET, &cells.content_hash().to_le_bytes()),
            Calibration::default().fingerprint_token().as_bytes(),
        );
        Self {
            cells,
            options,
            netlists: Arc::new(NetlistCache::new()),
            fingerprint_base,
        }
    }

    /// The engine's scheduling options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The in-process netlist memoization this engine populates.
    pub fn netlists(&self) -> &NetlistCache {
        &self.netlists
    }

    /// Characterizes one component, treating any job failure as an error.
    ///
    /// # Errors
    ///
    /// Propagates synthesis/STA errors and invalid precision specs; a
    /// quarantined job surfaces as [`AixError::CampaignIncomplete`]. Use
    /// [`CharacterizationEngine::characterize_campaign`] to keep partial
    /// results instead.
    pub fn characterize(
        &self,
        config: &CharacterizationConfig,
    ) -> Result<(ComponentCharacterization, EngineReport), AixError> {
        let campaign = self.characterize_campaign(std::slice::from_ref(config));
        require_complete(&campaign)?;
        let mut characterizations = campaign.characterizations;
        Ok((
            characterizations.pop().expect("one config yields one result"),
            campaign.report,
        ))
    }

    /// Characterizes a batch of components into an [`ApproxLibrary`],
    /// scheduling every synthesis and STA job of the whole batch over one
    /// shared pool and treating any job failure as an error.
    ///
    /// # Errors
    ///
    /// Propagates synthesis/STA errors and invalid precision specs; a
    /// quarantined job surfaces as [`AixError::CampaignIncomplete`]. Use
    /// [`CharacterizationEngine::characterize_campaign`] to keep partial
    /// results instead.
    pub fn characterize_all(
        &self,
        configs: &[CharacterizationConfig],
    ) -> Result<(ApproxLibrary, EngineReport), AixError> {
        let campaign = self.characterize_campaign(configs);
        require_complete(&campaign)?;
        Ok((campaign.library(), campaign.report))
    }

    /// The cache fingerprint of one synthesis job.
    fn fingerprint(
        &self,
        kind: ComponentKind,
        width: usize,
        precision: usize,
        effort: Effort,
    ) -> u64 {
        let mut hash = fnv1a(self.fingerprint_base, kind.label().as_bytes());
        hash = fnv1a(hash, &(width as u64).to_le_bytes());
        hash = fnv1a(hash, &(precision as u64).to_le_bytes());
        fnv1a(hash, effort.token().as_bytes())
    }

    /// The per-job guard assembled from the engine options.
    fn guard(&self) -> JobGuard {
        JobGuard {
            timeout: self.options.job_timeout,
            retries: self.options.retries,
            backoff_ms: self.options.backoff_ms,
            backoff_cap_ms: self.options.backoff_cap_ms,
            faults: self.options.faults.clone(),
        }
    }

    /// Evaluates cache-stage fault injection at `site`. An injected I/O
    /// error or panic here degrades the probe/writeback to a miss/skip —
    /// exactly how a real unreadable cache behaves — and never fails the
    /// job.
    fn cache_fault_ok(&self, site: &str) -> bool {
        let Some(plan) = &self.options.faults else {
            return true;
        };
        catch_unwind(AssertUnwindSafe(|| {
            plan.check(FaultStage::Cache, site, 1).is_ok()
        }))
        .unwrap_or(false)
    }

    /// Runs the whole batch as a fault-tolerant campaign: every synthesis
    /// and STA job is panic-isolated, watchdog-bounded and retried per the
    /// engine options; completed jobs land in the write-ahead journal (when
    /// configured) so an interrupted campaign resumes without recomputing;
    /// quarantined jobs are reported, not fatal.
    pub fn characterize_campaign(&self, configs: &[CharacterizationConfig]) -> Campaign {
        let wall = Instant::now();
        let jobs = self.options.resolved_jobs();
        let model = Arc::new(AgingModel::calibrated());
        let mut report = EngineReport {
            jobs,
            ..EngineReport::default()
        };
        // The resolved worker count is deliberately absent from every trace
        // event: all events outside the worker pools are emitted from
        // sequential code, so a warm (all-hit) run's trace is byte-identical
        // for any `--jobs` value.
        let campaign_span = aix_obs::span!(names::SPAN_CAMPAIGN, configs = configs.len());

        // Plan: one synthesis job per (config, precision), probing the
        // on-disk cache. A hit must cover every requested scenario.
        let plan_start = Instant::now();
        let plan_span = aix_obs::span!(names::SPAN_PLAN);
        let config_tokens: Vec<Vec<String>> = configs
            .iter()
            .map(|config| {
                config
                    .scenarios
                    .iter()
                    .map(|&s| scenario_token(s.into()))
                    .collect()
            })
            .collect();
        struct SynthJob {
            config_index: usize,
            precision: usize,
            fingerprint: u64,
            cache_path: Option<PathBuf>,
            key_line: String,
            site: String,
            /// Valid prior entries found on disk or in the journal
            /// (token → delay). Used as the result on a full hit and
            /// merged into the writeback on a partial one.
            prior: BTreeMap<String, f64>,
            /// Whether `prior` covers every requested scenario.
            hit: bool,
            /// Whether the hit came from the resumed journal rather than
            /// the cache.
            journal_hit: bool,
        }
        let mut plan: Vec<SynthJob> = Vec::new();
        let mut campaign_fp = self.fingerprint_base;
        for (config_index, config) in configs.iter().enumerate() {
            let tokens = &config_tokens[config_index];
            for &precision in &config.precisions {
                let fingerprint =
                    self.fingerprint(config.kind, config.width, precision, config.effort);
                campaign_fp = fnv1a(campaign_fp, &fingerprint.to_le_bytes());
                for token in tokens {
                    campaign_fp = fnv1a(campaign_fp, token.as_bytes());
                }
                let site = format!(
                    "{}-w{}-p{}-{}",
                    config.kind, config.width, precision, config.effort,
                );
                let key_line = format!(
                    "key {} {} {} {} {fingerprint:016x}",
                    config.kind, config.width, precision, config.effort,
                );
                let cache_path = self
                    .options
                    .cache_dir
                    .as_ref()
                    .map(|dir| dir.join(format!("{site}-{fingerprint:016x}.lib")));
                let prior = cache_path
                    .as_ref()
                    .filter(|_| self.cache_fault_ok(&format!("read {site}")))
                    .and_then(|path| read_cache_entries(path, &key_line, precision))
                    .unwrap_or_default();
                let hit = !tokens.is_empty() && tokens.iter().all(|t| prior.contains_key(t));
                if cache_path.is_some() {
                    if hit {
                        report.cache_hits += 1;
                        aix_obs::count!(names::CACHE_HIT, job = &site);
                    } else {
                        report.cache_misses += 1;
                        aix_obs::count!(names::CACHE_MISS, job = &site);
                    }
                }
                plan.push(SynthJob {
                    config_index,
                    precision,
                    fingerprint,
                    cache_path,
                    key_line,
                    site,
                    prior,
                    hit,
                    journal_hit: false,
                });
            }
        }
        report.synth_planned = plan.len();

        // Write-ahead journal: open (loading prior progress on resume) and
        // record the plan before any job runs. Jobs a prior run completed
        // are hits served from the journal — independent of the cache.
        let mut journal = self
            .options
            .journal_dir
            .as_ref()
            .map(|dir| RunJournal::open(dir, campaign_fp, self.options.resume));
        if let Some(journal) = &mut journal {
            for job in &mut plan {
                if job.hit {
                    continue;
                }
                let tokens = &config_tokens[job.config_index];
                if let Some(entries) = journal.completed(job.fingerprint, tokens) {
                    job.prior = entries.clone();
                    job.hit = true;
                    job.journal_hit = true;
                    report.journal_hits += 1;
                    aix_obs::count!(names::JOURNAL_HIT, job = &job.site);
                }
            }
            journal.record_plan(plan.len());
        }
        report.plan_ms = elapsed_ms(plan_start);
        plan_span.close();
        aix_obs::gauge!(names::SYNTH_PLANNED, report.synth_planned as f64);

        // Synthesis stage: pool over the misses, each job under the guard.
        // Results keep plan order, so failures are deterministic under any
        // job count.
        let synth_start = Instant::now();
        let to_synthesize: Vec<usize> = plan
            .iter()
            .enumerate()
            .filter(|(_, job)| !job.hit)
            .map(|(index, _)| index)
            .collect();
        report.synth_executed = to_synthesize.len();
        let synth_span = aix_obs::span!(names::SPAN_SYNTH_STAGE, executed = report.synth_executed);
        let guard = self.guard();
        let synthesized_list = parallel_map(jobs, to_synthesize, |index| {
            let job = &plan[index];
            let config = &configs[job.config_index];
            let (kind, width, precision, effort) =
                (config.kind, config.width, job.precision, config.effort);
            let _job_span = aix_obs::span!(
                names::SPAN_SYNTH,
                job = &job.site,
                kind = config.kind.label(),
                width = width,
                precision = precision,
            );
            let outcome = guard.run(FaultStage::Synth, &job.site, || {
                let cells = Arc::clone(&self.cells);
                let netlists = Arc::clone(&self.netlists);
                move || netlists.synthesize(&cells, kind, width, precision, effort)
            });
            (index, outcome)
        });
        let mut netlists: HashMap<usize, Arc<Netlist>> = HashMap::new();
        let mut failed: HashMap<usize, FailureInfo> = HashMap::new();
        for (index, outcome) in synthesized_list {
            match outcome {
                Ok((netlist, attempts)) => {
                    report.job_retries += attempts - 1;
                    netlists.insert(index, netlist);
                }
                Err(error) => {
                    report.job_retries += error.attempts - 1;
                    failed.insert(index, ("synth", None, error).into());
                }
            }
        }
        report.synth_ms = elapsed_ms(synth_start);
        synth_span.close();

        // STA stage: one guarded job per (synthesized precision, scenario).
        // Jobs whose synthesis was quarantined are skipped outright.
        let sta_start = Instant::now();
        let sta_plan: Vec<(usize, usize)> = plan
            .iter()
            .enumerate()
            .filter(|(index, job)| !job.hit && netlists.contains_key(index))
            .flat_map(|(index, job)| {
                (0..configs[job.config_index].scenarios.len()).map(move |s| (index, s))
            })
            .collect();
        report.sta_executed = sta_plan.len();
        let sta_span = aix_obs::span!(names::SPAN_STA_STAGE, executed = report.sta_executed);
        let delays_list = parallel_map(jobs, sta_plan, |(index, scenario_index)| {
            let job = &plan[index];
            let config = &configs[job.config_index];
            let scenario = config.scenarios[scenario_index];
            let site = format!("{}@{}", job.site, config_tokens[job.config_index][scenario_index]);
            let _job_span = aix_obs::span!(
                names::SPAN_STA,
                job = &site,
                kind = config.kind.label(),
                width = config.width,
                precision = job.precision,
            );
            let outcome = guard.run(FaultStage::Sta, &site, || {
                let netlist = Arc::clone(&netlists[&index]);
                let model = Arc::clone(&model);
                move || {
                    let delays = NetDelays::aged(&netlist, &model, scenario);
                    analyze(&netlist, &delays)
                        .map(|r| quantize_ps(r.max_delay_ps()))
                        .map_err(AixError::from)
                }
            });
            ((index, scenario_index), outcome)
        });
        let mut delays: HashMap<(usize, usize), f64> = HashMap::new();
        for ((index, scenario_index), outcome) in delays_list {
            match outcome {
                Ok((delay, attempts)) => {
                    report.job_retries += attempts - 1;
                    delays.insert((index, scenario_index), delay);
                }
                Err(error) => {
                    report.job_retries += error.attempts - 1;
                    // The first failing scenario (in scenario order) names
                    // the job's quarantine; later failures add nothing.
                    let token = config_tokens[plan[index].config_index][scenario_index].clone();
                    let entry = failed.entry(index);
                    use std::collections::hash_map::Entry;
                    match entry {
                        Entry::Vacant(slot) => {
                            slot.insert(("sta", Some(token), error).into());
                        }
                        Entry::Occupied(mut slot) => {
                            // Deterministic pick: the smallest scenario
                            // token index wins regardless of worker order.
                            let tokens = &config_tokens[plan[index].config_index];
                            let existing = slot
                                .get()
                                .scenario
                                .as_ref()
                                .and_then(|t| tokens.iter().position(|x| x == t))
                                .unwrap_or(0);
                            if slot.get().stage == "sta" && scenario_index < existing {
                                slot.insert(("sta", Some(token), error).into());
                            }
                        }
                    }
                }
            }
        }
        report.sta_ms = elapsed_ms(sta_start);
        sta_span.close();

        // Merge in planned order — deterministic for any job count — and
        // write misses back to the cache and journal (best effort; a
        // read-only directory degrades to cold runs, never to an error).
        let merge_start = Instant::now();
        let merge_span = aix_obs::span!(names::SPAN_MERGE);
        let mut out: Vec<ComponentCharacterization> = configs
            .iter()
            .map(|c| ComponentCharacterization::new(c.kind, c.width, c.effort))
            .collect();
        let mut failures: Vec<JobFailure> = Vec::new();
        for (index, job) in plan.iter().enumerate() {
            let config = &configs[job.config_index];
            if let Some(info) = failed.remove(&index) {
                if let Some(journal) = &mut journal {
                    journal.record_failed(
                        job.fingerprint,
                        info.stage,
                        info.attempts,
                        &info.reason,
                    );
                }
                // Quarantine events mirror `JobFailure` records one-to-one,
                // in the same (planned) order, so the trace and the
                // campaign report can be cross-checked.
                aix_obs::quarantine!(
                    names::QUARANTINE_JOB,
                    job = &job.site,
                    stage = info.stage,
                    attempts = info.attempts,
                );
                failures.push(JobFailure {
                    kind: config.kind,
                    width: config.width,
                    precision: job.precision,
                    scenario: info.scenario,
                    stage: info.stage,
                    attempts: info.attempts,
                    reason: info.reason,
                });
                continue;
            }
            if job.hit {
                for &scenario in &config.scenarios {
                    let token = scenario_token(scenario.into());
                    out[job.config_index].add_entry(CharacterizationEntry {
                        precision: job.precision,
                        scenario: scenario.into(),
                        delay_ps: job.prior[&token],
                    });
                }
                if let Some(journal) = &mut journal {
                    journal.record_done(job.fingerprint, job.precision, &job.prior);
                }
                // A journal hit still warms the cache for future runs.
                if job.journal_hit {
                    if let Some(path) = &job.cache_path {
                        if self.cache_fault_ok(&format!("write {}", job.site)) {
                            let _ = write_cache_entries(
                                path,
                                &job.key_line,
                                job.precision,
                                &job.prior,
                            );
                        }
                    }
                }
                continue;
            }
            let mut writeback = job.prior.clone();
            for (scenario_index, &scenario) in config.scenarios.iter().enumerate() {
                let delay_ps = delays[&(index, scenario_index)];
                out[job.config_index].add_entry(CharacterizationEntry {
                    precision: job.precision,
                    scenario: scenario.into(),
                    delay_ps,
                });
                writeback.insert(scenario_token(scenario.into()), delay_ps);
            }
            if let Some(path) = &job.cache_path {
                if self.cache_fault_ok(&format!("write {}", job.site)) {
                    let _ = write_cache_entries(path, &job.key_line, job.precision, &writeback);
                }
            }
            if let Some(journal) = &mut journal {
                journal.record_done(job.fingerprint, job.precision, &writeback);
            }
        }
        for characterization in &mut out {
            characterization.enforce_synthesis_monotonicity();
        }
        report.job_failures = failures.len();
        report.merge_ms = elapsed_ms(merge_start);
        merge_span.close();
        report.wall_ms = elapsed_ms(wall);
        campaign_span.close();
        Campaign {
            characterizations: out,
            report,
            failures,
        }
    }
}

/// Maps a campaign with failures to [`AixError::CampaignIncomplete`] for
/// the all-or-nothing entry points.
fn require_complete(campaign: &Campaign) -> Result<(), AixError> {
    match campaign.failures.first() {
        None => Ok(()),
        Some(first) => Err(AixError::CampaignIncomplete {
            failed: campaign.failures.len(),
            planned: campaign.report.synth_planned,
            first: first.to_string(),
        }),
    }
}

fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Quantizes a delay to the 6-decimal (sub-femtosecond) resolution of the
/// library text format. Computed delays pass through the same rounding as
/// delays reloaded from the cache, so characterizations are bit-identical
/// in memory — not merely in serialized form — whether a run was cold,
/// warm or mixed. The running minimum of the monotonicity pass commutes
/// with this monotone rounding, so enforcement order cannot reintroduce a
/// difference.
fn quantize_ps(delay: f64) -> f64 {
    format!("{delay:.6}")
        .parse()
        .expect("fixed-decimal formatting always reparses")
}

const CACHE_HEADER: &str = "aix-charcache v1";

/// Reads and validates one cache file. Returns the entries (scenario token
/// → delay) only when the file is intact *and* its key line matches
/// `expected_key` — a stale fingerprint, wrong component, truncated file or
/// any malformed line yields `None`, which the planner treats as a miss.
fn read_cache_entries(
    path: &Path,
    expected_key: &str,
    precision: usize,
) -> Option<BTreeMap<String, f64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()?.trim() != CACHE_HEADER {
        return None;
    }
    if lines.next()?.trim() != expected_key {
        return None;
    }
    let mut entries = BTreeMap::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        if fields.next() != Some("entry") {
            return None;
        }
        let entry_precision: usize = fields.next()?.parse().ok()?;
        if entry_precision != precision {
            return None;
        }
        let token = fields.next()?;
        parse_scenario(token)?;
        let delay: f64 = fields.next()?.parse().ok()?;
        if !delay.is_finite() || delay < 0.0 {
            return None;
        }
        entries.insert(token.to_owned(), delay);
    }
    Some(entries)
}

/// Writes one cache file atomically (temp file + rename), using the same
/// 6-decimal delay format as [`ApproxLibrary::to_text`] so cached delays
/// reformat to byte-identical library text.
fn write_cache_entries(
    path: &Path,
    key_line: &str,
    precision: usize,
    entries: &BTreeMap<String, f64>,
) -> std::io::Result<()> {
    let mut text = format!("{CACHE_HEADER}\n{key_line}\n");
    for (token, delay) in entries {
        let _ = writeln!(text, "entry {precision} {token} {delay:.6}");
    }
    write_atomic(path, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CharacterizationScenario;
    use aix_aging::{AgingScenario, Lifetime};

    fn cells() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        for jobs in [1, 2, 4, 9] {
            let doubled = parallel_map(jobs, (0..50).collect(), |x: i32| x * 2);
            assert_eq!(doubled, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<i32> = parallel_map(4, Vec::new(), |x: i32| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn fingerprints_separate_every_key_dimension() {
        let engine = CharacterizationEngine::new(cells(), EngineOptions::sequential());
        let base = engine.fingerprint(ComponentKind::Adder, 16, 12, Effort::Ultra);
        for other in [
            engine.fingerprint(ComponentKind::Mac, 16, 12, Effort::Ultra),
            engine.fingerprint(ComponentKind::Adder, 32, 12, Effort::Ultra),
            engine.fingerprint(ComponentKind::Adder, 16, 11, Effort::Ultra),
            engine.fingerprint(ComponentKind::Adder, 16, 12, Effort::Medium),
        ] {
            assert_ne!(base, other);
        }
        // Stable across engines over the same cells and calibration.
        let again = CharacterizationEngine::new(cells(), EngineOptions::sequential());
        assert_eq!(
            base,
            again.fingerprint(ComponentKind::Adder, 16, 12, Effort::Ultra)
        );
    }

    #[test]
    fn netlist_cache_memoizes() {
        let cells = cells();
        let cache = NetlistCache::new();
        let a = cache
            .synthesize(&cells, ComponentKind::Adder, 8, 8, Effort::Medium)
            .unwrap();
        let b = cache
            .synthesize(&cells, ComponentKind::Adder, 8, 8, Effort::Medium)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup is memoized");
        assert_eq!(cache.len(), 1);
        cache
            .synthesize(&cells, ComponentKind::Adder, 8, 6, Effort::Medium)
            .unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn engine_matches_sequential_characterization() {
        let cells = cells();
        let config = CharacterizationConfig::quick(ComponentKind::Adder, 12);
        let engine = CharacterizationEngine::new(Arc::clone(&cells), EngineOptions::sequential());
        let (c, report) = engine.characterize(&config).unwrap();
        assert_eq!(report.synth_planned, config.precisions.len());
        assert_eq!(report.synth_executed, config.precisions.len());
        assert_eq!(
            report.sta_executed,
            config.precisions.len() * config.scenarios.len()
        );
        assert_eq!(report.cache_hits + report.cache_misses, 0, "no cache dir");
        assert_eq!(report.journal_hits, 0, "no journal dir");
        assert_eq!(report.job_failures, 0);
        let aged = c
            .delay_ps(
                12,
                CharacterizationScenario::Uniform(AgingScenario::worst_case(Lifetime::YEARS_10)),
            )
            .unwrap();
        assert!(aged > c.fresh_full_delay_ps());
    }

    #[test]
    fn bench_record_json_accumulates_runs() {
        let dir = std::env::temp_dir().join(format!("aix-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_characterize.json");
        let report = EngineReport {
            jobs: 2,
            wall_ms: 12.5,
            ..EngineReport::default()
        };
        append_bench_record(&path, "cold", &report).unwrap();
        append_bench_record(&path, "warm \"quoted\"", &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"aix-bench-characterize/v1\""));
        assert_eq!(text.matches("{\"label\"").count(), 2);
        assert!(text.contains("\"label\":\"cold\""));
        assert!(text.contains("warm \\\"quoted\\\""));
        assert!(text.contains("\"wall_ms\":12.500"));
        assert!(text.contains("\"job_failures\":0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_value_parsers_accept_and_reject() {
        assert_eq!(parse_env_jobs("4").unwrap(), 4);
        for bad in ["0", "-1", "lots", ""] {
            let err = parse_env_jobs(bad).unwrap_err();
            assert!(
                matches!(err, AixError::InvalidOption { flag: "AIX_JOBS", .. }),
                "`{bad}` must name AIX_JOBS"
            );
        }
        assert_eq!(parse_env_count("AIX_RETRIES", "0").unwrap(), 0);
        assert_eq!(parse_env_count("AIX_RETRIES", "3").unwrap(), 3);
        assert!(parse_env_count("AIX_RETRIES", "never").is_err());
        assert_eq!(parse_env_timeout("AIX_JOB_TIMEOUT", "off").unwrap(), None);
        assert_eq!(parse_env_timeout("AIX_JOB_TIMEOUT", "0").unwrap(), None);
        assert_eq!(
            parse_env_timeout("AIX_JOB_TIMEOUT", "1.5").unwrap(),
            Some(Duration::from_millis(1500))
        );
        assert!(parse_env_timeout("AIX_JOB_TIMEOUT", "-2").is_err());
        assert!(parse_env_timeout("AIX_JOB_TIMEOUT", "soon").is_err());
        assert!(parse_env_faults("AIX_FAULT", "panic:p=0.1,seed=3").is_ok());
        let err = parse_env_faults("AIX_FAULT", "explode").unwrap_err();
        assert!(err.to_string().contains("AIX_FAULT"));
    }
}
