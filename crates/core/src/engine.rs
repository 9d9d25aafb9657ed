//! Parallel, persistently cached, fault-tolerant characterization engine.
//!
//! The paper's key economic argument is that the library of aging-induced
//! approximations is built *once* per component family and then reused at
//! the microarchitecture level with no further gate-level work (Fig. 3,
//! Fig. 6). This module makes that pre-characterization loop cheap,
//! measurable and robust:
//!
//! * **Job planner** — a [`CharacterizationConfig`] batch expands into
//!   independent `(kind, width, precision)` *jobs*, one per unit of the
//!   paper's pre-characterization: synthesize the component once, then
//!   run aging-aware STA at each of the config's scenarios.
//! * **Work pool** — the jobs that miss the cache self-schedule over
//!   [`std::thread::scope`] worker threads ([`parallel_map`]), with the
//!   thread count taken from [`EngineOptions::jobs`] or, when that is `0`,
//!   the machine's available parallelism. Each job holds its netlist only
//!   while it runs.
//! * **Content-addressed cache** — per-synthesis-job results persist under
//!   a cache directory (default `out/cache/`), keyed by a fingerprint of
//!   (cell-library content hash, aging-model calibration, kind, width,
//!   precision, effort). A warm run skips synthesis and STA entirely.
//!   Corrupted, truncated or stale files are detected and fall back to
//!   re-synthesis — they can never poison results.
//! * **Fault containment** — every job's synthesis and each of its STA
//!   passes runs once under [`run_guarded`], in scenario order. A job
//!   whose synthesis or STA pass panics or errors stops there and becomes
//!   a [`JobFailure`] naming that stage (and the first failing scenario);
//!   the other jobs complete normally.
//! * **Rerun is resume** — each finished job is written to the cache as
//!   the campaign merges it, so a rerun after a partial or interrupted
//!   campaign serves the finished jobs from the cache, synthesizes only
//!   the rest, and produces byte-identical library text.
//! * **Fault injection** — an [`aix_faults::FaultPlan`] (the `--fault` /
//!   `AIX_FAULT` grammar) deterministically injects panics, I/O errors,
//!   delays and torn writes at synthesis, STA and cache sites and at every
//!   cache write, so all of the above is testable end to end.
//! * **Settings** — [`EngineOptions::resolve`] reads every setting by one
//!   rule: its flag, else its variable, else its default.
//! * **Observability** — [`EngineReport`] carries the campaign's
//!   end-to-end wall clock and its cache, STA-pass and failure counters;
//!   [`EngineReport::to_json_record`] renders them as the machine-readable
//!   record the CLI appends to `BENCH_characterize.json`. Stage and job
//!   times come from the `aix-obs` trace alone: when a global recorder is
//!   installed the campaign emits `campaign`/`plan`/`jobs`/`merge` spans,
//!   per-job `synth` and per-pass `sta` spans, `cache_hit`/`cache_miss`
//!   counter events (in plan order, from sequential code — so warm-run
//!   traces are byte-identical for any worker count) and one `quarantine`
//!   event per [`JobFailure`], in merge order.
//!
//! The engine is deterministic: characterization output is byte-identical
//! for any job count, for cold versus warm caches, and for a partial run
//! finished by a rerun. Jobs never share mutable state; results
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
use crate::guard::run_guarded;
use crate::library::{parse_scenario, scenario_token};
use crate::{
    AixError, ApproxLibrary, CharacterizationConfig, CharacterizationEntry,
    ComponentCharacterization, ComponentKind,
};
use aix_aging::{AgingModel, Calibration};
use aix_arith::ComponentSpec;
use aix_cells::Library;
use aix_faults::{FaultPlan, FaultStage};
use aix_obs::names::core as names;
use aix_obs::{fnv1a, FNV_OFFSET};
use aix_sta::{analyze, NetDelays};
use aix_synth::Effort;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the engine schedules and caches its jobs, and which faults it
/// injects.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// Worker threads; `0` resolves to the machine's available
    /// parallelism.
    pub jobs: usize,
    /// Directory of the persistent characterization cache; `None` disables
    /// on-disk caching.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic fault-injection plan evaluated at synthesis, STA and
    /// cache sites and at every cache write; `None` injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl EngineOptions {
    /// One worker, no cache, no faults: the configuration
    /// that reproduces the historical sequential [`characterize_component`]
    /// behaviour exactly (it is also what that function now uses
    /// internally).
    ///
    /// [`characterize_component`]: crate::characterize_component
    pub fn sequential() -> Self {
        Self {
            jobs: 1,
            cache_dir: None,
            faults: None,
        }
    }

    /// Resolves every setting by one rule: its flag, else its variable,
    /// else its default, with one parser per value type for both sources.
    /// `flag` looks a setting up by its flag name (`--jobs`) and `var` by
    /// its variable name (`AIX_JOBS`): the CLI passes its parsed flags and
    /// the process environment, the figure binaries no flags. README's
    /// engine-settings table lists every setting.
    ///
    /// # Errors
    ///
    /// A malformed value is an [`AixError::InvalidOption`] naming the
    /// flag or the variable that supplied it.
    pub fn resolve(
        flag: impl Fn(&'static str) -> Option<String>,
        var: impl Fn(&'static str) -> Option<String>,
    ) -> Result<Self, AixError> {
        let get = |flag_name, var_name| match flag(flag_name) {
            Some(value) => Some((flag_name, value)),
            None => var(var_name).map(|value| (var_name, value)),
        };
        Ok(Self {
            jobs: setting(get("--jobs", "AIX_JOBS"), parse_count, 0)?,
            cache_dir: setting(
                get("--cache", "AIX_CACHE"),
                parse_dir,
                Some(default_cache_dir()),
            )?,
            faults: setting(get("--fault", "AIX_FAULT"), parse_faults, None)?,
        })
    }

    /// The effective worker count: `jobs`, or the machine's available
    /// parallelism when `jobs` is `0`.
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Parses a setting found as `(source, value)` with `parse`; `default`
/// when it is unset. A malformed value is an error naming its source.
fn setting<T>(
    found: Option<(&'static str, String)>,
    parse: fn(&str) -> Result<T, &'static str>,
    default: T,
) -> Result<T, AixError> {
    let Some((source, value)) = found else {
        return Ok(default);
    };
    parse(&value).map_err(|expected| AixError::InvalidOption {
        flag: source,
        value,
        expected,
    })
}

/// Parses a count. The error is what was expected, for diagnostics.
fn parse_count<T: std::str::FromStr>(value: &str) -> Result<T, &'static str> {
    value.trim().parse().map_err(|_| "a non-negative integer")
}

/// Parses a directory: `off`, `none` or `0` disable it.
fn parse_dir(value: &str) -> Result<Option<PathBuf>, &'static str> {
    Ok(match value {
        "off" | "none" | "0" => None,
        dir => Some(PathBuf::from(dir)),
    })
}

/// Parses a wall-clock budget in (possibly fractional) seconds; `0`,
/// `off` and `none` disable it. The error is what was expected, for
/// diagnostics.
///
/// # Errors
///
/// Returns the expected form when `value` is not a positive number of
/// seconds.
pub fn parse_timeout(value: &str) -> Result<Option<Duration>, &'static str> {
    match value.trim() {
        "0" | "off" | "none" => Ok(None),
        secs => secs
            .parse::<f64>()
            .ok()
            .filter(|secs| secs.is_finite() && *secs > 0.0)
            .map(|secs| Some(Duration::from_secs_f64(secs)))
            .ok_or("a positive number of seconds, or `off`"),
    }
}

/// Parses a fault plan.
fn parse_faults(value: &str) -> Result<Option<Arc<FaultPlan>>, &'static str> {
    value
        .parse()
        .map(|plan| Some(Arc::new(plan)))
        .map_err(|_| aix_faults::GRAMMAR)
}

/// The default persistent cache location.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("out/cache")
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

/// Wall-clock and cache/fault counters of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineReport {
    /// Worker threads the run resolved to.
    pub jobs: usize,
    /// Synthesis jobs the planner expanded (one per precision per config).
    pub synth_planned: usize,
    /// Synthesis jobs actually executed (planned minus cache hits).
    pub synth_executed: usize,
    /// STA passes run: every scenario of each executed synthesis job, up
    /// to and including a job's first failing one.
    pub sta_executed: usize,
    /// Synthesis jobs satisfied from the on-disk cache.
    pub cache_hits: usize,
    /// Synthesis jobs that consulted the cache and missed.
    pub cache_misses: usize,
    /// Always `0`, since every job runs once; `summary` and
    /// `to_json_record` leave it out. Kept only because the `aix-benchmark`
    /// crate reports it as its `core.engine.retries` metric.
    pub job_retries: usize,
    /// Jobs that failed and were quarantined.
    pub job_failures: usize,
    /// End-to-end wall-clock, in milliseconds.
    pub wall_ms: f64,
}

impl EngineReport {
    /// One human-readable summary line for CLI output.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} job(s) · {:.0} ms wall: {} synth planned, {} executed \
             ({} cache hit / {} miss), {} STA passes",
            self.jobs,
            self.wall_ms,
            self.synth_planned,
            self.synth_executed,
            self.cache_hits,
            self.cache_misses,
            self.sta_executed,
        );
        if self.job_failures > 0 {
            let _ = write!(line, ", {} job(s) FAILED", self.job_failures);
        }
        line
    }

    /// The run as one machine-readable JSON object (a single line).
    pub fn to_json_record(&self, label: &str) -> String {
        format!(
            "{{\"label\":\"{}\",\"jobs\":{},\"wall_ms\":{:.3},\
             \"synth_planned\":{},\"synth_executed\":{},\"sta_executed\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"job_failures\":{}}}",
            label.replace('\\', "\\\\").replace('"', "\\\""),
            self.jobs,
            self.wall_ms,
            self.synth_planned,
            self.synth_executed,
            self.sta_executed,
            self.cache_hits,
            self.cache_misses,
            self.job_failures,
        )
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
    /// Human-readable cause (error display or panic message).
    pub reason: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} w{} p{}", self.kind, self.width, self.precision)?;
        if let Some(token) = &self.scenario {
            write!(f, " @{token}")?;
        }
        write!(f, " [{}]: {}", self.stage, self.reason)
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
    /// Stage timings and cache and failure counters.
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
    fingerprint_base: u64,
}

/// One planned synthesis job: a `(config, precision)` pair and what the
/// on-disk cache already holds for it.
struct PlannedJob {
    config_index: usize,
    precision: usize,
    cache_path: Option<PathBuf>,
    key_line: String,
    /// The job's fault site and trace name, `{kind}-w{width}-p{precision}-{effort}`.
    site: String,
    /// Valid prior entries found in the cache (token → delay). Used as
    /// the result on a full hit and merged into the writeback on a
    /// partial one.
    prior: BTreeMap<String, f64>,
    /// Whether `prior` covers every requested scenario.
    hit: bool,
}

/// Where and why one planned job failed, until the merge stage turns it
/// into a [`JobFailure`].
struct FailureInfo {
    stage: &'static str,
    scenario: Option<String>,
    reason: String,
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
            fingerprint_base,
        }
    }

    /// The engine's scheduling options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
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
            characterizations
                .pop()
                .expect("one config yields one result"),
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

    /// Evaluates cache-stage fault injection at `site`. An injected I/O
    /// error or panic here degrades the probe/writeback to a miss/skip —
    /// exactly how a real unreadable cache behaves — and never fails the
    /// job.
    fn cache_fault_ok(&self, site: &str) -> bool {
        run_guarded(
            self.options.faults.as_deref(),
            FaultStage::Cache,
            site,
            || Ok(()),
        )
        .is_ok()
    }

    /// Runs one planned miss start to end: synthesizes its netlist, then
    /// times it at each of the config's scenarios in order, stopping at
    /// the first failure. Every step is [`run_guarded`] at its fault site
    /// (`{site}` for synthesis, `{site}@{token}` for STA), and every STA
    /// pass run is counted in `sta_passes`. Returns the quantized delays
    /// in scenario order, or where and why the job failed; the netlist is
    /// dropped when the job ends.
    fn run_job(
        &self,
        job: &PlannedJob,
        config: &CharacterizationConfig,
        tokens: &[String],
        model: &AgingModel,
        sta_passes: &AtomicUsize,
    ) -> Result<Vec<f64>, FailureInfo> {
        let faults = self.options.faults.as_deref();
        let netlist = {
            let _span = aix_obs::span!(
                names::SPAN_SYNTH,
                job = &job.site,
                kind = config.kind.label(),
                width = config.width,
                precision = job.precision,
            );
            run_guarded(faults, FaultStage::Synth, &job.site, || {
                let spec = ComponentSpec::new(config.width, job.precision)?;
                Ok(config.kind.synthesize(&self.cells, spec, config.effort)?)
            })
        }
        .map_err(|reason| FailureInfo {
            stage: "synth",
            scenario: None,
            reason,
        })?;
        config
            .scenarios
            .iter()
            .zip(tokens)
            .map(|(&scenario, token)| {
                let site = format!("{}@{token}", job.site);
                let _span = aix_obs::span!(
                    names::SPAN_STA,
                    job = &site,
                    kind = config.kind.label(),
                    width = config.width,
                    precision = job.precision,
                );
                sta_passes.fetch_add(1, Ordering::Relaxed);
                run_guarded(faults, FaultStage::Sta, &site, || {
                    let delays = NetDelays::aged(&netlist, model, scenario);
                    analyze(&netlist, &delays)
                        .map(|r| quantize_ps(r.max_delay_ps()))
                        .map_err(AixError::from)
                })
                .map_err(|reason| FailureInfo {
                    stage: "sta",
                    scenario: Some(token.clone()),
                    reason,
                })
            })
            .collect()
    }

    /// Runs the whole batch as a fault-tolerant campaign: each job that
    /// misses the cache is synthesized and timed at every scenario in one
    /// panic-isolated pass, run once; completed jobs land in the cache
    /// (when configured), so a rerun computes only what is missing;
    /// quarantined jobs are reported, not fatal.
    pub fn characterize_campaign(&self, configs: &[CharacterizationConfig]) -> Campaign {
        let wall = Instant::now();
        let jobs = self.options.resolved_jobs();
        let model = AgingModel::calibrated();
        let mut report = EngineReport {
            jobs,
            ..EngineReport::default()
        };
        // The resolved worker count is deliberately absent from every trace
        // event: all events outside the worker pool are emitted from
        // sequential code, so a warm (all-hit) run's trace is byte-identical
        // for any `--jobs` value.
        let campaign_span = aix_obs::span!(names::SPAN_CAMPAIGN, configs = configs.len());

        // Plan: one synthesis job per (config, precision), probing the
        // on-disk cache. A hit must cover every requested scenario.
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
        let mut plan: Vec<PlannedJob> = Vec::new();
        for (config_index, config) in configs.iter().enumerate() {
            let tokens = &config_tokens[config_index];
            for &precision in &config.precisions {
                let fingerprint =
                    self.fingerprint(config.kind, config.width, precision, config.effort);
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
                plan.push(PlannedJob {
                    config_index,
                    precision,
                    cache_path,
                    key_line,
                    site,
                    prior,
                    hit,
                });
            }
        }
        report.synth_planned = plan.len();
        plan_span.close();
        aix_obs::gauge!(names::SYNTH_PLANNED, report.synth_planned as f64);

        // Jobs stage: one pool over the misses, each synthesized and timed
        // in one guarded job. Outcomes keep plan order, so failures are
        // deterministic under any job count.
        let misses: Vec<&PlannedJob> = plan.iter().filter(|job| !job.hit).collect();
        report.synth_executed = misses.len();
        let jobs_span = aix_obs::span!(names::SPAN_JOBS, executed = report.synth_executed);
        let sta_passes = AtomicUsize::new(0);
        let outcomes = parallel_map(jobs, misses, |job| {
            let index = job.config_index;
            self.run_job(
                job,
                &configs[index],
                &config_tokens[index],
                &model,
                &sta_passes,
            )
        });
        report.sta_executed = sta_passes.into_inner();
        jobs_span.close();

        // Merge in planned order — deterministic for any job count — and
        // write misses back to the cache (best effort; a
        // read-only directory degrades to cold runs, never to an error).
        let merge_span = aix_obs::span!(names::SPAN_MERGE);
        let mut out: Vec<ComponentCharacterization> = configs
            .iter()
            .map(|c| ComponentCharacterization::new(c.kind, c.width, c.effort))
            .collect();
        let mut failures: Vec<JobFailure> = Vec::new();
        let mut outcomes = outcomes.into_iter();
        for job in &plan {
            let config = &configs[job.config_index];
            let scenarios = config
                .scenarios
                .iter()
                .zip(&config_tokens[job.config_index]);
            let characterization = &mut out[job.config_index];
            if job.hit {
                for (&scenario, token) in scenarios {
                    characterization.add_entry(CharacterizationEntry {
                        precision: job.precision,
                        scenario: scenario.into(),
                        delay_ps: job.prior[token],
                    });
                }
                continue;
            }
            let delays = match outcomes.next().expect("one outcome per miss") {
                Ok(delays) => delays,
                Err(info) => {
                    // Quarantine events mirror `JobFailure` records
                    // one-to-one, in the same (planned) order, so the trace
                    // and the campaign report can be cross-checked.
                    aix_obs::quarantine!(
                        names::QUARANTINE_JOB,
                        job = &job.site,
                        stage = info.stage,
                    );
                    failures.push(JobFailure {
                        kind: config.kind,
                        width: config.width,
                        precision: job.precision,
                        scenario: info.scenario,
                        stage: info.stage,
                        reason: info.reason,
                    });
                    continue;
                }
            };
            let mut writeback = job.prior.clone();
            for ((&scenario, token), delay_ps) in scenarios.zip(delays) {
                characterization.add_entry(CharacterizationEntry {
                    precision: job.precision,
                    scenario: scenario.into(),
                    delay_ps,
                });
                writeback.insert(token.clone(), delay_ps);
            }
            if let Some(path) = &job.cache_path {
                if self.cache_fault_ok(&format!("write {}", job.site)) {
                    let _ = write_cache_entries(
                        path,
                        &job.key_line,
                        job.precision,
                        &writeback,
                        self.options.faults.as_deref(),
                    );
                }
            }
        }
        for characterization in &mut out {
            characterization.enforce_synthesis_monotonicity();
        }
        report.job_failures = failures.len();
        merge_span.close();
        report.wall_ms = wall.elapsed().as_secs_f64() * 1e3;
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

/// Writes one cache file atomically (temp file + rename) under `plan`,
/// using the same 6-decimal delay format as [`ApproxLibrary::to_text`] so
/// cached delays reformat to byte-identical library text.
fn write_cache_entries(
    path: &Path,
    key_line: &str,
    precision: usize,
    entries: &BTreeMap<String, f64>,
    plan: Option<&FaultPlan>,
) -> std::io::Result<()> {
    let mut text = format!("{CACHE_HEADER}\n{key_line}\n");
    for (token, delay) in entries {
        let _ = writeln!(text, "entry {precision} {token} {delay:.6}");
    }
    write_atomic(path, &text, plan)
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
        assert_eq!(report.job_failures, 0);
        let aged = c
            .delay_ps(
                12,
                CharacterizationScenario::Uniform(AgingScenario::worst_case(Lifetime::YEARS_10)),
            )
            .unwrap();
        assert!(aged > c.fresh_full_delay_ps());
    }

    /// [`EngineOptions::resolve`] over fixed `(name, value)` flags and
    /// variables: hermetic stand-ins for the CLI's flags and the process
    /// environment.
    fn resolve(
        flags: &[(&'static str, &str)],
        vars: &[(&'static str, &str)],
    ) -> Result<EngineOptions, AixError> {
        let lookup = |pairs: &[(&'static str, &str)]| {
            let pairs: Vec<(&str, String)> = pairs
                .iter()
                .map(|&(name, value)| (name, value.to_owned()))
                .collect();
            move |name| {
                pairs
                    .iter()
                    .find(|(key, _)| *key == name)
                    .map(|(_, v)| v.clone())
            }
        };
        EngineOptions::resolve(lookup(flags), lookup(vars))
    }

    #[test]
    fn env_value_parsers_accept_and_reject() {
        let defaults = resolve(&[], &[]).unwrap();
        let expected = EngineOptions {
            jobs: 0,
            cache_dir: Some(default_cache_dir()),
            ..EngineOptions::sequential()
        };
        assert_eq!(defaults, expected);
        let vars = [
            ("AIX_JOBS", " 4 "),
            ("AIX_CACHE", "var-cache"),
            ("AIX_FAULT", "panic:p=0.1,seed=3"),
        ];
        let parsed = resolve(&[], &vars).unwrap();
        assert_eq!(parsed.jobs, 4);
        assert_eq!(parsed.cache_dir, Some(PathBuf::from("var-cache")));
        assert_eq!(parsed.faults.unwrap().to_string(), "panic:p=0.1,seed=3");
        for off in ["off", "none", "0"] {
            assert_eq!(parse_timeout(off), Ok(None));
        }
        assert_eq!(parse_timeout("1.5"), Ok(Some(Duration::from_millis(1500))));
        for bad in ["-2", "soon"] {
            assert!(parse_timeout(bad).is_err(), "`{bad}` must be rejected");
        }
        for (name, bad) in [
            ("AIX_JOBS", "-1"),
            ("AIX_JOBS", ""),
            ("AIX_JOBS", "1.5"),
            ("AIX_FAULT", "explode"),
        ] {
            let err = resolve(&[], &[(name, bad)]).unwrap_err();
            assert!(
                matches!(&err, AixError::InvalidOption { flag, value, .. }
                    if *flag == name && value == bad),
                "`{name}={bad}` must be rejected naming {name}: {err}"
            );
        }
    }

    #[test]
    fn a_flag_beats_its_variable() {
        let flags = [("--jobs", "2"), ("--fault", "io:stage=cache")];
        let vars = [
            ("AIX_JOBS", "three"),
            ("AIX_CACHE", "var-dir"),
            ("AIX_FAULT", "explode"),
        ];
        // The flags' values win, and a variable behind a flag is never parsed.
        let options = resolve(&flags, &vars).unwrap();
        assert_eq!(options.jobs, 2);
        assert_eq!(
            options.faults.unwrap().to_string(),
            "io:p=1,seed=0,stage=cache"
        );
        // A setting without its flag still comes from its variable.
        assert_eq!(options.cache_dir, Some(PathBuf::from("var-dir")));
    }

    #[test]
    fn zero_jobs_means_auto_from_either_source() {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        for options in [
            resolve(&[("--jobs", "0")], &[]),
            resolve(&[], &[("AIX_JOBS", "0")]),
        ] {
            assert_eq!(options.unwrap().resolved_jobs(), auto);
        }
        assert_eq!(
            resolve(&[], &[("AIX_JOBS", "5")]).unwrap().resolved_jobs(),
            5
        );
    }

    #[test]
    fn off_disables_the_cache() {
        for off in ["off", "none", "0"] {
            let by_flag = resolve(&[("--cache", off)], &[("AIX_CACHE", "dir")]);
            let by_var = resolve(&[], &[("AIX_CACHE", off)]);
            for options in [by_flag, by_var] {
                assert_eq!(options.unwrap().cache_dir, None);
            }
        }
    }

    #[test]
    fn a_malformed_value_names_its_source() {
        let from_flag = resolve(&[("--jobs", "three")], &[("AIX_JOBS", "4")]).unwrap_err();
        let from_var = resolve(&[], &[("AIX_JOBS", "three")]).unwrap_err();
        for (err, source) in [(from_flag, "--jobs"), (from_var, "AIX_JOBS")] {
            assert!(
                matches!(&err, AixError::InvalidOption { flag, value, .. }
                    if *flag == source && value == "three"),
                "the error must name {source}: {err}"
            );
        }
    }
}
