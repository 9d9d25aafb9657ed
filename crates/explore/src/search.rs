//! The greedy-seeded, deterministic evolutionary search.
//!
//! Generation zero seeds the front with the exact baseline, the
//! uniform-truncation ladder (the paper's knob, so the front always has the
//! baseline it must beat) and single-knob ladders of each variant axis.
//! Each later generation enumerates the deterministic neighbourhoods of the
//! surviving front points, dedupes against everything ever enqueued, and
//! evaluates the batch through [`aix_core::parallel_map`] with an optional
//! content-addressed score cache. The fold back into the front happens in
//! plan order, so the outcome is a pure function of the configuration —
//! independent of job count and cache state.

use crate::candidate::Candidate;
use crate::pareto::{FrontPoint, ParetoFront, Score};
use crate::score::{score_candidate, ScoreContext};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_cells::Library;
use aix_core::fsutil::write_atomic;
use aix_core::{parallel_map, AixError, CampaignStatus, CancelToken, ComponentKind};
use aix_faults::{FaultPlan, FaultStage};
use aix_obs::{fnv1a, parse_object, render_object, Value, FNV_OFFSET};
use aix_sta::{analyze, NetDelays};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// Search configuration. Everything that influences the outcome is in here
/// (plus the library), so equal configs produce byte-identical fronts.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Component family to search.
    pub kind: ComponentKind,
    /// Operand width in bits (at most 32, so exact references fit in `u64`).
    pub width: usize,
    /// Aging scenario whose delays define feasibility and slack.
    pub scenario: AgingScenario,
    /// Stimulus seed.
    pub seed: u64,
    /// Maximum number of candidates to score (cache hits included).
    pub budget: usize,
    /// Stimulus vectors per candidate.
    pub vectors: usize,
    /// Worker threads for the evaluation fan-out.
    pub jobs: usize,
    /// Content-addressed score cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Fault-injection plan consulted per candidate evaluation and at
    /// every score-cache write.
    pub faults: Option<Arc<FaultPlan>>,
    /// Cooperative cancellation, checked between and inside evaluations.
    pub cancel: Option<CancelToken>,
}

impl ExploreConfig {
    /// A small deterministic default: 10-year worst-case scenario, seed 1,
    /// sequential evaluation, no cache.
    pub fn new(kind: ComponentKind, width: usize) -> Self {
        ExploreConfig {
            kind,
            width,
            scenario: AgingScenario::worst_case(Lifetime::YEARS_10),
            seed: 1,
            budget: 64,
            vectors: 1024,
            jobs: 1,
            cache_dir: None,
            faults: None,
            cancel: None,
        }
    }
}

/// A candidate whose evaluation failed (panic, injected fault, or error);
/// the search continued without it.
#[derive(Debug, Clone)]
pub struct QuarantinedCandidate {
    /// The candidate's label.
    pub label: String,
    /// The failure, as reported by the evaluation.
    pub reason: String,
}

/// The completed (or partial) search result.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Configuration echo: component kind.
    pub kind: ComponentKind,
    /// Configuration echo: operand width.
    pub width: usize,
    /// Configuration echo: scenario.
    pub scenario: AgingScenario,
    /// Configuration echo: stimulus seed.
    pub seed: u64,
    /// The exact component's aged critical-path delay — the clock every
    /// slack is measured against.
    pub clock_ps: f64,
    /// The Pareto front, in canonical order.
    pub front: Vec<FrontPoint>,
    /// Candidates freshly scored.
    pub evaluated: usize,
    /// Candidates served from the score cache.
    pub cache_hits: usize,
    /// Candidates skipped by cancellation.
    pub skipped: usize,
    /// Candidates quarantined after failed evaluations.
    pub quarantined: Vec<QuarantinedCandidate>,
    /// Whether cancellation cut the search short.
    pub cancelled: bool,
}

impl ExploreOutcome {
    /// Campaign-style status for CLI exit codes: `Empty` when the front has
    /// no points, `Partial` when quarantines or cancellation cut coverage,
    /// `Complete` otherwise.
    pub fn status(&self) -> CampaignStatus {
        if self.front.is_empty() {
            CampaignStatus::Empty
        } else if !self.quarantined.is_empty() || self.cancelled {
            CampaignStatus::Partial
        } else {
            CampaignStatus::Complete
        }
    }

    /// The front alone as a JSON array — byte-identical for any job count
    /// and cache state under equal configuration.
    pub fn front_json(&self) -> String {
        let mut out = String::from("[");
        for (index, point) in self.front.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&render_object(&[
                ("label", Value::from(point.candidate.label())),
                ("mean_abs_error", float_value(point.score.mean_abs_error)),
                ("max_abs_error", float_value(point.score.max_abs_error)),
                ("error_rate", float_value(point.score.error_rate)),
                ("aged_delay_ps", float_value(point.score.aged_delay_ps)),
                ("slack_ps", float_value(point.score.slack_ps)),
                ("gate_count", Value::from(point.score.gate_count)),
            ]));
        }
        out.push(']');
        out
    }

    /// The full report as one JSON object: configuration echo, counters,
    /// quarantines and the front.
    pub fn to_json(&self) -> String {
        let mut quarantined = String::from("[");
        for (index, q) in self.quarantined.iter().enumerate() {
            if index > 0 {
                quarantined.push(',');
            }
            quarantined.push_str(&render_object(&[
                ("label", Value::from(&q.label)),
                ("reason", Value::from(&q.reason)),
            ]));
        }
        quarantined.push(']');
        format!(
            "{{\"component\":\"{}\",\"width\":{},\"scenario\":\"{}\",\"seed\":{},\
             \"clock_ps\":{:.6},\"evaluated\":{},\"cache_hits\":{},\"skipped\":{},\
             \"cancelled\":{},\"status\":\"{}\",\"quarantined\":{},\"front\":{}}}",
            self.kind,
            self.width,
            self.scenario,
            self.seed,
            self.clock_ps,
            self.evaluated,
            self.cache_hits,
            self.skipped,
            self.cancelled,
            status_label(self.status()),
            quarantined,
            self.front_json(),
        )
    }

    /// A fixed-width table of the front for terminal reports.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>10} {:>12} {:>10} {:>7}",
            "candidate", "mean|err|", "err rate", "aged ps", "slack ps", "gates"
        );
        for point in &self.front {
            let _ = writeln!(
                out,
                "{:<44} {:>14.4} {:>10.4} {:>12.3} {:>10.3} {:>7}",
                point.candidate.label(),
                point.score.mean_abs_error,
                point.score.error_rate,
                point.score.aged_delay_ps,
                point.score.slack_ps,
                point.score.gate_count,
            );
        }
        out
    }
}

fn status_label(status: CampaignStatus) -> &'static str {
    match status {
        CampaignStatus::Complete => "complete",
        CampaignStatus::Partial => "partial",
        CampaignStatus::Empty => "empty",
    }
}

fn float_value(v: f64) -> Value {
    // Fixed six-decimal rendering keeps reports byte-stable; the cache
    // stores exact bits, so cold and warm runs format the same f64.
    Value::from(format!("{v:.6}").parse::<f64>().unwrap_or(0.0))
}

/// Generation-zero candidates: the exact origin, the uniform-truncation
/// ladder, and a single-knob ladder per variant axis. Deterministic order.
pub fn seed_candidates(kind: ComponentKind, width: usize) -> Vec<Candidate> {
    let mut seeds = vec![Candidate::exact(kind, width)];
    let deepest = width.saturating_sub(width.min(8));
    for precision in (deepest.max(1)..width).rev() {
        seeds.extend(Candidate::truncated(kind, width, precision));
    }
    let exact = Candidate::exact(kind, width);
    match exact {
        Candidate::Adder(base) => {
            for lo in 1..=width.saturating_sub(1).min(8) {
                seeds.push(Candidate::Adder(aix_arith::AdderVariant {
                    lower_or_bits: lo,
                    ..base
                }));
            }
            for afa in 1..=width.saturating_sub(1).min(4) {
                seeds.push(Candidate::Adder(aix_arith::AdderVariant {
                    approx_fa_bits: afa,
                    ..base
                }));
            }
        }
        Candidate::Multiplier(base) => {
            for col in 1..=(2 * width).saturating_sub(2).min(10) {
                seeds.push(Candidate::Multiplier(aix_arith::MultiplierVariant {
                    pruned_columns: col,
                    ..base
                }));
            }
            for mlo in (2..=(2 * width).saturating_sub(2).min(12)).step_by(2) {
                seeds.push(Candidate::Multiplier(aix_arith::MultiplierVariant {
                    merge_lower_or: mlo,
                    ..base
                }));
            }
        }
        Candidate::Mac(base) => {
            for col in 1..=(2 * width).saturating_sub(2).min(8) {
                let mut v = base;
                v.mult.pruned_columns = col;
                seeds.push(Candidate::Mac(v));
            }
            for lo in 1..=(2 * width).saturating_sub(1).min(8) {
                let mut v = base;
                v.adder.lower_or_bits = lo;
                seeds.push(Candidate::Mac(v));
            }
        }
    }
    seeds
}

/// One evaluation's disposition, folded back in plan order.
enum Evaluation {
    Scored { score: Score, from_cache: bool },
    Quarantined(String),
    Skipped,
}

/// Runs the search.
///
/// # Errors
///
/// Fails only on setup (building the exact baseline for the clock);
/// per-candidate failures are quarantined in the outcome instead.
///
/// # Panics
///
/// Panics if `width` is outside `1..=32`, or if the budget or the vector
/// count is zero: with no stimuli every candidate would score zero error.
pub fn explore(library: &Arc<Library>, config: &ExploreConfig) -> Result<ExploreOutcome, AixError> {
    assert!(
        (1..=32).contains(&config.width),
        "width must be in 1..=32 so exact references fit in u64"
    );
    assert!(config.budget > 0, "budget must be positive");
    assert!(config.vectors > 0, "vector count must be positive");
    let _span = aix_obs::span!(
        aix_obs::names::explore::SPAN_SEARCH,
        component = config.kind.to_string(),
        width = config.width,
        budget = config.budget,
    );

    // The clock is the exact component's own aged delay; derived outside
    // the fault-injected candidate path so a partial search still has a
    // well-defined slack axis.
    let baseline = Candidate::exact(config.kind, config.width).build_optimized(library)?;
    let delays = NetDelays::aged(&baseline, &AgingModel::calibrated(), config.scenario);
    let clock_ps = analyze(&baseline, &delays)?.max_delay_ps();

    let context = ScoreContext::new(
        Arc::clone(library),
        config.scenario,
        ScoreContext::stimuli_for(config.kind, config.width, config.vectors, config.seed),
        clock_ps,
    );

    // Everything that determines a score feeds the cache key context.
    let mut key = fnv1a(FNV_OFFSET, &library.content_hash().to_le_bytes());
    key = fnv1a(key, config.scenario.to_string().as_bytes());
    key = fnv1a(key, &config.seed.to_le_bytes());
    let context_key = fnv1a(key, &(config.vectors as u64).to_le_bytes());

    let mut seen: HashSet<u64> = HashSet::new();
    let mut pending: Vec<Candidate> = Vec::new();
    for seed in seed_candidates(config.kind, config.width) {
        if seen.insert(seed.fingerprint(context_key)) {
            pending.push(seed);
        }
    }

    let mut front = ParetoFront::new();
    let mut evaluated = 0usize;
    let mut cache_hits = 0usize;
    let mut skipped = 0usize;
    let mut quarantined: Vec<QuarantinedCandidate> = Vec::new();
    let mut cancelled = false;

    let evaluate = |candidate: Candidate| -> (Candidate, Evaluation) {
        if config.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return (candidate, Evaluation::Skipped);
        }
        let label = candidate.label();
        let fingerprint = candidate.fingerprint(context_key);
        if let Some(score) = cache_load(config, fingerprint, &label, clock_ps) {
            return (candidate, Evaluation::Scored { score, from_cache: true });
        }
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<Score, String> {
            if let Some(plan) = &config.faults {
                plan.check(FaultStage::Synth, &label)
                    .map_err(|e| e.to_string())?;
            }
            score_candidate(&context, &candidate).map_err(|e| e.to_string())
        }));
        match attempt {
            Ok(Ok(score)) => {
                cache_store(config, fingerprint, &label, &score);
                (candidate, Evaluation::Scored { score, from_cache: false })
            }
            Ok(Err(reason)) => (candidate, Evaluation::Quarantined(reason)),
            Err(payload) => {
                (candidate, Evaluation::Quarantined(aix_core::panic_message(payload)))
            }
        }
    };

    while !pending.is_empty() {
        let scored = evaluated + cache_hits;
        if scored >= config.budget {
            break;
        }
        if config.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            cancelled = true;
            break;
        }
        let take = (config.budget - scored).min(pending.len());
        let batch: Vec<Candidate> = pending.drain(..take).collect();
        let results = parallel_map(config.jobs, batch, evaluate);
        for (candidate, evaluation) in results {
            match evaluation {
                Evaluation::Scored { score, from_cache } => {
                    if from_cache {
                        cache_hits += 1;
                        aix_obs::count!(aix_obs::names::explore::CACHE_HIT, candidate = candidate.label());
                    } else {
                        evaluated += 1;
                        aix_obs::count!(aix_obs::names::explore::EVALUATED, candidate = candidate.label());
                    }
                    front.insert(FrontPoint { candidate, score });
                }
                Evaluation::Quarantined(reason) => {
                    aix_obs::count!(aix_obs::names::explore::QUARANTINED, candidate = candidate.label());
                    quarantined.push(QuarantinedCandidate {
                        label: candidate.label(),
                        reason,
                    });
                }
                Evaluation::Skipped => {
                    skipped += 1;
                    cancelled = true;
                    aix_obs::count!(aix_obs::names::explore::SKIPPED, candidate = candidate.label());
                }
            }
        }
        aix_obs::gauge!(aix_obs::names::explore::FRONT_SIZE, front.len() as f64);
        if cancelled {
            break;
        }
        if pending.is_empty() {
            // Next generation: neighbourhoods of the surviving front, in
            // canonical front order, deduped against everything ever seen.
            let mut next: Vec<Candidate> = Vec::new();
            for point in front.points() {
                for neighbor in point.candidate.neighbors() {
                    if seen.insert(neighbor.fingerprint(context_key)) {
                        next.push(neighbor);
                    }
                }
            }
            // Labels are unique here (the seen-set dedupes by a
            // fingerprint of the label), so formatting each one once
            // gives the same order as comparing them directly.
            next.sort_by_cached_key(Candidate::label);
            pending = next;
        }
    }

    Ok(ExploreOutcome {
        kind: config.kind,
        width: config.width,
        scenario: config.scenario,
        seed: config.seed,
        clock_ps,
        front: front.points().to_vec(),
        evaluated,
        cache_hits,
        skipped,
        quarantined,
        cancelled,
    })
}

/// Cache file path for a candidate fingerprint.
fn cache_path(dir: &std::path::Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("explore_{fingerprint:016x}.json"))
}

/// Loads a cached score; `None` on any miss, mismatch or parse failure
/// (the entry is then recomputed and rewritten).
fn cache_load(config: &ExploreConfig, fingerprint: u64, label: &str, clock_ps: f64) -> Option<Score> {
    let dir = config.cache_dir.as_deref()?;
    let text = std::fs::read_to_string(cache_path(dir, fingerprint)).ok()?;
    let fields = parse_object(text.trim()).ok()?;
    let mut cached_label = None;
    let mut mean = None;
    let mut max = None;
    let mut rate = None;
    let mut delay = None;
    let mut gates = None;
    for (name, value) in fields {
        match (name.as_str(), value) {
            ("label", Value::Str(s)) => cached_label = Some(s),
            ("mean_bits", Value::Str(s)) => mean = f64_from_hex(&s),
            ("max_bits", Value::Str(s)) => max = f64_from_hex(&s),
            ("rate_bits", Value::Str(s)) => rate = f64_from_hex(&s),
            ("delay_bits", Value::Str(s)) => delay = f64_from_hex(&s),
            ("gates", Value::Int(n)) => gates = usize::try_from(n).ok(),
            _ => {}
        }
    }
    if cached_label.as_deref() != Some(label) {
        return None;
    }
    let aged_delay_ps = delay?;
    Some(Score {
        mean_abs_error: mean?,
        max_abs_error: max?,
        error_rate: rate?,
        aged_delay_ps,
        slack_ps: clock_ps - aged_delay_ps,
        gate_count: gates?,
    })
}

/// Persists a freshly computed score under the config's fault plan. Float
/// fields are stored as exact bit patterns so warm-cache runs reproduce
/// cold-run reports byte-for-byte. Write failures are ignored — the cache is an accelerator, not a ledger.
fn cache_store(config: &ExploreConfig, fingerprint: u64, label: &str, score: &Score) {
    let Some(dir) = config.cache_dir.as_deref() else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let record = render_object(&[
        ("label", Value::from(label)),
        ("mean_bits", Value::from(f64_to_hex(score.mean_abs_error))),
        ("max_bits", Value::from(f64_to_hex(score.max_abs_error))),
        ("rate_bits", Value::from(f64_to_hex(score.error_rate))),
        ("delay_bits", Value::from(f64_to_hex(score.aged_delay_ps))),
        ("gates", Value::from(score.gate_count)),
    ]);
    let _ = write_atomic(
        &cache_path(dir, fingerprint),
        &record,
        config.faults.as_deref(),
    );
}

fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn small_config(kind: ComponentKind, width: usize) -> ExploreConfig {
        let mut config = ExploreConfig::new(kind, width);
        config.budget = 24;
        config.vectors = 256;
        config
    }

    #[test]
    #[should_panic(expected = "vector count must be positive")]
    fn zero_vectors_are_rejected() {
        let mut config = small_config(ComponentKind::Adder, 8);
        config.vectors = 0;
        let _ = explore(&library(), &config);
    }

    #[test]
    fn search_produces_a_nonempty_undominated_front() {
        let outcome = explore(&library(), &small_config(ComponentKind::Adder, 8)).unwrap();
        assert!(!outcome.front.is_empty());
        assert_eq!(outcome.status(), CampaignStatus::Complete);
        for a in &outcome.front {
            for b in &outcome.front {
                assert!(!a.score.dominates(&b.score), "front contains a dominated point");
            }
        }
        // The exact baseline is never dominated (zero error) and must
        // survive on the front.
        assert!(outcome.front.iter().any(|p| p.candidate.is_exact()
            && p.candidate.width() == 8
            && p.score.mean_abs_error == 0.0));
    }

    #[test]
    fn fronts_are_byte_identical_for_any_job_count() {
        let config1 = small_config(ComponentKind::Adder, 8);
        let mut config4 = small_config(ComponentKind::Adder, 8);
        config4.jobs = 4;
        let a = explore(&library(), &config1).unwrap();
        let b = explore(&library(), &config4).unwrap();
        assert_eq!(a.front_json(), b.front_json());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn fronts_are_byte_identical_cold_vs_warm_cache() {
        let dir = std::env::temp_dir().join(format!("aix-explore-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = small_config(ComponentKind::Multiplier, 6);
        config.cache_dir = Some(dir.clone());
        let cold = explore(&library(), &config).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.status(), CampaignStatus::Complete);
        assert!(!cold.front.is_empty());
        let warm = explore(&library(), &config).unwrap();
        assert_eq!(warm.evaluated, 0, "warm run must be fully cached");
        assert!(warm.cache_hits > 0);
        assert_eq!(cold.front_json(), warm.front_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_injection_quarantines_candidates_but_reports_partial_front() {
        let mut config = small_config(ComponentKind::Adder, 8);
        config.faults = Some(Arc::new(
            "panic:p=0.3,seed=9,stage=synth".parse::<FaultPlan>().unwrap(),
        ));
        let outcome = explore(&library(), &config).unwrap();
        assert!(!outcome.quarantined.is_empty(), "p=0.3 must hit something");
        assert!(!outcome.front.is_empty(), "survivors must still form a front");
        assert_eq!(outcome.status(), CampaignStatus::Partial);
        for q in &outcome.quarantined {
            assert!(q.reason.contains("injected fault"), "{}", q.reason);
        }
    }

    #[test]
    fn delay_faults_slow_evaluation_but_do_not_change_the_front() {
        let mut config = small_config(ComponentKind::Adder, 6);
        let baseline = explore(&library(), &config).unwrap();
        config.faults = Some(Arc::new(
            "delay:p=0.5,seed=3,ms=1,stage=synth".parse::<FaultPlan>().unwrap(),
        ));
        let delayed = explore(&library(), &config).unwrap();
        assert_eq!(delayed.status(), CampaignStatus::Complete);
        assert_eq!(baseline.front_json(), delayed.front_json());
    }

    #[test]
    fn pre_cancelled_token_yields_empty_outcome() {
        let mut config = small_config(ComponentKind::Adder, 8);
        let token = CancelToken::new();
        token.cancel();
        config.cancel = Some(token);
        let outcome = explore(&library(), &config).unwrap();
        assert!(outcome.front.is_empty());
        assert!(outcome.cancelled);
        assert_eq!(outcome.status(), CampaignStatus::Empty);
        assert_eq!(outcome.evaluated, 0);
    }

    #[test]
    fn mid_search_cancellation_reports_partial_front() {
        // Each evaluation sleeps 50 ms, so the 24 generation-zero seeds
        // alone outlast the 200 ms canceller however fast scoring is.
        let mut config = small_config(ComponentKind::Multiplier, 8);
        config.budget = 500;
        config.faults = Some(Arc::new(
            "delay:p=1,ms=50,stage=synth".parse::<FaultPlan>().unwrap(),
        ));
        let token = CancelToken::new();
        config.cancel = Some(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(200));
            token.cancel();
        });
        let outcome = explore(&library(), &config).unwrap();
        canceller.join().unwrap();
        assert!(outcome.cancelled, "token must cut the search short");
        assert_ne!(outcome.status(), CampaignStatus::Complete);
    }

    #[test]
    fn cache_round_trips_exact_bits() {
        let dir = std::env::temp_dir().join(format!("aix-explore-bits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ExploreConfig::new(ComponentKind::Adder, 4);
        config.cache_dir = Some(dir.clone());
        let score = Score {
            mean_abs_error: 0.1 + 0.2, // deliberately non-representable
            max_abs_error: f64::MAX,
            error_rate: 1.0 / 3.0,
            aged_delay_ps: 123.456789,
            slack_ps: 0.0,
            gate_count: 42,
        };
        cache_store(&config, 7, "probe", &score);
        let loaded = cache_load(&config, 7, "probe", 123.456789).unwrap();
        assert_eq!(loaded.mean_abs_error.to_bits(), score.mean_abs_error.to_bits());
        assert_eq!(loaded.max_abs_error.to_bits(), score.max_abs_error.to_bits());
        assert_eq!(loaded.aged_delay_ps.to_bits(), score.aged_delay_ps.to_bits());
        assert_eq!(loaded.gate_count, 42);
        assert!(cache_load(&config, 7, "other-label", 0.0).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
