//! Monte-Carlo re-validation of every approximation-library entry.
//!
//! Characterization computes the Eq. 2 guarantee *once*; this module plays
//! the adversary. For every entry the flow would actually deploy (the
//! largest precision meeting the guarantee per aged scenario) it
//! re-synthesizes the component, re-derives the constraint from scratch,
//! then re-runs aging-aware STA under seeded delay perturbation — and, for
//! violating samples, a fast timed RTL simulation that reports whether the
//! violation is even observable at the outputs (the paper's Fig. 6
//! validation step: STA *plus* fast RTL simulation).

use crate::perturb::{entry_rng, Perturbation};
use aix_aging::{AgingModel, AgingScenario};
use aix_cells::Library;
use aix_core::{
    AixError, ApproxLibrary, CharacterizationScenario, ComponentCharacterization,
    ComponentKind, NetlistCache,
};
use aix_obs::names::verify as names;
use aix_sim::{measure_errors, OperandSource, SignedNormalOperands};
use aix_sta::{analyze, NetDelays};
use std::fmt::Write as _;
use std::sync::Arc;

/// Configuration of one verification campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyConfig {
    /// Monte-Carlo samples per entry.
    pub samples: usize,
    /// The variation model applied to aged delays.
    pub perturbation: Perturbation,
    /// Campaign seed; the same seed reproduces the identical report.
    pub seed: u64,
    /// Slack an entry must keep under every sample, in ps. Zero re-checks
    /// Eq. 2 exactly; positive values demand a safety margin.
    pub margin_target_ps: f64,
    /// Stimulus vectors for the RTL-simulation cross-check of violating
    /// samples (0 disables the simulation step).
    pub sim_vectors: usize,
    /// Bound on the degradation retry loop: how many extra LSBs the
    /// `Degrade` policy may drop for one block before giving up.
    pub max_degrade_steps: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            samples: 64,
            perturbation: Perturbation::DEFAULT,
            seed: 42,
            margin_target_ps: 0.0,
            sim_vectors: 128,
            max_degrade_steps: 8,
        }
    }
}

impl VerifyConfig {
    /// A configuration with no perturbation: verifies exactly the nominal
    /// guarantee characterization claims.
    pub fn nominal() -> Self {
        Self {
            samples: 1,
            perturbation: Perturbation::NONE,
            ..Self::default()
        }
    }
}

/// Slack-margin statistics over one entry's Monte-Carlo samples. The
/// margin of a sample is `constraint − delay`: negative means the sample
/// violates Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginStats {
    /// Worst margin over all samples, in ps.
    pub min_ps: f64,
    /// Mean margin, in ps.
    pub mean_ps: f64,
    /// Margin exceeded by 99 % of samples, in ps (the near-worst tail).
    pub p99_ps: f64,
    /// Index of the first sample whose margin fell below the target, if any.
    pub first_failure: Option<usize>,
}

impl MarginStats {
    /// Summarizes `margins` (in sample order) against `target_ps`.
    ///
    /// # Panics
    ///
    /// Panics if `margins` is empty.
    pub fn from_margins(margins: &[f64], target_ps: f64) -> Self {
        assert!(!margins.is_empty(), "campaign must draw at least one sample");
        let mut sorted = margins.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("margins are finite"));
        let p99_index = (margins.len() as f64 * 0.01).floor() as usize;
        Self {
            min_ps: sorted[0],
            mean_ps: margins.iter().sum::<f64>() / margins.len() as f64,
            p99_ps: sorted[p99_index.min(sorted.len() - 1)],
            first_failure: margins.iter().position(|&m| m < target_ps),
        }
    }
}

/// How an entry was verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Re-synthesized and re-analyzed under Monte-Carlo perturbation.
    MonteCarlo,
    /// Only the claimed delay was checked against the re-derived
    /// constraint (actual-case entries, whose per-gate stress cannot be
    /// re-derived without re-running activity extraction).
    ClaimOnly,
    /// The library holds no precision meeting the guarantee under this
    /// scenario; nothing to verify.
    Uncompensable,
}

/// The verdict for one (component, scenario) deployment point.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryVerdict {
    /// Component family.
    pub kind: ComponentKind,
    /// Full operand width.
    pub width: usize,
    /// The scenario label, as serialized in reports.
    pub scenario: String,
    /// The precision the flow would deploy (Eq. 2's `K`), when one exists.
    pub precision: Option<usize>,
    /// The re-derived constraint `t_C(noAging, N)`, in ps.
    pub constraint_ps: f64,
    /// Nominal (unperturbed) aged delay at the deployed precision, in ps.
    pub nominal_aged_ps: f64,
    /// How the verdict was reached.
    pub verdict: VerdictKind,
    /// Margin statistics over the samples (one sample for `ClaimOnly`).
    pub stats: Option<MarginStats>,
    /// Samples drawn.
    pub samples: usize,
    /// Observed output-error rate of the worst violating sample under
    /// timed RTL simulation, when the campaign ran one.
    pub violation_error_rate: Option<f64>,
    /// Whether every sample kept the target margin.
    pub passed: bool,
}

impl EntryVerdict {
    fn label(&self) -> String {
        format!("{}-{} @ {}", self.kind, self.width, self.scenario)
    }
}

/// The result of verifying a whole [`ApproxLibrary`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign seed, echoed for reproducibility.
    pub seed: u64,
    /// Samples per entry.
    pub samples: usize,
    /// The variation model used.
    pub perturbation: Perturbation,
    /// Margin target, in ps.
    pub margin_target_ps: f64,
    /// Per-entry verdicts, in library order.
    pub entries: Vec<EntryVerdict>,
}

impl CampaignReport {
    /// Whether every verified entry passed.
    pub fn all_passed(&self) -> bool {
        self.entries.iter().all(|e| e.passed)
    }

    /// The entries that failed verification.
    pub fn failures(&self) -> impl Iterator<Item = &EntryVerdict> {
        self.entries.iter().filter(|e| !e.passed)
    }

    /// Renders the human-readable campaign report. Deterministic for a
    /// given seed: no timestamps, stable ordering, fixed float precision.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "verification campaign: seed {} · {} samples/entry · σ_global {:.1}% · σ_gate {:.1}% · margin target {:.1} ps",
            self.seed,
            self.samples,
            self.perturbation.global_sigma * 100.0,
            self.perturbation.gate_sigma * 100.0,
            self.margin_target_ps,
        );
        for entry in &self.entries {
            let status = match (entry.verdict, entry.passed) {
                (VerdictKind::Uncompensable, _) => "UNCOMPENSABLE",
                (_, true) => "PASS",
                (_, false) => "FAIL",
            };
            let _ = write!(
                out,
                "  [{status:>13}] {:<28} K={} constraint {:.1} ps nominal {:.1} ps",
                entry.label(),
                entry
                    .precision
                    .map_or_else(|| "-".to_owned(), |p| p.to_string()),
                entry.constraint_ps,
                entry.nominal_aged_ps,
            );
            if let Some(stats) = entry.stats {
                let _ = write!(
                    out,
                    "  margin min {:+.1} / mean {:+.1} / p99 {:+.1} ps",
                    stats.min_ps, stats.mean_ps, stats.p99_ps
                );
                if let Some(sample) = stats.first_failure {
                    let _ = write!(out, "  first-failing sample #{sample}");
                }
            }
            if let Some(rate) = entry.violation_error_rate {
                let _ = write!(out, "  observable error rate {:.2}%", rate * 100.0);
            }
            out.push('\n');
        }
        let failed = self.entries.iter().filter(|e| !e.passed).count();
        let _ = writeln!(
            out,
            "{} entries verified, {} passed, {} failed",
            self.entries.len(),
            self.entries.len() - failed,
            failed
        );
        out
    }
}

/// Measures the Monte-Carlo slack margins of one synthesized component
/// under `scenario`, against `constraint_ps`.
///
/// Returns the nominal aged delay and the per-sample margins. The entry
/// generator is derived from `seed` and `label`, so verdicts do not depend
/// on campaign iteration order.
///
/// # Errors
///
/// Propagates STA failures.
pub fn measure_margins(
    netlist: &aix_netlist::Netlist,
    model: &AgingModel,
    scenario: AgingScenario,
    constraint_ps: f64,
    config: &VerifyConfig,
    label: &str,
) -> Result<(f64, Vec<f64>), AixError> {
    let base = NetDelays::aged(netlist, model, scenario);
    let nominal = analyze(netlist, &base)?.max_delay_ps();
    let mut rng = entry_rng(config.seed, label);
    let mut margins = Vec::with_capacity(config.samples.max(1));
    for _ in 0..config.samples.max(1) {
        let perturbed = config.perturbation.perturb(&mut rng, netlist, &base);
        let delay = analyze(netlist, &perturbed)?.max_delay_ps();
        margins.push(constraint_ps - delay);
    }
    Ok((nominal, margins))
}

/// Runs the timed RTL cross-check: clocks `netlist` at `constraint_ps`
/// with the given delays and reports the observed output-error rate.
///
/// # Errors
///
/// Propagates simulator errors.
fn simulate_violation(
    netlist: &aix_netlist::Netlist,
    delays: &NetDelays,
    constraint_ps: f64,
    width: usize,
    config: &VerifyConfig,
) -> Result<f64, AixError> {
    let padding = netlist.inputs().len().saturating_sub(2 * width);
    let stats = measure_errors(
        netlist,
        delays,
        constraint_ps,
        SignedNormalOperands::for_width(width, config.seed)
            .vectors_with_zeros(config.sim_vectors, padding),
    )?;
    Ok(stats.error_rate())
}

/// Verifies the deployment point of one characterization under one
/// scenario: re-synthesizes at the library's chosen precision, re-derives
/// the constraint, and samples margins.
///
/// # Errors
///
/// Propagates synthesis and STA failures.
pub fn verify_deployment(
    cells: &Arc<Library>,
    model: &AgingModel,
    characterization: &ComponentCharacterization,
    scenario: CharacterizationScenario,
    config: &VerifyConfig,
) -> Result<EntryVerdict, AixError> {
    verify_deployment_cached(
        cells,
        model,
        characterization,
        scenario,
        config,
        &NetlistCache::new(),
    )
}

/// [`verify_deployment`] with an explicit netlist cache, so a whole
/// campaign synthesizes each `(kind, width, precision)` netlist once — the
/// full-width constraint netlist in particular is shared by every scenario
/// of a characterization instead of being rebuilt per scenario.
///
/// # Errors
///
/// Propagates synthesis and STA failures.
pub fn verify_deployment_cached(
    cells: &Arc<Library>,
    model: &AgingModel,
    characterization: &ComponentCharacterization,
    scenario: CharacterizationScenario,
    config: &VerifyConfig,
    netlists: &NetlistCache,
) -> Result<EntryVerdict, AixError> {
    let kind = characterization.kind();
    let width = characterization.width();
    let effort = characterization.effort();
    let scenario_label = scenario_string(scenario);

    // Re-derive the constraint from scratch — never trust the library's
    // own fresh anchor.
    let full = netlists.synthesize(cells, kind, width, width, effort)?;
    let constraint_ps = analyze(&full, &NetDelays::fresh(&full))?.max_delay_ps();

    let Some(precision) = characterization.required_precision(scenario) else {
        return Ok(EntryVerdict {
            kind,
            width,
            scenario: scenario_label,
            precision: None,
            constraint_ps,
            nominal_aged_ps: f64::NAN,
            verdict: VerdictKind::Uncompensable,
            stats: None,
            samples: 0,
            violation_error_rate: None,
            passed: true,
        });
    };

    let CharacterizationScenario::Uniform(aging) = scenario else {
        // Actual-case stress cannot be re-derived without re-running the
        // activity extraction; check the claim against the re-derived
        // constraint instead.
        let claimed = characterization
            .delay_ps(precision, scenario)
            .expect("required_precision returned an existing entry");
        let margin = constraint_ps - claimed;
        let stats = MarginStats::from_margins(&[margin], config.margin_target_ps);
        return Ok(EntryVerdict {
            kind,
            width,
            scenario: scenario_label,
            precision: Some(precision),
            constraint_ps,
            nominal_aged_ps: claimed,
            verdict: VerdictKind::ClaimOnly,
            stats: Some(stats),
            samples: 1,
            violation_error_rate: None,
            passed: margin >= config.margin_target_ps,
        });
    };

    let netlist = netlists.synthesize(cells, kind, width, precision, effort)?;
    let label = format!("{kind}-{width}-K{precision}@{scenario_label}");
    let (nominal, margins) =
        measure_margins(&netlist, model, aging, constraint_ps, config, &label)?;
    let stats = MarginStats::from_margins(&margins, config.margin_target_ps);
    let passed = stats.first_failure.is_none();

    // For violating entries, measure how observable the violation is at
    // the outputs: re-draw the samples and clock the worst one through the
    // timed simulator.
    let violation_error_rate = if !passed && config.sim_vectors > 0 {
        let base = NetDelays::aged(&netlist, model, aging);
        let mut rng = entry_rng(config.seed, &label);
        let mut worst: Option<(f64, NetDelays)> = None;
        for margin in &margins {
            let perturbed = config.perturbation.perturb(&mut rng, &netlist, &base);
            if worst.as_ref().is_none_or(|(m, _)| margin < m) {
                worst = Some((*margin, perturbed));
            }
        }
        let (_, delays) = worst.expect("at least one sample");
        Some(simulate_violation(
            &netlist,
            &delays,
            constraint_ps,
            width,
            config,
        )?)
    } else {
        None
    };

    Ok(EntryVerdict {
        kind,
        width,
        scenario: scenario_label,
        precision: Some(precision),
        constraint_ps,
        nominal_aged_ps: nominal,
        verdict: VerdictKind::MonteCarlo,
        stats: Some(stats),
        samples: margins.len(),
        violation_error_rate,
        passed,
    })
}

/// Verifies every deployment point of every characterization in `library`:
/// each aged scenario present in an entry set is checked at the precision
/// the flow would deploy under it.
///
/// Each entry is panic-isolated: a verification job that panics (a bug, or
/// an injected fault) surfaces as [`AixError::JobFailed`] naming that
/// entry, instead of aborting the whole campaign process.
///
/// # Errors
///
/// Propagates synthesis and STA failures; a panicking entry surfaces as
/// [`AixError::JobFailed`].
pub fn verify_library(
    cells: &Arc<Library>,
    library: &ApproxLibrary,
    model: &AgingModel,
    config: &VerifyConfig,
) -> Result<CampaignReport, AixError> {
    // One netlist cache for the whole campaign: every (kind, width,
    // precision) — notably each component's full-width constraint netlist —
    // is synthesized once, however many scenarios reference it.
    let netlists = NetlistCache::new();
    let campaign_span = aix_obs::span!(names::SPAN_CAMPAIGN, components = library.iter().count());
    let worklist = library
        .iter()
        .flat_map(|c| aged_scenarios(c).into_iter().map(move |s| (c, s)));
    let mut entries = Vec::new();
    for (characterization, scenario) in worklist {
        let entry_site = format!(
            "{}-w{}@{scenario}",
            characterization.kind(),
            characterization.width()
        );
        let entry_span = aix_obs::span!(names::SPAN_ENTRY, entry = &entry_site);
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            verify_deployment_cached(
                cells,
                model,
                characterization,
                scenario,
                config,
                &netlists,
            )
        }))
        .map_err(|payload| AixError::JobFailed {
            job: format!(
                "{} w{} @{scenario}",
                characterization.kind(),
                characterization.width()
            ),
            reason: format!("panicked: {}", aix_core::panic_message(payload)),
        })??;
        entry_span.close();
        aix_obs::count!(
            if verdict.passed { names::PASS } else { names::FAIL },
            entry = &entry_site,
        );
        entries.push(verdict);
    }
    campaign_span.close();
    Ok(CampaignReport {
        seed: config.seed,
        samples: config.samples.max(1),
        perturbation: config.perturbation,
        margin_target_ps: config.margin_target_ps,
        entries,
    })
}

/// The distinct non-fresh scenarios a characterization covers, in entry
/// order.
fn aged_scenarios(c: &ComponentCharacterization) -> Vec<CharacterizationScenario> {
    let mut scenarios: Vec<CharacterizationScenario> = Vec::new();
    for entry in c.entries() {
        if matches!(
            entry.scenario,
            CharacterizationScenario::Uniform(AgingScenario::Fresh)
        ) {
            continue;
        }
        let label = scenario_string(entry.scenario);
        if !scenarios.iter().any(|s| scenario_string(*s) == label) {
            scenarios.push(entry.scenario);
        }
    }
    scenarios
}

fn scenario_string(scenario: CharacterizationScenario) -> String {
    format!("{scenario}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_core::{characterize_component, CharacterizationConfig};

    fn cells() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn quick_library(cells: &Arc<Library>) -> ApproxLibrary {
        let mut lib = ApproxLibrary::new();
        lib.insert(
            characterize_component(
                cells,
                &CharacterizationConfig::quick(ComponentKind::Adder, 16),
            )
            .unwrap(),
        );
        lib
    }

    #[test]
    fn margin_stats_summarize_correctly() {
        let stats = MarginStats::from_margins(&[5.0, -1.0, 3.0, 2.0], 0.0);
        assert_eq!(stats.min_ps, -1.0);
        assert!((stats.mean_ps - 2.25).abs() < 1e-12);
        assert_eq!(stats.first_failure, Some(1));
        let clean = MarginStats::from_margins(&[5.0, 3.0], 0.0);
        assert_eq!(clean.first_failure, None);
        // A positive target can fail entries whose raw margin is positive.
        let strict = MarginStats::from_margins(&[5.0, 3.0], 4.0);
        assert_eq!(strict.first_failure, Some(1));
    }

    #[test]
    fn nominal_campaign_passes_characterized_library() {
        let cells = cells();
        let library = quick_library(&cells);
        let report = verify_library(
            &cells,
            &library,
            &AgingModel::calibrated(),
            &VerifyConfig::nominal(),
        )
        .unwrap();
        assert!(!report.entries.is_empty());
        assert!(report.all_passed(), "{}", report.render());
    }

    #[test]
    fn same_seed_identical_report() {
        let cells = cells();
        let library = quick_library(&cells);
        let model = AgingModel::calibrated();
        let config = VerifyConfig {
            samples: 16,
            ..VerifyConfig::default()
        };
        let a = verify_library(&cells, &library, &model, &config).unwrap();
        let b = verify_library(&cells, &library, &model, &config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        let other = verify_library(
            &cells,
            &library,
            &model,
            &VerifyConfig {
                seed: 7,
                samples: 16,
                ..VerifyConfig::default()
            },
        )
        .unwrap();
        assert_ne!(a.render(), other.render());
    }

    #[test]
    fn impossible_margin_target_fails_and_reports_first_sample() {
        let cells = cells();
        let library = quick_library(&cells);
        let config = VerifyConfig {
            samples: 4,
            margin_target_ps: 1e6,
            sim_vectors: 0,
            ..VerifyConfig::default()
        };
        let report =
            verify_library(&cells, &library, &AgingModel::calibrated(), &config).unwrap();
        assert!(!report.all_passed());
        for failure in report.failures() {
            assert_eq!(failure.stats.unwrap().first_failure, Some(0));
        }
    }
}
