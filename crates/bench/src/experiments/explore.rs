//! Aging-aware approximation search versus the paper's uniform truncation.
//!
//! Not a paper figure — the paper approximates by uniform LSB truncation
//! alone. This experiment runs the `aix-explore` Pareto search over the
//! gate-level variant space (lower-OR adders, approximate full adders,
//! column-pruned multipliers, approximate merges) on the study components
//! and checks, per truncation operating point, whether a searched variant
//! achieves strictly lower error at equal-or-better aged slack, and
//! asserts that it does at one point at least on each component.

use crate::{engine_options, Options, Table};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_core::ComponentKind;
use aix_explore::{explore, Candidate, ExploreConfig, ScoreContext, Score, score_candidate};
use aix_cells::Library;
use aix_sta::{analyze, NetDelays};
use std::fmt::Write as _;
use std::sync::Arc;

/// The stimulus seed every search and baseline uses — pinned so CI
/// reproduces the same front byte-for-byte.
pub const SEED: u64 = 1;

/// One truncation operating point with the searched variant that beats it
/// (if any).
struct Comparison {
    truncation: String,
    trunc_score: Score,
    winner: Option<(String, Score)>,
}

/// Scores the uniform-truncation ladder with the same stimuli, clock and
/// engine as the search, keeping dominated points the front would drop —
/// the baseline curve needs every operating point.
fn truncation_ladder(
    context: &ScoreContext,
    kind: ComponentKind,
    width: usize,
    depth: usize,
) -> Vec<(String, Score)> {
    let mut ladder = Vec::new();
    for precision in (width.saturating_sub(depth).max(1)..width).rev() {
        let Some(candidate) = Candidate::truncated(kind, width, precision) else {
            continue;
        };
        let score = score_candidate(context, &candidate)
            .expect("truncated study components evaluate cleanly");
        ladder.push((candidate.label(), score));
    }
    ladder
}

/// Runs the search-vs-truncation comparison for one component.
fn compare(
    cells: &Arc<Library>,
    kind: ComponentKind,
    width: usize,
    options: &Options,
    out: &mut String,
) {
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
    let mut config = ExploreConfig::new(kind, width);
    config.scenario = scenario;
    config.seed = SEED;
    config.budget = options.scaled("budget", 96, 256);
    config.vectors = options.scaled("vectors", 1_024, 4_096);
    config.jobs = engine_options()
        .unwrap_or_else(|error| panic!("{error}"))
        .resolved_jobs();
    let outcome = explore(cells, &config).expect("search on study components");
    assert!(
        outcome.quarantined.is_empty() && !outcome.cancelled,
        "search must complete cleanly without fault injection"
    );

    // Same stimuli and clock as the search, rebuilt from public parts so
    // the baseline scores line up exactly with the front's.
    let optimized = Candidate::exact(kind, width)
        .build_optimized(cells)
        .expect("exact study component");
    let delays = NetDelays::aged(&optimized, &AgingModel::calibrated(), scenario);
    let clock_ps = analyze(&optimized, &delays)
        .expect("acyclic generator netlist")
        .max_delay_ps();
    assert_eq!(clock_ps, outcome.clock_ps, "baseline clock must match the search's");
    let context = ScoreContext::new(
        Arc::clone(cells),
        scenario,
        ScoreContext::stimuli_for(kind, width, config.vectors, SEED),
        clock_ps,
    );
    let ladder = truncation_ladder(&context, kind, width, 8);

    // Searched variants only: truncation expressed in variant space has
    // every knob at its exact setting, so `is_exact` filters it out.
    let searched: Vec<_> = outcome
        .front
        .iter()
        .filter(|p| !p.candidate.is_exact())
        .collect();

    let comparisons: Vec<Comparison> = ladder
        .into_iter()
        .map(|(truncation, trunc_score)| {
            let winner = searched
                .iter()
                .filter(|p| {
                    p.score.slack_ps >= trunc_score.slack_ps
                        && p.score.mean_abs_error < trunc_score.mean_abs_error
                })
                .min_by(|a, b| a.score.mean_abs_error.total_cmp(&b.score.mean_abs_error))
                .map(|p| (p.candidate.label(), p.score));
            Comparison { truncation, trunc_score, winner }
        })
        .collect();
    let wins = comparisons.iter().filter(|c| c.winner.is_some()).count();

    let _ = writeln!(
        out,
        "{kind}-{width} under {scenario}: clock {clock_ps:.3} ps, \
         {} candidates scored, front size {} ({} searched variants)\n",
        outcome.evaluated + outcome.cache_hits,
        outcome.front.len(),
        searched.len(),
    );
    let mut table = Table::new(&[
        "truncation",
        "mean|err|",
        "slack [ps]",
        "searched winner",
        "mean|err|",
        "slack [ps]",
    ]);
    for c in &comparisons {
        let (winner, err, slack) = match &c.winner {
            Some((label, score)) => (
                label.clone(),
                format!("{:.4}", score.mean_abs_error),
                format!("{:.3}", score.slack_ps),
            ),
            None => ("(none)".to_owned(), "-".to_owned(), "-".to_owned()),
        };
        table.row_owned(vec![
            c.truncation.clone(),
            format!("{:.4}", c.trunc_score.mean_abs_error),
            format!("{:.3}", c.trunc_score.slack_ps),
            winner,
            err,
            slack,
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nsearched variants beat uniform truncation at {wins} of {} operating points\n",
        comparisons.len(),
    );

    assert!(
        wins > 0,
        "{kind}-{width}: the searched front must beat uniform truncation \
         at at least one operating point"
    );
}

/// Runs the approximation-search experiment.
pub fn run(options: &Options) -> String {
    let cells = Arc::new(Library::nangate45_like());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "explore — searched approximation front vs uniform truncation (seed {SEED})\n"
    );
    compare(&cells, ComponentKind::Adder, 32, options, &mut out);
    compare(&cells, ComponentKind::Multiplier, 16, options, &mut out);
    let _ = writeln!(
        out,
        "expected shape: at every win row the searched variant has strictly\n\
         lower mean error at equal-or-better aged slack than the truncation\n\
         point — multi-knob search dominates the paper's single knob."
    );
    out
}
