//! Candidate evaluation: plan → optimize → functional error → aged STA.

use crate::candidate::Candidate;
use crate::pareto::Score;
use aix_aging::{AgingModel, AgingScenario};
use aix_cells::Library;
use aix_core::{AixError, ComponentKind};
use aix_obs::names::explore as names;
use aix_sim::{
    golden_lane_words, golden_word, pack_batch, OperandSource, PackedEvaluator, UniformOperands,
    BLOCK_VECTORS, LANES,
};
use aix_sta::{analyze, NetDelays};
use aix_synth::Planner;
use std::sync::Arc;

/// Everything a candidate evaluation needs besides the candidate itself.
/// Built once per search and shared across the `parallel_map` fan-out.
#[derive(Debug, Clone)]
pub struct ScoreContext {
    /// Cell library candidates are built against.
    pub library: Arc<Library>,
    /// Aging scenario whose delays gate feasibility.
    pub scenario: AgingScenario,
    /// Clock period: the exact component's aged critical-path delay, ps.
    pub clock_ps: f64,
    /// The seeded stimuli [`BLOCK_VECTORS`] at a time, packed batch-major
    /// by [`pack_batch`] (each batch's lane words in input order), so
    /// every candidate reuses one transpose and walks its netlist once per
    /// block.
    blocks: Vec<Vec<u64>>,
    /// Exact arithmetic reference value per stimulus vector.
    exact: Vec<u64>,
}

impl ScoreContext {
    /// A context scoring against `stimuli` and their `exact` reference
    /// values (as [`stimuli_for`](Self::stimuli_for) makes them). The
    /// stimuli are packed here, once for every candidate of a search.
    ///
    /// # Panics
    ///
    /// Panics if `stimuli` and `exact` differ in length.
    pub fn new(
        library: Arc<Library>,
        scenario: AgingScenario,
        (stimuli, exact): (Vec<Vec<bool>>, Vec<u64>),
        clock_ps: f64,
    ) -> Self {
        assert_eq!(stimuli.len(), exact.len(), "one exact value per stimulus");
        let blocks = stimuli.chunks(BLOCK_VECTORS).map(pack_batch).collect();
        ScoreContext {
            library,
            scenario,
            clock_ps,
            blocks,
            exact,
        }
    }

    /// Generates the seeded stimuli and exact reference values for `kind` at
    /// `width`: `count` uniform operand pairs (a MAC's accumulator is held
    /// at zero, as in the characterization flow).
    pub fn stimuli_for(
        kind: ComponentKind,
        width: usize,
        count: usize,
        seed: u64,
    ) -> (Vec<Vec<bool>>, Vec<u64>) {
        let source = UniformOperands::new(width, seed);
        let stimuli: Vec<Vec<bool>> = match kind {
            ComponentKind::Mac => source.vectors_with_zeros(count, 2 * width).collect(),
            _ => source.vectors(count).collect(),
        };
        let exact = stimuli
            .iter()
            .map(|vector| exact_value(kind, width, vector))
            .collect();
        (stimuli, exact)
    }
}

/// The exact full-precision arithmetic result for one flattened stimulus
/// vector, expressed in the component's output bit order.
fn exact_value(kind: ComponentKind, width: usize, vector: &[bool]) -> u64 {
    let a = golden_word(&vector[..width]);
    let b = golden_word(&vector[width..2 * width]);
    match kind {
        // Outputs are `sum[width]` then `cout`: the full (width+1)-bit sum.
        ComponentKind::Adder => a + b,
        ComponentKind::Multiplier => a.wrapping_mul(b),
        ComponentKind::Mac => {
            let acc = golden_word(&vector[2 * width..]);
            let mask = if width >= 32 {
                u64::MAX
            } else {
                (1u64 << (2 * width)) - 1
            };
            a.wrapping_mul(b).wrapping_add(acc) & mask
        }
    }
}

/// Running error statistics, fed one output word per stimulus in stimulus
/// order so the float sums round the same way on every run.
#[derive(Default)]
struct ErrorTally {
    erroneous: usize,
    sum_abs: f64,
    max_abs: f64,
}

impl ErrorTally {
    fn add(&mut self, got: u64, want: u64) {
        if got != want {
            self.erroneous += 1;
        }
        let abs = got.abs_diff(want) as f64;
        self.sum_abs += abs;
        if abs > self.max_abs {
            self.max_abs = abs;
        }
    }
}

/// Evaluates one candidate: functional error on the context's stimuli plus
/// aged critical-path delay and post-optimization gate count.
///
/// Deterministic for a fixed context: errors accumulate in stimulus order.
/// The packed evaluator walks the netlist once per pre-packed block; the
/// block's output words are then transposed batch by batch into one
/// golden word per lane and tallied in vector order.
///
/// Traced runs see the four steps as child spans of the candidate's span:
/// build (the generator writing into the optimizer's [`Planner`]),
/// optimize ([`Planner::finish`]), simulate (with the error tally) and
/// aged STA.
///
/// # Errors
///
/// Propagates build, simulation and STA failures.
pub fn score_candidate(context: &ScoreContext, candidate: &Candidate) -> Result<Score, AixError> {
    let _span = aix_obs::span!(names::SPAN_CANDIDATE, candidate = candidate.label());
    // `Candidate::build_optimized`, split at the planner for the spans.
    let planner = {
        let _span = aix_obs::span!(names::SPAN_BUILD);
        Planner::plan(candidate, &context.library)?
    };
    let optimized = {
        let _span = aix_obs::span!(names::SPAN_OPTIMIZE);
        planner.finish()?
    };

    let tally = {
        let _span = aix_obs::span!(names::SPAN_SIMULATE);
        let mut tally = ErrorTally::default();
        let mut packed = PackedEvaluator::new(&optimized)?;
        for (words, exact) in context
            .blocks
            .iter()
            .zip(context.exact.chunks(BLOCK_VECTORS))
        {
            packed.eval_packed(words, exact.len())?;
            for (batch, exact) in exact.chunks(LANES).enumerate() {
                let lanes = golden_lane_words(packed.batch_output_words(batch));
                for (&got, &want) in lanes.iter().zip(exact) {
                    tally.add(got, want);
                }
            }
        }
        tally
    };
    let vectors = context.exact.len().max(1) as f64;

    let aged_delay_ps = {
        let _span = aix_obs::span!(names::SPAN_STA);
        let delays = NetDelays::aged(&optimized, &AgingModel::calibrated(), context.scenario);
        analyze(&optimized, &delays)?.max_delay_ps()
    };

    Ok(Score {
        mean_abs_error: tally.sum_abs / vectors,
        max_abs_error: tally.max_abs,
        error_rate: tally.erroneous as f64 / vectors,
        aged_delay_ps,
        slack_ps: context.clock_ps - aged_delay_ps,
        gate_count: optimized.gate_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::Lifetime;

    fn context(kind: ComponentKind, width: usize) -> ScoreContext {
        let library = Arc::new(Library::nangate45_like());
        let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
        let baseline = Candidate::exact(kind, width)
            .build_optimized(&library)
            .unwrap();
        let delays = NetDelays::aged(&baseline, &AgingModel::calibrated(), scenario);
        let clock_ps = analyze(&baseline, &delays).unwrap().max_delay_ps();
        let stimuli = ScoreContext::stimuli_for(kind, width, 256, 42);
        ScoreContext::new(library, scenario, stimuli, clock_ps)
    }

    #[test]
    fn exact_candidate_scores_zero_error_and_zero_slack() {
        for kind in ComponentKind::ALL {
            let ctx = context(kind, 8);
            let score = score_candidate(&ctx, &Candidate::exact(kind, 8)).unwrap();
            assert_eq!(score.mean_abs_error, 0.0, "{kind:?}");
            assert_eq!(score.error_rate, 0.0, "{kind:?}");
            assert_eq!(score.slack_ps, 0.0, "{kind:?}");
            assert!(score.gate_count > 0);
        }
    }

    #[test]
    fn truncation_trades_error_for_slack_and_area() {
        let ctx = context(ComponentKind::Adder, 16);
        let truncated = Candidate::truncated(ComponentKind::Adder, 16, 10).unwrap();
        let score = score_candidate(&ctx, &truncated).unwrap();
        assert!(score.mean_abs_error > 0.0);
        assert!(
            score.slack_ps > 0.0,
            "truncation should shorten the aged path"
        );
        let exact = score_candidate(&ctx, &Candidate::exact(ComponentKind::Adder, 16)).unwrap();
        assert!(score.gate_count < exact.gate_count);
    }

    /// The block-walk scoring path against a tally recomputed from the
    /// scalar oracle's per-vector outputs, at vector counts that end in a
    /// partial batch, fill batches exactly, and span two blocks.
    #[test]
    fn lane_read_scores_match_the_scalar_oracle_tally() {
        for (kind, vectors) in ComponentKind::ALL
            .into_iter()
            .flat_map(|kind| [1, 63, 64, 65, 1000, 1089].map(|vectors| (kind, vectors)))
        {
            let library = Arc::new(Library::nangate45_like());
            let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
            let (stimuli, exact) = ScoreContext::stimuli_for(kind, 6, vectors, 42);
            let ctx = ScoreContext::new(library, scenario, (stimuli.clone(), exact.clone()), 0.0);
            for candidate in [
                Candidate::exact(kind, 6),
                Candidate::truncated(kind, 6, 3).unwrap(),
            ] {
                let netlist = candidate.build_optimized(&ctx.library).unwrap();
                let outputs = aix_sim::oracle::reference_outputs(&netlist, &stimuli).unwrap();
                let mut tally = ErrorTally::default();
                for (bits, &want) in outputs.iter().zip(&exact) {
                    tally.add(golden_word(bits), want);
                }
                let vectors = exact.len() as f64;
                let score = score_candidate(&ctx, &candidate).unwrap();
                assert_eq!(
                    score.mean_abs_error.to_bits(),
                    (tally.sum_abs / vectors).to_bits(),
                    "{candidate} on {vectors} vectors"
                );
                assert_eq!(score.max_abs_error, tally.max_abs, "{candidate}");
                assert_eq!(
                    score.error_rate.to_bits(),
                    (tally.erroneous as f64 / vectors).to_bits(),
                    "{candidate} on {vectors} vectors"
                );
            }
        }
    }

    #[test]
    fn scoring_is_deterministic() {
        let ctx = context(ComponentKind::Multiplier, 8);
        let candidate = Candidate::truncated(ComponentKind::Multiplier, 8, 6).unwrap();
        let a = score_candidate(&ctx, &candidate).unwrap();
        let b = score_candidate(&ctx, &candidate).unwrap();
        assert_eq!(a, b);
    }
}
