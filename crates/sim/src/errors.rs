//! Timing-error statistics: the paper's motivational measurement (Fig. 1).

use crate::golden::golden_lane_word;
use crate::packed::{PackedEvaluator, LANES};
use crate::timed::clock_ticks;
use crate::timed_program::TimedProgram;
use aix_netlist::{Netlist, NetlistError};
use aix_sta::NetDelays;

/// Error statistics of a component clocked at a fixed period while its
/// gates carry (possibly aged) delays.
///
/// The paper reports the *percentage of erroneous outputs*: the fraction of
/// applied input vectors for which at least one output bit is latched
/// before it settles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Vectors simulated.
    pub vectors: u64,
    /// Vectors whose sampled output differed from the settled output.
    pub erroneous: u64,
    /// Total output bits that were wrong, across all vectors.
    pub wrong_bits: u64,
    /// Mean absolute numeric error of the sampled output word, interpreting
    /// outputs as unsigned integers (capped at 64 bits).
    pub mean_abs_error: f64,
    /// Maximum absolute numeric error observed.
    pub max_abs_error: u64,
}

impl ErrorStats {
    /// Fraction of vectors with at least one wrong output bit, in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        if self.vectors == 0 {
            0.0
        } else {
            self.erroneous as f64 / self.vectors as f64
        }
    }

    /// Error rate as a percentage, as reported in the paper's figures.
    pub fn error_percent(&self) -> f64 {
        self.error_rate() * 100.0
    }
}

/// Empty statistics plus a zero running sum of absolute errors.
pub(crate) fn new_stats() -> (ErrorStats, f64) {
    (
        ErrorStats {
            vectors: 0,
            erroneous: 0,
            wrong_bits: 0,
            mean_abs_error: 0.0,
            max_abs_error: 0,
        },
        0.0f64,
    )
}

/// Clocks `netlist` at `clock_ps` with the given delay annotation and
/// measures how often sampled outputs are wrong over `stimuli`.
///
/// Demand-driven: the call first compiles the netlist, its quantized
/// delays and the clock tick into a straight-line program with one op
/// per (net, instant) pair that can reach an output sampled at the clock
/// edge. The stimuli are then packed as they arrive into blocks of up to
/// [`BLOCK_VECTORS`](crate::BLOCK_VECTORS) vectors. Each block costs one
/// zero-delay packed walk, which yields the old and settled rows of
/// every net, plus one run of that program over rows of the same width.
/// No waveform is built. Every per-lane outcome equals the scalar
/// [`oracle::measure_errors`](crate::oracle::measure_errors), and errors
/// are tallied batch by batch, lanes in stimulus order, so the
/// floating-point sums and the two results are byte-identical.
///
/// Numeric error statistics are only meaningful for netlists whose outputs
/// form one unsigned word (ports in LSB-first order), which holds for every
/// generator in `aix-arith`; for wider outputs the word is truncated to the
/// low 64 bits.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidClock`] for a NaN or negative
/// `clock_ps` (`+∞` never samples); propagates netlist, delay and width
/// errors.
pub fn measure_errors<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    stimuli: I,
) -> Result<ErrorStats, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    let clock_ticks = clock_ticks(clock_ps)?;
    let (mut program, _span) =
        TimedProgram::compile_traced(netlist, delays, clock_ticks, "measure_errors")?;
    let mut golden = PackedEvaluator::new(netlist)?;
    let (mut stats, mut total_abs_error) = new_stats();
    let mut sampled_words = vec![0u64; netlist.outputs().len()];
    golden.eval_stream(stimuli, |golden| {
        // One zero-delay walk gives every net's settled row; the program
        // derives the old rows from it and samples the outputs.
        let vectors = golden.vectors();
        program.run(golden.net_words(), vectors);
        // Batch by batch, so lanes are tallied in stimulus order.
        for batch in 0..golden.width() {
            for (word, sampled) in sampled_words.iter_mut().zip(program.sampled_words(batch)) {
                *word = sampled;
            }
            let lanes = (vectors - batch * LANES).min(LANES);
            tally(
                &sampled_words,
                golden.batch_output_words(batch),
                lanes,
                &mut stats,
                &mut total_abs_error,
            );
        }
    })?;
    aix_obs::count_by!(
        aix_obs::names::sim::TIMED_PROGRAM_OPS,
        program.live_pairs() as u64 * stats.vectors.div_ceil(LANES as u64),
        consumer = "measure_errors"
    );
    if stats.vectors > 0 {
        stats.mean_abs_error = total_abs_error / stats.vectors as f64;
    }
    Ok(stats)
}

/// Adds one batch of `lanes` vectors to the statistics: sampled against
/// settled output words, port order. Numeric errors are summed lane by
/// lane in stimulus order, so the f64 accumulation matches the scalar
/// engine bit for bit.
fn tally(
    sampled_words: &[u64],
    settled_words: &[u64],
    lanes: usize,
    stats: &mut ErrorStats,
    total_abs_error: &mut f64,
) {
    let mask = crate::lane_mask(lanes);
    let mut erroneous_lanes = 0;
    for (&sampled, &settled) in sampled_words.iter().zip(settled_words) {
        let diff = (sampled ^ settled) & mask;
        stats.wrong_bits += u64::from(diff.count_ones());
        erroneous_lanes |= diff;
    }
    stats.vectors += lanes as u64;
    stats.erroneous += u64::from(erroneous_lanes.count_ones());
    let mut remaining = erroneous_lanes;
    while remaining != 0 {
        let lane = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        let err =
            golden_lane_word(sampled_words, lane).abs_diff(golden_lane_word(settled_words, lane));
        *total_abs_error += err as f64;
        stats.max_abs_error = stats.max_abs_error.max(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NormalOperands, OperandSource};
    use aix_aging::{AgingModel, AgingScenario, Lifetime};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_sta::analyze;
    use std::sync::Arc;

    fn setup(width: usize) -> (Netlist, f64) {
        // Kogge-Stone: a balanced tree whose paths sit near the critical
        // path, so aging-induced violations are actually exercised.
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(width)).unwrap();
        let clock = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        (nl, clock)
    }

    #[test]
    fn fresh_circuit_at_fresh_clock_is_error_free() {
        let (nl, clock) = setup(12);
        // 1 ps of margin over the STA critical path absorbs both the
        // edge-exclusive sampling rule and per-arc tick rounding.
        let stats = measure_errors(
            &nl,
            &NetDelays::fresh(&nl),
            clock + 1.0,
            NormalOperands::new(12, 1).vectors(300),
        )
        .unwrap();
        assert_eq!(stats.erroneous, 0);
        assert_eq!(stats.error_rate(), 0.0);
        assert_eq!(stats.vectors, 300);
    }

    #[test]
    fn aged_circuit_at_fresh_clock_errs_and_grows_with_lifetime() {
        let (nl, clock) = setup(32);
        let model = AgingModel::calibrated();
        let rate = |years: f64| {
            let delays = NetDelays::aged(
                &nl,
                &model,
                AgingScenario::worst_case(Lifetime::from_years(years)),
            );
            measure_errors(
                &nl,
                &delays,
                clock,
                NormalOperands::new(32, 2).vectors(2000),
            )
            .unwrap()
            .error_rate()
        };
        let y1 = rate(1.0);
        let y10 = rate(10.0);
        assert!(y10 > 0.0, "10-year worst-case aging must produce errors");
        assert!(y10 >= y1, "errors must not shrink with lifetime: {y1} vs {y10}");
    }

    #[test]
    fn balanced_stress_errs_no_more_than_worst() {
        let (nl, clock) = setup(16);
        let model = AgingModel::calibrated();
        let rate = |scenario| {
            let delays = NetDelays::aged(&nl, &model, scenario);
            measure_errors(
                &nl,
                &delays,
                clock,
                NormalOperands::new(16, 3).vectors(400),
            )
            .unwrap()
            .error_rate()
        };
        let balanced = rate(AgingScenario::balanced(Lifetime::YEARS_10));
        let worst = rate(AgingScenario::worst_case(Lifetime::YEARS_10));
        assert!(balanced <= worst, "balanced {balanced} vs worst {worst}");
    }

    #[test]
    fn error_magnitude_tracked() {
        let (nl, clock) = setup(16);
        let model = AgingModel::calibrated();
        let delays = NetDelays::aged(
            &nl,
            &model,
            AgingScenario::worst_case(Lifetime::YEARS_10),
        );
        let stats = measure_errors(
            &nl,
            &delays,
            clock,
            NormalOperands::new(16, 4).vectors(400),
        )
        .unwrap();
        if stats.erroneous > 0 {
            assert!(stats.wrong_bits >= stats.erroneous);
            assert!(stats.max_abs_error > 0);
            assert!(stats.mean_abs_error > 0.0);
        }
    }

    /// Net k = XOR(net k − 1, input k mod 8): every net of the chain can
    /// change at each of its k arrival ticks, so its window is wide and
    /// sampling mid-chain needs one op per net down to the middle.
    fn xor_chain(gates: usize) -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        let xor = lib
            .find(aix_cells::CellFunction::Xor2, aix_cells::DriveStrength::X1)
            .unwrap();
        let mut nl = Netlist::new("xor-chain", Arc::clone(&lib));
        let inputs: Vec<_> = (0..8).map(|i| nl.add_input(format!("in{i}"))).collect();
        let mut net = inputs[0];
        for k in 1..=gates {
            net = nl.add_gate(xor, &[net, inputs[k % 8]]).unwrap()[0];
        }
        nl.mark_output("out", net);
        nl
    }

    #[test]
    fn glitchy_chain_matches_the_oracle() {
        let nl = xor_chain(400);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.5;
        let vectors: Vec<Vec<bool>> = crate::UniformOperands::new(4, 5).vectors(70).collect();
        let expected =
            crate::oracle::measure_errors(&nl, &delays, clock, vectors.iter().cloned()).unwrap();
        let actual = measure_errors(&nl, &delays, clock, vectors).unwrap();
        assert_eq!(actual, expected);
        assert!(actual.erroneous > 0, "half the chain's delay must err");
    }

    #[test]
    fn deep_netlists_compile_without_recursion() {
        // About 10 000 ops deep: far past what a recursive walk survives on
        // a test thread's stack. Each net glitches once per arrival, so the
        // scalar engine would take quadratic time here; no oracle.
        let nl = xor_chain(20_000);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.5;
        let program = TimedProgram::compile(&nl, &delays, clock_ticks(clock).unwrap()).unwrap();
        assert!(program.live_pairs() > 9_000, "{} ops", program.live_pairs());
        let vectors = crate::UniformOperands::new(4, 5).vectors(70);
        let stats = measure_errors(&nl, &delays, clock, vectors).unwrap();
        assert_eq!(stats.vectors, 70);
        assert!(stats.erroneous > 0, "half the chain's delay must err");
    }
}
