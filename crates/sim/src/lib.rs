//! Gate-level simulation: timed (sampled at a clock edge) and functional,
//! plus the switching-activity and stress-factor extraction the paper's
//! actual-case aging analysis is built on.
//!
//! Every simulation mode has one production engine, and it is packed:
//! [`PackedEvaluator`] evaluates 64 stimulus vectors per `u64` word (up
//! to [`BLOCK_BATCHES`] words per net in one walk). Timed simulation —
//! the Rust counterpart of gate-level simulation with an aged `.sdf` —
//! needs only the outputs latched at the clock edge, so it builds no
//! waveforms: the netlist, its delays (on an integer femtosecond tick
//! grid, [`TICKS_PER_PS`]) and the clock compile into a straight-line
//! program over the (net, instant) pairs a sample can reach, and each
//! run of it follows one zero-delay [`PackedEvaluator`] walk. Outputs
//! are sampled at the clock edge (an arrival exactly on the edge is a
//! setup violation), so paths that have not settled yet produce exactly
//! the timing errors the paper's motivational study demonstrates.
//! [`measure_errors`] (Fig. 1) runs the program over one stimulus stream
//! in blocks of up to [`BLOCK_VECTORS`] vectors, the same blocks
//! [`Activity`] counts over; [`TimedStreams`] (the gate-level IDCT of
//! Fig. 2) runs it over up to 64 independent streams, one per lane. The
//! other consumers are [`Activity`] / [`stress_pairs`] (Fig. 5 and
//! actual-case STA) and [`simulate_faults`]. The scalar
//! [`TimedSimulator`] and the loops in [`oracle`] are reference
//! implementations the differential suites compare the packed engines
//! against.
//!
//! # Examples
//!
//! ```
//! use aix_arith::{build_adder, AdderKind, ComponentSpec};
//! use aix_cells::Library;
//! use aix_netlist::bus_from_u64;
//! use aix_sim::TimedSimulator;
//! use aix_sta::NetDelays;
//! use std::sync::Arc;
//!
//! let lib = Arc::new(Library::nangate45_like());
//! let adder = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8))?;
//! let delays = NetDelays::fresh(&adder);
//! let mut sim = TimedSimulator::new(&adder, &delays)?;
//! let mut inputs = bus_from_u64(3, 8);
//! inputs.extend(bus_from_u64(4, 8));
//! // With a generous clock the sampled outputs equal the settled outputs.
//! let out = sim.step(&inputs, 1e6)?;
//! assert_eq!(out.sampled, out.settled);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod activity;
mod errors;
mod faults;
mod golden;
pub mod oracle;
mod packed;
mod stimuli;
mod timed;
mod timed_program;

pub use activity::{stress_histogram, stress_pairs, Activity, StressHistogram};
pub use errors::{measure_errors, ErrorStats};
pub use faults::{full_fault_list, simulate_faults, FaultCoverage, StuckAtFault};
pub use golden::{golden_lane_word, golden_lane_words, golden_word, reference_outputs};
pub use packed::{lane_mask, pack_batch, PackedEvaluator, BLOCK_BATCHES, BLOCK_VECTORS, LANES};
pub use stimuli::{
    NormalOperands, OperandSource, SignedNormalOperands, UniformOperands, VectorStream,
};
pub use timed::{ps_to_ticks, ticks_to_ps, StepOutcome, TimedSimulator, TICKS_PER_PS};
pub use timed_program::TimedStreams;

/// The packed timed paths checked vector by vector against the scalar
/// [`TimedSimulator`]: the sampling program's stream mode, one stream
/// chained across batches of up to 64 vectors, and its per-lane mode
/// behind [`TimedStreams`], up to 64 independent streams.
#[cfg(test)]
mod timed_packed {
    mod tests {
        use crate::packed::{PackedEvaluator, LANES};
        use crate::timed::clock_ticks;
        use crate::timed_program::TimedProgram;
        use crate::{OperandSource, TimedSimulator, TimedStreams, UniformOperands};
        use aix_arith::{build_adder, AdderKind, ComponentSpec};
        use aix_cells::Library;
        use aix_netlist::Netlist;
        use aix_sta::{analyze, NetDelays};

        fn adder(kind: AdderKind, width: usize) -> Netlist {
            let lib = std::sync::Arc::new(Library::nangate45_like());
            build_adder(&lib, kind, ComponentSpec::full(width)).unwrap()
        }

        /// Lane `lane` of packed sampled and settled output words, as the
        /// scalar engine reports them: sampled bits, settled bits, and
        /// whether they differ.
        fn lane_outcome(
            sampled: &[u64],
            settled: &[u64],
            lane: usize,
        ) -> (Vec<bool>, Vec<bool>, bool) {
            let bits = |words: &[u64]| -> Vec<bool> {
                words.iter().map(|word| (word >> lane) & 1 == 1).collect()
            };
            let (sampled, settled) = (bits(sampled), bits(settled));
            let error = sampled != settled;
            (sampled, settled, error)
        }

        fn assert_stream_matches_scalar(
            nl: &Netlist,
            delays: &NetDelays,
            clock_ps: f64,
            vectors: Vec<Vec<bool>>,
        ) {
            let mut scalar = TimedSimulator::new(nl, delays).unwrap();
            let mut golden = PackedEvaluator::new(nl).unwrap();
            let mut program =
                TimedProgram::compile(nl, delays, clock_ticks(clock_ps).unwrap()).unwrap();
            for (batch, chunk) in vectors.chunks(LANES).enumerate() {
                golden.eval_batch(chunk).unwrap();
                program.run(golden.net_words(), chunk.len());
                let sampled: Vec<u64> = program.sampled_words(0).collect();
                for (lane, vector) in chunk.iter().enumerate() {
                    let expect = scalar.step(vector, clock_ps).unwrap();
                    assert_eq!(
                        lane_outcome(&sampled, golden.output_words(), lane),
                        (expect.sampled, expect.settled, expect.timing_error),
                        "vector {} diverged",
                        batch * LANES + lane
                    );
                }
            }
        }

        #[test]
        fn stream_batches_match_scalar_fresh() {
            let nl = adder(AdderKind::RippleCarry, 8);
            let delays = NetDelays::fresh(&nl);
            let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.4;
            let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 11).vectors(200).collect();
            assert_stream_matches_scalar(&nl, &delays, clock, vectors);
        }

        #[test]
        fn stream_batches_match_scalar_aged() {
            use aix_aging::{AgingModel, AgingScenario, Lifetime};
            let nl = adder(AdderKind::KoggeStone, 16);
            let fresh = NetDelays::fresh(&nl);
            let clock = analyze(&nl, &fresh).unwrap().max_delay_ps();
            let aged = NetDelays::aged(
                &nl,
                &AgingModel::calibrated(),
                AgingScenario::worst_case(Lifetime::from_years(20.0)),
            );
            let vectors: Vec<Vec<bool>> = UniformOperands::new(16, 13).vectors(320).collect();
            assert_stream_matches_scalar(&nl, &aged, clock, vectors);
        }

        #[test]
        fn lane_tail_counts_match_scalar() {
            let nl = adder(AdderKind::CarrySelect, 8);
            let delays = NetDelays::fresh(&nl);
            let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.3;
            for count in [1usize, 63, 64, 65] {
                let vectors: Vec<Vec<bool>> = UniformOperands::new(8, count as u64)
                    .vectors(count)
                    .collect();
                assert_stream_matches_scalar(&nl, &delays, clock, vectors);
            }
        }

        #[test]
        fn streams_mode_matches_per_lane_scalars() {
            // Three independent streams, one scalar simulator each.
            let nl = adder(AdderKind::RippleCarry, 4);
            let delays = NetDelays::fresh(&nl);
            let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.5;
            let streams: Vec<Vec<Vec<bool>>> = (0..3u64)
                .map(|s| UniformOperands::new(4, 100 + s).vectors(40).collect())
                .collect();
            let mut scalars: Vec<TimedSimulator> = (0..3)
                .map(|_| TimedSimulator::new(&nl, &delays).unwrap())
                .collect();
            let mut packed = TimedStreams::new(&nl, &delays, clock).unwrap();
            for step in 0..40 {
                let batch: Vec<Vec<bool>> = streams.iter().map(|s| s[step].clone()).collect();
                let error_lanes = packed.step(&batch).unwrap();
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let expect = scalar.step(&streams[lane][step], clock).unwrap();
                    let got = lane_outcome(packed.sampled_words(), packed.settled_words(), lane);
                    assert_eq!(
                        error_lanes >> lane & 1 == 1,
                        got.2,
                        "step {step} lane {lane}"
                    );
                    assert_eq!(
                        got,
                        (expect.sampled, expect.settled, expect.timing_error),
                        "step {step} lane {lane}"
                    );
                }
            }
        }

        #[test]
        fn mode_mixing_panics() {
            let nl = adder(AdderKind::RippleCarry, 4);
            let delays = NetDelays::fresh(&nl);
            let mut program =
                TimedProgram::compile(&nl, &delays, clock_ticks(100.0).unwrap()).unwrap();
            let mut golden = PackedEvaluator::new(&nl).unwrap();
            let batch: Vec<Vec<bool>> = UniformOperands::new(4, 1).vectors(2).collect();
            golden.eval_batch(&batch).unwrap();
            program.run_lanes(golden.net_words());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                program.run(golden.net_words(), batch.len());
            }));
            let message = result.expect_err("mixing modes must panic");
            let message = message
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| message.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("one program serves one mode"), "{message}");
        }
    }
}
