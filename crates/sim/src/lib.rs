//! Gate-level simulation: timed (event-driven) and functional, plus the
//! switching-activity and stress-factor extraction the paper's actual-case
//! aging analysis is built on.
//!
//! Every simulation mode has one production engine, and it is packed:
//! [`PackedEvaluator`] evaluates 64 stimulus vectors per `u64` word (up
//! to [`BLOCK_BATCHES`] words per net in one walk), and
//! [`PackedTimedSimulator`] propagates per-net waveforms on an integer
//! femtosecond tick grid ([`TICKS_PER_PS`]) for 64 vectors per walk — the
//! Rust counterpart of gate-level simulation with an aged `.sdf`. Outputs
//! are sampled at the clock edge (an arrival exactly on the edge is a
//! setup violation), so paths that have not settled yet produce exactly
//! the timing errors the paper's motivational study demonstrates. The
//! consumers built on them are [`measure_errors`] (Fig. 1),
//! [`Activity`] / [`stress_pairs`] (Fig. 5 and actual-case STA) and
//! [`simulate_faults`]. [`measure_errors`] needs only the outputs at the
//! clock edge, so it builds no waveforms: it compiles the netlist, its
//! delays and the clock into a straight-line program over the (net,
//! instant) pairs a sample can reach, and runs it after one
//! [`PackedEvaluator`] walk per block of up to [`BLOCK_VECTORS`] vectors,
//! the same blocks [`Activity`] counts over. The scalar [`TimedSimulator`] and
//! the loops in [`oracle`] are reference implementations the
//! differential suites compare the packed engines against.
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
mod timed_packed;
mod timed_program;

pub use activity::{
    collect_timed_activity, stress_histogram, stress_pairs, Activity, StressHistogram,
};
pub use errors::{measure_errors, ErrorStats};
pub use faults::{full_fault_list, simulate_faults, FaultCoverage, StuckAtFault};
pub use golden::{golden_lane_word, golden_lane_words, golden_word, reference_outputs};
pub use packed::{lane_mask, pack_batch, PackedEvaluator, BLOCK_BATCHES, BLOCK_VECTORS, LANES};
pub use stimuli::{NormalOperands, OperandSource, SignedNormalOperands, UniformOperands, VectorStream};
pub use timed::{ps_to_ticks, ticks_to_ps, StepOutcome, TimedSimulator, TICKS_PER_PS};
pub use timed_packed::{PackedStepOutcome, PackedTimedSimulator};
