//! Logic-synthesis substrate.
//!
//! Stands in for the commercial synthesis flow the paper drives
//! ("ultra compile" in Synopsys Design Compiler):
//!
//! * [`optimize`] — constant propagation plus dead-gate sweeping. Applied
//!   to a truncated arithmetic component this removes the logic cone of the
//!   tied-off LSBs, i.e. it *is* re-synthesis at reduced precision, which
//!   shortens the component's critical path (the mechanism Eq. 2 exploits).
//! * [`size_for_performance`] — greedy critical-path drive-strength
//!   upsizing, the timing-driven optimization that gives highly optimized
//!   netlists their near-critical "slack wall".
//! * [`recover_area`] — slack-driven downsizing back to the achieved
//!   delay. Both passes time their moves with one
//!   [`aix_sta::IncrementalTimer`].
//! * [`Synthesizer`] — effort-driven mapping of adders/multipliers/MACs to
//!   architectures, composing generation and the [`compile`] recipe
//!   (optimization, sizing, area recovery).
//! * [`aging_aware_synthesize`] — the DAC'16 baseline: re-size cells using
//!   degradation-aware timing until the *aged* netlist meets the fresh
//!   constraint, trading area and power for resilience.
//!
//! # Examples
//!
//! ```
//! use aix_arith::ComponentSpec;
//! use aix_cells::Library;
//! use aix_synth::{Effort, Synthesizer};
//! use std::sync::Arc;
//!
//! let lib = Arc::new(Library::nangate45_like());
//! let synth = Synthesizer::new(lib, Effort::Ultra);
//! let full = synth.adder(ComponentSpec::full(16))?;
//! let cut = synth.adder(ComponentSpec::new(16, 10)?)?;
//! // Re-synthesis at reduced precision shrinks the netlist.
//! assert!(cut.gate_count() < full.gate_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod aging_aware;
mod opt;
#[cfg(test)]
mod oracle;
mod sizing;
mod synthesizer;

pub use aging_aware::{aging_aware_synthesize, AgingAwareOutcome};
pub use opt::{optimize, Planner};
pub use sizing::{recover_area, size_for_performance, RecoveryOutcome, SizingOutcome};
pub use synthesizer::{compile, Effort, ParseEffortError, Synthesizer};
