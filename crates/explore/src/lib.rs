//! Aging-aware design-space exploration over approximate arithmetic.
//!
//! The paper approximates by uniform LSB truncation alone; Balaskas et al.
//! (arXiv:2203.07962) show that *searching* gate-level approximations
//! against aging constraints dominates that single knob. This crate is that
//! search: candidates are real [`aix_netlist::Netlist`]s produced by the
//! variant generators in `aix-arith` (lower-OR adders, approximate full
//! adders, speculative segmentation, per-column multiplier pruning,
//! approximate final merges), each scored by
//!
//! * **error** — functional simulation on seeded stimuli against the exact
//!   arithmetic reference (`aix-sim`'s packed evaluator and golden words),
//! * **aged slack** — static timing under the scenario's aged delays
//!   (`aix-sta` + `aix-aging`), measured against the exact component's own
//!   aged delay as the clock, and
//! * **gate count** — after `aix-synth` constant propagation and dead-gate
//!   sweeping, so pruned logic really disappears.
//!
//! A greedy-seeded, deterministic evolutionary loop ([`explore`]) maintains
//! the Pareto front of (error, aged delay, gate count): generation zero is
//! the exact baseline plus uniform-truncation and single-knob ladders, and
//! each later generation mutates the surviving front. Evaluation fans out
//! through `aix-core::parallel_map` and scores every planned candidate
//! afresh, keeping nothing on disk; reports are byte-identical for any
//! `--jobs` count. Candidate failures
//! (including injected `AIX_FAULT` panics) are quarantined per candidate
//! and the search reports a partial front; a deadline
//! ([`ExploreConfig::deadline`]) stops the search between evaluations.

mod candidate;
mod pareto;
mod score;
mod search;

pub use candidate::Candidate;
pub use pareto::{FrontPoint, ParetoFront, Score};
pub use score::{score_candidate, ScoreContext};
pub use search::{explore, seed_candidates, ExploreConfig, ExploreOutcome, QuarantinedCandidate};
