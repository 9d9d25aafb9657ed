//! Aging-aware static timing analysis (STA).
//!
//! Computes arrival times over a combinational [`aix_netlist::Netlist`]
//! using load-dependent cell delays, optionally degraded by an aging
//! condition: uniform worst-case / balanced stress, or per-gate *actual
//! case* stress extracted from switching activity. This is the Rust
//! counterpart of running Synopsys STA with the degradation-aware cell
//! library, the workhorse of the paper's characterization flow.
//!
//! # Examples
//!
//! ```
//! use aix_arith::{build_adder, AdderKind, ComponentSpec};
//! use aix_cells::Library;
//! use aix_sta::{analyze, NetDelays, StressSource};
//! use aix_aging::{AgingModel, AgingScenario, Lifetime};
//! use std::sync::Arc;
//!
//! let lib = Arc::new(Library::nangate45_like());
//! let adder = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16))?;
//! let model = AgingModel::calibrated();
//!
//! let fresh = analyze(&adder, &NetDelays::fresh(&adder))?;
//! let aged = analyze(
//!     &adder,
//!     &NetDelays::aged(&adder, &model, AgingScenario::worst_case(Lifetime::YEARS_10)),
//! )?;
//! assert!(aged.max_delay_ps() > fresh.max_delay_ps());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analysis;
mod delays;
mod incremental;
mod required;
mod sdf;
mod slack;

pub use analysis::{analyze, critical_path, TimingReport};
pub use delays::{NetDelays, StressSource};
pub use incremental::IncrementalTimer;
pub use required::SlackReport;
pub use sdf::to_sdf;
pub use slack::ClockConstraint;
