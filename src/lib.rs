//! # aix — aging-induced approximations
//!
//! Facade crate re-exporting the whole workspace: a Rust reproduction of
//! *"Towards Aging-Induced Approximations"* (DAC 2017), which removes the
//! timing guardbands that transistor aging (BTI) normally demands by
//! converting the would-be timing errors into deterministic, bounded
//! precision reductions of the datapath's arithmetic components.
//!
//! Entry points:
//!
//! * [`core`] — the paper's methodology: component characterization
//!   (Eq. 2), the approximation library, and the microarchitecture flow
//!   (Fig. 6).
//! * [`aging`], [`cells`], [`netlist`], [`arith`], [`synth`], [`sta`],
//!   [`sim`], [`power`] — the EDA substrate everything is built on.
//! * [`verify`] — adversarial re-validation: Monte-Carlo guarantee
//!   verification and graceful precision degradation.
//! * [`faults`] — the deterministic fault-injection harness (`AIX_FAULT`)
//!   used to exercise campaign fault tolerance end to end.
//! * [`obs`] — the structured observability layer: hierarchical spans,
//!   typed metrics and the crash-safe JSONL event trace behind `--trace`.
//! * [`dct`], [`image`] — the error-tolerant multimedia case study.
//!
//! # Examples
//!
//! ```
//! use aix::aging::{AgingModel, Lifetime, StressFactor};
//!
//! // Ten years of worst-case BTI stress costs roughly 16 % gate delay —
//! // the guardband this workspace's methodology trades for precision.
//! let model = AgingModel::calibrated();
//! let factor = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_10);
//! assert!(factor > 1.1);
//! ```
//!
//! See the repository's `README.md` for a tour, `DESIGN.md` for the
//! substitution inventory and `EXPERIMENTS.md` for paper-vs-measured
//! results of every figure.

pub use aix_aging as aging;
pub use aix_arith as arith;
pub use aix_cells as cells;
pub use aix_core as core;
pub use aix_dct as dct;
pub use aix_explore as explore;
pub use aix_faults as faults;
pub use aix_image as image;
pub use aix_netlist as netlist;
pub use aix_obs as obs;
pub use aix_power as power;
pub use aix_sim as sim;
pub use aix_sta as sta;
pub use aix_synth as synth;
pub use aix_verify as verify;
