//! Adversarial verification of aging-induced approximations.
//!
//! The core flow ([`aix_core`]) *derives* Eq. 2 guarantees analytically:
//! it characterizes components once, stores the result in an
//! [`aix_core::ApproxLibrary`], and trusts those numbers forever after.
//! This crate re-validates them the hard way and lets the flow degrade
//! gracefully when they do not hold:
//!
//! * [`campaign`] — a seeded **Monte-Carlo perturbation engine** that
//!   re-synthesizes every library entry, derates its aged delays with
//!   global + per-gate variation ([`Perturbation`]), re-runs STA per
//!   sample and reports per-entry pass/fail with slack-margin statistics
//!   (min/mean/p99, first-failing sample). Violating samples are clocked
//!   through the timed simulator to measure how *observable* the
//!   violation is.
//! * [`policy`] — **graceful degradation**: a [`VerifyPolicy`] gate on
//!   the microarchitecture flow. Under [`VerifyPolicy::Degrade`], a block
//!   whose planned precision fails verification loses one more LSB and is
//!   re-verified, bounded, until its *measured* aged delay meets the
//!   fresh full-precision constraint.
//!
//! # Examples
//!
//! ```
//! use aix_aging::AgingModel;
//! use aix_cells::Library;
//! use aix_core::{characterize_component, ApproxLibrary, CharacterizationConfig, ComponentKind};
//! use aix_verify::{verify_library, VerifyConfig};
//! use std::sync::Arc;
//!
//! let cells = Arc::new(Library::nangate45_like());
//! let mut library = ApproxLibrary::new();
//! library.insert(characterize_component(
//!     &cells,
//!     &CharacterizationConfig::quick(ComponentKind::Adder, 16),
//! )?);
//! // Without perturbation, characterization-produced entries always pass.
//! let report = verify_library(
//!     &cells,
//!     &library,
//!     &AgingModel::calibrated(),
//!     &VerifyConfig::nominal(),
//! )?;
//! assert!(report.all_passed());
//! # Ok::<(), aix_core::AixError>(())
//! ```

pub mod campaign;
pub mod perturb;
pub mod policy;

pub use campaign::{
    measure_margins, verify_library, CampaignReport, EntryVerdict, MarginStats, VerdictKind,
    VerifyConfig,
};
pub use perturb::{entry_rng, Perturbation};
pub use policy::{
    apply_aging_approximations_verified, BlockVerification, ParsePolicyError, VerifiedPlan,
    VerifyError, VerifyPolicy,
};
