//! Aging-induced approximations — the paper's primary contribution.
//!
//! Aging (BTI) slows transistors over a circuit's lifetime; the
//! conventional remedy is a timing guardband, paid in clock frequency.
//! This crate removes the guardband by converting the *nondeterministic
//! timing errors* that would otherwise appear into *deterministic, bounded
//! approximations*: a reduction in arithmetic precision whose delay saving
//! compensates the aging-induced delay increase (Eq. 2 of the paper):
//!
//! ```text
//! t_C(Aging, K) ≤ t_C(noAging, N),   K < N
//! ```
//!
//! Two layers implement the methodology:
//!
//! * **Component characterization** ([`characterize_component`],
//!   [`ComponentCharacterization`]) — sweep an RTL component's precision
//!   under aging-aware STA and relate delay to precision (paper Fig. 3,
//!   Fig. 4, Fig. 7). Characterizations are collected into an
//!   [`ApproxLibrary`], the "library of aging-induced approximations".
//! * **Microarchitecture flow** ([`MicroarchDesign`],
//!   [`apply_aging_approximations`]) — given a whole design's timing
//!   constraint, compute every block's aged slack, look the required
//!   precision up in the library, modify the design and validate
//!   (paper Fig. 6, Fig. 8a) — no gate-level simulation needed.
//!
//! # Examples
//!
//! ```
//! use aix_core::{characterize_component, CharacterizationConfig, ComponentKind};
//! use aix_aging::{AgingScenario, Lifetime};
//! use aix_cells::Library;
//! use std::sync::Arc;
//!
//! let lib = Arc::new(Library::nangate45_like());
//! let config = CharacterizationConfig::quick(ComponentKind::Adder, 16);
//! let characterization = characterize_component(&lib, &config)?;
//! // Eq. 2: some reduced precision absorbs 10 years of worst-case aging.
//! let k = characterization
//!     .required_precision(AgingScenario::worst_case(Lifetime::YEARS_10))
//!     .expect("aging is compensable for this adder");
//! assert!(k < 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod actual;
mod characterize;
mod component;
mod engine;
mod error;
pub mod fsutil;
mod guard;
mod idct;
mod imported;
mod library;
mod microarch;
mod quality;
mod savings;
mod schedule;

pub use actual::{actual_case_delays, idct_operand_trace, ActualCaseStress, StimulusKind};
pub use characterize::{
    characterize_component, CharacterizationConfig, CharacterizationEntry,
    CharacterizationScenario, ComponentCharacterization,
};
pub use component::{ComponentKind, ParseComponentKindError};
pub use engine::{
    default_cache_dir, parallel_map, parse_timeout, Campaign, CampaignStatus,
    CharacterizationEngine, EngineOptions, EngineReport, JobFailure,
};
pub use error::AixError;
pub use guard::{contain_panic, run_guarded};
pub use idct::{idct_design, IDCT_BLOCK_NAMES};
pub use imported::{
    characterize_imported, input_buses, load_imported, truncate_imported, verify_imported,
    ImportedConfig, ImportedReport, ImportedVariant, ImportedVerify, InputBus,
};
pub use library::{ApproxLibrary, ParseLibraryError};
pub use microarch::{
    apply_aging_approximations, ApproximationPlan, BlockPlan, FlowError, MicroarchBlock,
    MicroarchDesign, ValidationReport,
};
pub use quality::{
    average_psnr_db, evaluate_sequences, evaluate_video, SequenceQuality, PIPELINE_JPEG_QUALITY,
};
pub use savings::DesignMetrics;
pub use savings::{compare_against_aging_aware, SavingsReport};
pub use schedule::{plan_degradation_schedule, DegradationSchedule, ScheduleStep};
