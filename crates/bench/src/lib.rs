//! Experiment harness regenerating every figure of the paper's evaluation.
//!
//! Each `experiments::figN` module produces the series the corresponding
//! paper figure reports; the `exp-*` binaries are thin wrappers, and
//! `exp-all` runs the full set. Shared infrastructure (argument parsing,
//! table rendering, building the approximation library) lives at the
//! crate root.
//!
//! Absolute numbers come from this workspace's simulated 45 nm substrate,
//! not the authors' Synopsys/NanGate testbed — the *shape* of every result
//! (who wins, direction, rough factors, crossover points) is the
//! reproduction target. `EXPERIMENTS.md` records paper-vs-measured for
//! every figure.

pub mod experiments;
mod options;
mod table;

pub use options::{engine_options, Options};
pub use table::Table;

use aix_cells::Library;
use aix_core::{ApproxLibrary, CharacterizationConfig, CharacterizationEngine, ComponentKind};
use std::sync::Arc;

/// The operand width the paper's component studies use.
pub const STUDY_WIDTH: usize = 32;

/// Builds the approximation library covering the paper's components:
/// 32-bit adder, multiplier and MAC plus the 16-bit adder of the IDCT's
/// rounding stage, each with [`CharacterizationConfig::paper_default`].
///
/// The build runs the [`CharacterizationEngine`] on [`engine_options`], so
/// `AIX_JOBS` sets its workers and the engine's persistent cache
/// (`AIX_CACHE`, default `out/cache/`) serves every job a previous build
/// finished. That cache is keyed by the cell library's content hash and
/// the aging-model calibration, so a retuned cell or a recalibrated model
/// is characterized afresh, never served stale. The engine's summary goes
/// to stderr.
///
/// # Errors
///
/// Propagates characterization errors.
pub fn build_library(cells: &Arc<Library>) -> Result<ApproxLibrary, Box<dyn std::error::Error>> {
    let engine = CharacterizationEngine::new(Arc::clone(cells), engine_options()?);
    let mut configs: Vec<CharacterizationConfig> = ComponentKind::ALL
        .iter()
        .map(|&kind| CharacterizationConfig::paper_default(kind, STUDY_WIDTH))
        .collect();
    configs.push(CharacterizationConfig::paper_default(
        ComponentKind::Adder,
        16,
    ));
    let (library, report) = engine.characterize_all(&configs)?;
    aix_obs::progress!("(characterization engine: {})", report.summary());
    Ok(library)
}
