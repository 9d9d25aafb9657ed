//! Experiment harness regenerating every figure of the paper's evaluation.
//!
//! Each `experiments::figN` module produces the series the corresponding
//! paper figure reports; the `exp-*` binaries are thin wrappers, and
//! `exp-all` runs the full set. Shared infrastructure (argument parsing,
//! table rendering, the cached approximation library) lives at the crate
//! root.
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
use aix_synth::Effort;
use std::path::Path;
use std::sync::Arc;

/// The operand width the paper's component studies use.
pub const STUDY_WIDTH: usize = 32;

/// Builds (or reloads from `cache_path`) the approximation library covering
/// the paper's components: 32-bit adder, multiplier and MAC plus the 16-bit
/// adder of the IDCT's rounding stage, all at the given effort.
///
/// A cold build runs the [`CharacterizationEngine`] on [`engine_options`]
/// (so `AIX_JOBS` sets its workers, and the persistent `AIX_CACHE` cache
/// lets a repeated cold build reuse the per-component synthesis results)
/// and reports its per-stage timings on stderr; the resulting text
/// artifact is cached whole at `cache_path`.
///
/// # Errors
///
/// Propagates characterization errors.
pub fn build_or_load_library(
    cells: &Arc<Library>,
    effort: Effort,
    cache_path: Option<&Path>,
) -> Result<ApproxLibrary, Box<dyn std::error::Error>> {
    if let Some(path) = cache_path {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(library) = ApproxLibrary::from_text(&text) {
                let complete = library.get(ComponentKind::Adder, STUDY_WIDTH).is_some()
                    && library.get(ComponentKind::Multiplier, STUDY_WIDTH).is_some()
                    && library.get(ComponentKind::Mac, STUDY_WIDTH).is_some()
                    && library.get(ComponentKind::Adder, 16).is_some();
                if complete {
                    return Ok(library);
                }
            }
        }
    }
    let engine = CharacterizationEngine::new(Arc::clone(cells), engine_options()?);
    let mut configs: Vec<CharacterizationConfig> = ComponentKind::ALL
        .iter()
        .map(|&kind| CharacterizationConfig::paper_default(kind, STUDY_WIDTH))
        .collect();
    configs.push(CharacterizationConfig::paper_default(
        ComponentKind::Adder,
        16,
    ));
    for config in &mut configs {
        config.effort = effort;
    }
    let (library, report) = engine.characterize_all(&configs)?;
    aix_obs::progress!("(characterization engine: {})", report.summary());
    if let Some(path) = cache_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _ = std::fs::write(path, library.to_text());
    }
    Ok(library)
}

/// The default cache location for the approximation library artifact.
pub fn default_library_cache() -> std::path::PathBuf {
    std::path::PathBuf::from("out/approx-library.txt")
}
