//! Standard-cell library substrate: a 45 nm-class cell set with timing,
//! area and power parameters, plus *degradation-aware* delay tables indexed
//! by (pMOS, nMOS) stress factors.
//!
//! This crate stands in for two artifacts the paper uses:
//!
//! * the open-source NanGate 45 nm cell library (fresh delays, area,
//!   leakage, input capacitance, drive strengths), and
//! * the publicly released *degradation-aware cell library* of
//!   [Amrouch et al., DAC'16], which tabulates every cell's delay under an
//!   11×11 grid of pMOS/nMOS stress factors. [`DegradationAwareLibrary`]
//!   reproduces that structure and interpolates between grid points.
//!
//! # Examples
//!
//! ```
//! use aix_cells::{CellFunction, DriveStrength, Library};
//!
//! let lib = Library::nangate45_like();
//! let inv = lib.find(CellFunction::Inv, DriveStrength::X1).expect("INV_X1 exists");
//! let cell = lib.cell(inv);
//! assert!(cell.delay_ps(2.0) > cell.intrinsic_ps);
//! ```

mod cell;
mod degradation;
mod function;
mod liberty;
mod library;

pub use cell::{Cell, CellId, DriveStrength};
pub use degradation::{DegradationAwareLibrary, DegradationTable, STRESS_GRID_POINTS};
pub use function::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
pub use liberty::{degradation_to_text, to_liberty};
pub use library::{Library, UnknownCellError};
