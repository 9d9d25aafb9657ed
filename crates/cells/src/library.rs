//! The cell library: construction of the 45 nm-class cell set and lookup.

use crate::{Cell, CellFunction, CellId, DriveStrength};
use aix_obs::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error returned when looking up a cell that does not exist in the library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCellError {
    name: String,
}

impl fmt::Display for UnknownCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown cell `{}`", self.name)
    }
}

impl Error for UnknownCellError {}

/// A complete standard-cell library.
///
/// # Examples
///
/// ```
/// use aix_cells::Library;
///
/// let lib = Library::nangate45_like();
/// assert!(lib.len() >= 64, "16 functions × 4 drive strengths");
/// let inv = lib.by_name("INV_X1")?;
/// assert_eq!(lib.cell(inv).name, "INV_X1");
/// # Ok::<(), aix_cells::UnknownCellError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
    by_function: HashMap<(CellFunction, DriveStrength), CellId>,
}

/// Fresh X1 parameters per function:
/// (intrinsic ps, drive resistance ps/fF, input cap fF, area µm², leakage nW,
/// aging sensitivity).
///
/// Magnitudes follow the NanGate 45 nm open cell library: gate delays of a
/// few to a few tens of picoseconds, sub-µm² to few-µm² areas, tens of
/// nanowatts of leakage. Stacked pull-up networks (NOR-like and compound
/// cells) receive a slightly higher BTI sensitivity.
const X1_PARAMS: [(CellFunction, f64, f64, f64, f64, f64, f64); 16] = [
    (CellFunction::Inv, 5.0, 5.0, 1.0, 0.53, 15.0, 1.00),
    (CellFunction::Buf, 8.0, 4.0, 1.0, 0.80, 20.0, 1.00),
    (CellFunction::Nand2, 7.0, 5.5, 1.1, 0.80, 25.0, 1.00),
    (CellFunction::Nand3, 9.0, 6.0, 1.2, 1.06, 35.0, 1.02),
    (CellFunction::Nor2, 8.0, 6.5, 1.1, 0.80, 28.0, 1.06),
    (CellFunction::Nor3, 11.0, 7.5, 1.2, 1.06, 40.0, 1.09),
    (CellFunction::And2, 10.0, 4.5, 1.0, 1.06, 30.0, 1.00),
    (CellFunction::Or2, 11.0, 4.5, 1.0, 1.06, 32.0, 1.04),
    (CellFunction::Xor2, 14.0, 5.5, 1.6, 1.60, 45.0, 1.03),
    (CellFunction::Xnor2, 14.0, 5.5, 1.6, 1.60, 45.0, 1.03),
    (CellFunction::Aoi21, 9.0, 6.5, 1.2, 1.06, 30.0, 1.05),
    (CellFunction::Oai21, 9.0, 6.5, 1.2, 1.06, 30.0, 1.05),
    (CellFunction::Mux2, 13.0, 5.0, 1.4, 1.86, 40.0, 1.02),
    (CellFunction::HalfAdder, 16.0, 5.5, 1.8, 2.39, 60.0, 1.03),
    (CellFunction::FullAdder, 20.0, 6.0, 2.0, 4.25, 90.0, 1.04),
    (CellFunction::Dff, 25.0, 4.0, 1.5, 4.52, 80.0, 1.02),
];

/// Scaling of (drive resistance, input cap, area, leakage) per drive step.
fn drive_scaling(drive: DriveStrength) -> (f64, f64, f64, f64) {
    match drive {
        DriveStrength::X05 => (2.0, 0.6, 0.7, 0.6),
        DriveStrength::X1 => (1.0, 1.0, 1.0, 1.0),
        DriveStrength::X2 => (0.5, 1.8, 1.6, 1.8),
        DriveStrength::X4 => (0.25, 3.2, 2.8, 3.2),
    }
}

impl Library {
    /// Builds the workspace's 45 nm-class library: every function in
    /// [`CellFunction::ALL`] at drive strengths X05, X1, X2 and X4.
    pub fn nangate45_like() -> Self {
        let mut lib = Library {
            cells: Vec::with_capacity(X1_PARAMS.len() * DriveStrength::ALL.len()),
            by_name: HashMap::new(),
            by_function: HashMap::new(),
        };
        for &(function, intrinsic, res, cap, area, leak, sensitivity) in &X1_PARAMS {
            for drive in DriveStrength::ALL {
                let (res_k, cap_k, area_k, leak_k) = drive_scaling(drive);
                lib.push(Cell {
                    name: format!("{}_{}", function.stem(), drive),
                    function,
                    drive,
                    intrinsic_ps: intrinsic,
                    drive_resistance_ps_per_ff: res * res_k,
                    input_cap_ff: cap * cap_k,
                    area_um2: area * area_k,
                    leakage_nw: leak * leak_k,
                    aging_sensitivity: sensitivity,
                });
            }
        }
        lib
    }

    fn push(&mut self, cell: Cell) -> CellId {
        let id = CellId(u32::try_from(self.cells.len()).expect("library exceeds u32 cells"));
        self.by_name.insert(cell.name.clone(), id);
        self.by_function.insert((cell.function, cell.drive), id);
        self.cells.push(cell);
        id
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks a cell up by `(function, drive)`.
    pub fn find(&self, function: CellFunction, drive: DriveStrength) -> Option<CellId> {
        self.by_function.get(&(function, drive)).copied()
    }

    /// Looks a cell up by library name, e.g. `"NAND2_X2"`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownCellError`] if no cell has that name.
    pub fn by_name(&self, name: &str) -> Result<CellId, UnknownCellError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| UnknownCellError {
                name: name.to_owned(),
            })
    }

    /// The id of the same function at the next stronger drive, if any.
    pub fn upsize(&self, id: CellId) -> Option<CellId> {
        let cell = self.cell(id);
        cell.drive
            .upsized()
            .and_then(|d| self.find(cell.function, d))
    }

    /// The id of the same function at the next weaker drive, if any.
    pub fn downsize(&self, id: CellId) -> Option<CellId> {
        let cell = self.cell(id);
        cell.drive
            .downsized()
            .and_then(|d| self.find(cell.function, d))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library is empty (never true for the built-in library).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over all cells in id order.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }

    /// Iterates over `(id, cell)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// A content hash over every cell's name and electrical parameters
    /// (exact IEEE-754 bit patterns), in id order. Any change to the
    /// library — a cell added, a delay retuned, an aging sensitivity
    /// adjusted — produces a different hash, so artifacts derived from the
    /// library (e.g. the characterization cache) can be content-addressed
    /// against it. FNV-1a ([`aix_obs::fnv1a`]), stable across platforms
    /// and runs.
    pub fn content_hash(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for cell in &self.cells {
            hash = fnv1a(hash, cell.name.as_bytes());
            hash = fnv1a(hash, &[0xff]); // field separator
            for value in [
                cell.intrinsic_ps,
                cell.drive_resistance_ps_per_ff,
                cell.input_cap_ff,
                cell.area_um2,
                cell.leakage_nw,
                cell.aging_sensitivity,
            ] {
                hash = fnv1a(hash, &value.to_bits().to_le_bytes());
            }
        }
        hash
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::nangate45_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_contains_all_functions_at_all_drives() {
        let lib = Library::nangate45_like();
        for f in CellFunction::ALL {
            for d in DriveStrength::ALL {
                let id = lib.find(f, d).unwrap_or_else(|| panic!("missing {f}_{d}"));
                let cell = lib.cell(id);
                assert_eq!(cell.function, f);
                assert_eq!(cell.drive, d);
            }
        }
        assert_eq!(lib.len(), 64);
    }

    #[test]
    fn name_lookup_roundtrips() {
        let lib = Library::nangate45_like();
        for (id, cell) in lib.iter() {
            assert_eq!(lib.by_name(&cell.name).unwrap(), id);
        }
        assert!(lib.by_name("GARBAGE_X9").is_err());
    }

    #[test]
    fn upsizing_reduces_resistance_and_grows_area() {
        let lib = Library::nangate45_like();
        for f in CellFunction::ALL {
            let cells: Vec<_> = DriveStrength::ALL
                .iter()
                .map(|&d| lib.cell(lib.find(f, d).unwrap()))
                .collect();
            for pair in cells.windows(2) {
                let (weak, strong) = (pair[0], pair[1]);
                assert!(weak.drive_resistance_ps_per_ff > strong.drive_resistance_ps_per_ff);
                assert!(weak.area_um2 < strong.area_um2);
                assert!(weak.leakage_nw < strong.leakage_nw);
                assert!(weak.input_cap_ff < strong.input_cap_ff);
            }
        }
    }

    #[test]
    fn upsize_navigation() {
        let lib = Library::nangate45_like();
        let x1 = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let x2 = lib.upsize(x1).unwrap();
        let x4 = lib.upsize(x2).unwrap();
        assert_eq!(lib.cell(x4).drive, DriveStrength::X4);
        assert_eq!(lib.upsize(x4), None);
        assert_eq!(lib.downsize(x2), Some(x1));
        let x05 = lib.downsize(x1).unwrap();
        assert_eq!(lib.cell(x05).drive, DriveStrength::X05);
        assert_eq!(lib.downsize(x05), None);
    }

    #[test]
    fn content_hash_is_stable_and_parameter_sensitive() {
        let a = Library::nangate45_like();
        let b = Library::nangate45_like();
        assert_eq!(a.content_hash(), b.content_hash(), "deterministic");
        let mut tweaked = Library::nangate45_like();
        tweaked.cells[0].intrinsic_ps += 1e-9;
        assert_ne!(
            a.content_hash(),
            tweaked.content_hash(),
            "any parameter change must change the hash"
        );
    }

    #[test]
    fn all_parameters_positive() {
        let lib = Library::nangate45_like();
        for cell in lib.cells() {
            assert!(cell.intrinsic_ps > 0.0);
            assert!(cell.drive_resistance_ps_per_ff > 0.0);
            assert!(cell.input_cap_ff > 0.0);
            assert!(cell.area_um2 > 0.0);
            assert!(cell.leakage_nw > 0.0);
            assert!(cell.aging_sensitivity >= 1.0);
        }
    }

    #[test]
    fn aging_sensitivity_stacked_gates_higher() {
        let lib = Library::nangate45_like();
        let inv = lib.cell(lib.find(CellFunction::Inv, DriveStrength::X1).unwrap());
        let nor3 = lib.cell(lib.find(CellFunction::Nor3, DriveStrength::X1).unwrap());
        assert!(nor3.aging_sensitivity > inv.aging_sensitivity);
    }
}
