//! Degradation-aware cell library: per-cell delay-factor tables indexed by
//! an 11×11 grid of (pMOS, nMOS) stress factors, mirroring the public
//! artifact of [Amrouch et al., DAC'16] that the paper consumes.

use crate::{CellId, Library};
use aix_aging::{AgingModel, Lifetime, StressFactor, StressPair};

/// Number of grid points per stress axis (S ∈ {0, 0.1, …, 1.0}).
pub const STRESS_GRID_POINTS: usize = 11;

/// One cell's delay-degradation table over the stress grid for a fixed
/// lifetime. Entries are multiplicative factors relative to the fresh delay.
///
/// # Examples
///
/// ```
/// use aix_aging::{AgingModel, Lifetime, StressPair};
/// use aix_cells::DegradationTable;
///
/// let model = AgingModel::calibrated();
/// let table = DegradationTable::generate(&model, Lifetime::YEARS_10, 1.0);
/// assert_eq!(table.factor(StressPair::default()), 1.0);
/// assert!(table.factor(StressPair::WORST) > 1.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationTable {
    lifetime: Lifetime,
    /// `grid[p][n]` is the factor at `S_p = p/10`, `S_n = n/10`.
    grid: [[f64; STRESS_GRID_POINTS]; STRESS_GRID_POINTS],
}

impl DegradationTable {
    /// Generates the table from an aging model, weighted by a cell's BTI
    /// `sensitivity` (1.0 for the reference inverter arc).
    pub fn generate(model: &AgingModel, lifetime: Lifetime, sensitivity: f64) -> Self {
        let mut grid = [[1.0; STRESS_GRID_POINTS]; STRESS_GRID_POINTS];
        for (p, row) in grid.iter_mut().enumerate() {
            for (n, entry) in row.iter_mut().enumerate() {
                let pair = StressPair::new(
                    StressFactor::saturating(p as f64 / 10.0),
                    StressFactor::saturating(n as f64 / 10.0),
                );
                let base = model.pair_delay_factor(pair, lifetime);
                *entry = 1.0 + sensitivity * (base - 1.0);
            }
        }
        Self { lifetime, grid }
    }

    /// The lifetime this table was generated for.
    pub fn lifetime(&self) -> Lifetime {
        self.lifetime
    }

    /// The raw factor at a grid point.
    ///
    /// # Panics
    ///
    /// Panics if either index is outside `0..STRESS_GRID_POINTS`.
    pub fn at(&self, p_index: usize, n_index: usize) -> f64 {
        self.grid[p_index][n_index]
    }

    /// Delay factor for an arbitrary stress pair, bilinearly interpolated
    /// between the surrounding grid points — exactly how a consumer of the
    /// tabulated artifact evaluates off-grid stress.
    pub fn factor(&self, pair: StressPair) -> f64 {
        let interp = |axis: f64| -> (usize, usize, f64) {
            let scaled = axis * 10.0;
            let lo = scaled.floor().clamp(0.0, 10.0) as usize;
            let hi = (lo + 1).min(STRESS_GRID_POINTS - 1);
            (lo, hi, scaled - lo as f64)
        };
        let (p0, p1, tp) = interp(pair.pmos.value());
        let (n0, n1, tn) = interp(pair.nmos.value());
        let top = self.grid[p0][n0] * (1.0 - tn) + self.grid[p0][n1] * tn;
        let bot = self.grid[p1][n0] * (1.0 - tn) + self.grid[p1][n1] * tn;
        top * (1.0 - tp) + bot * tp
    }
}

/// The full degradation-aware library: one [`DegradationTable`] per cell of
/// a [`Library`], all generated for one lifetime from one [`AgingModel`].
///
/// # Examples
///
/// ```
/// use aix_aging::{AgingModel, Lifetime, StressPair};
/// use aix_cells::{CellFunction, DegradationAwareLibrary, DriveStrength, Library};
///
/// let lib = Library::nangate45_like();
/// let aged = DegradationAwareLibrary::generate(&lib, &AgingModel::calibrated(), Lifetime::YEARS_10);
/// let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
/// assert!(aged.delay_factor(inv, StressPair::WORST) > 1.1);
/// ```
#[derive(Debug, Clone)]
pub struct DegradationAwareLibrary {
    lifetime: Lifetime,
    tables: Vec<DegradationTable>,
}

impl DegradationAwareLibrary {
    /// Generates tables for every cell in `library`.
    pub fn generate(library: &Library, model: &AgingModel, lifetime: Lifetime) -> Self {
        let tables = library
            .cells()
            .map(|cell| DegradationTable::generate(model, lifetime, cell.aging_sensitivity))
            .collect();
        Self { lifetime, tables }
    }

    /// The lifetime the library was generated for.
    pub fn lifetime(&self) -> Lifetime {
        self.lifetime
    }

    /// Interpolated delay factor for `cell` under `pair`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` does not belong to the library the tables were
    /// generated from.
    pub fn delay_factor(&self, cell: CellId, pair: StressPair) -> f64 {
        self.tables[cell.index()].factor(pair)
    }

    /// The per-cell table (the raw artifact).
    pub fn table(&self, cell: CellId) -> &DegradationTable {
        &self.tables[cell.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellFunction, DriveStrength};

    fn model() -> AgingModel {
        AgingModel::calibrated()
    }

    #[test]
    fn corner_points_match_analytic_model() {
        let m = model();
        let table = DegradationTable::generate(&m, Lifetime::YEARS_10, 1.0);
        let worst = m.pair_delay_factor(StressPair::WORST, Lifetime::YEARS_10);
        assert!((table.factor(StressPair::WORST) - worst).abs() < 1e-12);
        assert_eq!(table.factor(StressPair::default()), 1.0);
    }

    #[test]
    fn interpolation_close_to_analytic_off_grid() {
        let m = model();
        let table = DegradationTable::generate(&m, Lifetime::YEARS_10, 1.0);
        for (p, n) in [(0.23, 0.77), (0.51, 0.49), (0.95, 0.05)] {
            let pair =
                StressPair::new(StressFactor::new(p).unwrap(), StressFactor::new(n).unwrap());
            let exact = m.pair_delay_factor(pair, Lifetime::YEARS_10);
            let interp = table.factor(pair);
            assert!(
                (interp - exact).abs() / exact < 0.01,
                "interp {interp} vs exact {exact} at ({p},{n})"
            );
        }
    }

    #[test]
    fn table_monotone_along_both_axes() {
        let table = DegradationTable::generate(&model(), Lifetime::YEARS_10, 1.0);
        for i in 0..STRESS_GRID_POINTS {
            for j in 1..STRESS_GRID_POINTS {
                assert!(table.at(i, j) >= table.at(i, j - 1));
                assert!(table.at(j, i) >= table.at(j - 1, i));
            }
        }
    }

    #[test]
    fn sensitivity_scales_excess_factor() {
        let m = model();
        let base = DegradationTable::generate(&m, Lifetime::YEARS_10, 1.0);
        let hot = DegradationTable::generate(&m, Lifetime::YEARS_10, 1.5);
        let b = base.factor(StressPair::WORST) - 1.0;
        let h = hot.factor(StressPair::WORST) - 1.0;
        assert!((h / b - 1.5).abs() < 1e-9);
    }

    #[test]
    fn library_generation_covers_all_cells() {
        let lib = Library::nangate45_like();
        let aged = DegradationAwareLibrary::generate(&lib, &model(), Lifetime::YEARS_10);
        for (id, cell) in lib.iter() {
            let f = aged.delay_factor(id, StressPair::WORST);
            assert!(f > 1.0, "{} must degrade", cell.name);
        }
        assert_eq!(aged.lifetime(), Lifetime::YEARS_10);
    }

    #[test]
    fn stacked_cells_degrade_more() {
        let lib = Library::nangate45_like();
        let aged = DegradationAwareLibrary::generate(&lib, &model(), Lifetime::YEARS_10);
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let nor3 = lib.find(CellFunction::Nor3, DriveStrength::X1).unwrap();
        assert!(
            aged.delay_factor(nor3, StressPair::WORST) > aged.delay_factor(inv, StressPair::WORST)
        );
    }

    #[test]
    fn fresh_lifetime_tables_are_unity() {
        let lib = Library::nangate45_like();
        let aged = DegradationAwareLibrary::generate(&lib, &model(), Lifetime::FRESH);
        for (id, _) in lib.iter() {
            assert_eq!(aged.delay_factor(id, StressPair::WORST), 1.0);
        }
    }
}
