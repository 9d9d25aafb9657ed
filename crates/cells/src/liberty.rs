//! Liberty-style text export of the cell library and of the
//! degradation-aware delay tables.
//!
//! The paper consumes the publicly released degradation-aware cell library
//! of [Amrouch et al., DAC'16] — Liberty files parameterized by stress.
//! These exporters produce the equivalent artifacts for this workspace's
//! library, so the characterization inputs are inspectable, diffable files
//! rather than opaque in-memory state.

use crate::{DegradationAwareLibrary, Library, STRESS_GRID_POINTS};
use std::fmt::Write as _;

/// Renders the fresh library as a Liberty-flavoured text document: one
/// `cell` group per library cell with area, leakage, input capacitance and
/// the linear delay model's coefficients.
///
/// # Examples
///
/// ```
/// use aix_cells::{to_liberty, Library};
///
/// let text = to_liberty(&Library::nangate45_like());
/// assert!(text.starts_with("library (aix_45nm)"));
/// assert!(text.contains("cell (NAND2_X1)"));
/// ```
pub fn to_liberty(library: &Library) -> String {
    let mut out = String::from("library (aix_45nm) {\n");
    out.push_str("  time_unit : \"1ps\";\n");
    out.push_str("  capacitive_load_unit (1, ff);\n");
    out.push_str("  leakage_power_unit : \"1nW\";\n");
    for cell in library.cells() {
        let _ = writeln!(out, "  cell ({}) {{", cell.name);
        let _ = writeln!(out, "    area : {:.3};", cell.area_um2);
        let _ = writeln!(out, "    cell_leakage_power : {:.2};", cell.leakage_nw);
        let _ = writeln!(out, "    aix_function : \"{}\";", cell.function);
        let _ = writeln!(out, "    aix_drive : \"{}\";", cell.drive);
        let _ = writeln!(
            out,
            "    aix_aging_sensitivity : {:.3};",
            cell.aging_sensitivity
        );
        for pin in 0..cell.function.input_count() {
            let _ = writeln!(out, "    pin (i{pin}) {{");
            let _ = writeln!(out, "      direction : input;");
            let _ = writeln!(out, "      capacitance : {:.3};", cell.input_cap_ff);
            out.push_str("    }\n");
        }
        for pin in 0..cell.function.output_count() {
            let _ = writeln!(out, "    pin (o{pin}) {{");
            let _ = writeln!(out, "      direction : output;");
            let _ = writeln!(out, "      timing () {{");
            let _ = writeln!(
                out,
                "        cell_rise (scalar) {{ values (\"{:.2}\"); }}",
                cell.intrinsic_ps
            );
            let _ = writeln!(
                out,
                "        rise_resistance : {:.3};",
                cell.drive_resistance_ps_per_ff
            );
            out.push_str("      }\n    }\n");
        }
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// Renders a degradation-aware library as the stress-indexed table artifact
/// the paper's flow consumes: per cell, an
/// [`STRESS_GRID_POINTS`]×[`STRESS_GRID_POINTS`] grid of delay factors over
/// `(S_pMOS, S_nMOS)`.
pub fn degradation_to_text(library: &Library, aged: &DegradationAwareLibrary) -> String {
    let mut out = format!(
        "aix-degradation-library lifetime={}y grid={}x{}\n",
        aged.lifetime().years(),
        STRESS_GRID_POINTS,
        STRESS_GRID_POINTS
    );
    for (id, cell) in library.iter() {
        let _ = writeln!(out, "cell {}", cell.name);
        let table = aged.table(id);
        for p in 0..STRESS_GRID_POINTS {
            let row: Vec<String> = (0..STRESS_GRID_POINTS)
                .map(|n| format!("{:.6}", table.at(p, n)))
                .collect();
            let _ = writeln!(out, "  {}", row.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::{AgingModel, Lifetime};

    #[test]
    fn liberty_lists_every_cell_once() {
        let lib = Library::nangate45_like();
        let text = to_liberty(&lib);
        for cell in lib.cells() {
            let needle = format!("cell ({})", cell.name);
            assert_eq!(
                text.matches(&needle).count(),
                1,
                "{} must appear exactly once",
                cell.name
            );
        }
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn liberty_pin_counts_match_functions() {
        let lib = Library::nangate45_like();
        let text = to_liberty(&lib);
        // The FA section must have three input pins and two output pins.
        let fa_section = text
            .split("cell (FA_X1)")
            .nth(1)
            .and_then(|rest| rest.split("cell (").next())
            .expect("FA_X1 section");
        assert_eq!(fa_section.matches("direction : input").count(), 3);
        assert_eq!(fa_section.matches("direction : output").count(), 2);
    }

    #[test]
    fn degradation_export_has_full_grids() {
        let lib = Library::nangate45_like();
        let aged =
            DegradationAwareLibrary::generate(&lib, &AgingModel::calibrated(), Lifetime::YEARS_10);
        let text = degradation_to_text(&lib, &aged);
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("aix-degradation-library lifetime=10y grid=11x11")
        );
        // Every cell in library order: its name, then one row per pMOS
        // stress point, each printed factor the table's own value.
        for (id, cell) in lib.iter() {
            assert_eq!(lines.next(), Some(format!("cell {}", cell.name).as_str()));
            for p in 0..STRESS_GRID_POINTS {
                let row: Vec<f64> = lines
                    .next()
                    .and_then(|line| line.strip_prefix("  "))
                    .expect("indented grid row")
                    .split_whitespace()
                    .map(|field| field.parse().expect("numeric entry"))
                    .collect();
                assert_eq!(row.len(), STRESS_GRID_POINTS, "{} row {p}", cell.name);
                for (n, printed) in row.into_iter().enumerate() {
                    let diff = (printed - aged.table(id).at(p, n)).abs();
                    assert!(diff < 1e-5, "{} ({p},{n}): {printed}", cell.name);
                }
            }
        }
        assert_eq!(lines.next(), None);
    }
}
