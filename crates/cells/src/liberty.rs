//! Liberty-style text export of the cell library and of the
//! degradation-aware delay tables.
//!
//! The paper consumes the publicly released degradation-aware cell library
//! of [Amrouch et al., DAC'16] — Liberty files parameterized by stress.
//! These exporters produce the equivalent artifacts for this workspace's
//! library, so the characterization inputs are inspectable, diffable files
//! rather than opaque in-memory state.

use crate::{DegradationAwareLibrary, DegradationTable, Library, STRESS_GRID_POINTS};
use aix_aging::Lifetime;
use std::error::Error;
use std::fmt;
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

/// Error produced while parsing the degradation-table text artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDegradationError(String);

impl fmt::Display for ParseDegradationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed degradation artifact: {}", self.0)
    }
}

impl Error for ParseDegradationError {}

/// Parses the artifact produced by [`degradation_to_text`] back into
/// per-cell tables, keyed by cell name.
///
/// # Errors
///
/// Returns [`ParseDegradationError`] on any syntax or shape violation.
pub fn parse_degradation_text(
    text: &str,
) -> Result<Vec<(String, DegradationTable)>, ParseDegradationError> {
    let err = |message: &str| ParseDegradationError(message.to_owned());
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| err("empty input"))?;
    if !header.starts_with("aix-degradation-library ") {
        return Err(err("missing header"));
    }
    let lifetime_years: f64 = header
        .split_whitespace()
        .find_map(|field| field.strip_prefix("lifetime="))
        .and_then(|v| v.strip_suffix('y'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err("missing lifetime"))?;
    let lifetime = Lifetime::try_from_years(lifetime_years).map_err(|_| err("bad lifetime"))?;
    let mut tables = Vec::new();
    let mut current: Option<(String, Vec<[f64; STRESS_GRID_POINTS]>)> = None;
    let finish = |current: &mut Option<(String, Vec<[f64; STRESS_GRID_POINTS]>)>,
                  tables: &mut Vec<(String, DegradationTable)>|
     -> Result<(), ParseDegradationError> {
        if let Some((name, rows)) = current.take() {
            let grid: [[f64; STRESS_GRID_POINTS]; STRESS_GRID_POINTS] = rows
                .try_into()
                .map_err(|_| err("wrong number of grid rows"))?;
            tables.push((name, DegradationTable::from_grid(lifetime, grid)));
        }
        Ok(())
    };
    for line in lines {
        if let Some(name) = line.strip_prefix("cell ") {
            finish(&mut current, &mut tables)?;
            current = Some((name.trim().to_owned(), Vec::new()));
        } else if !line.trim().is_empty() {
            let (_, rows) = current
                .as_mut()
                .ok_or_else(|| err("data row before any cell"))?;
            let mut row = [0.0; STRESS_GRID_POINTS];
            let mut fields = line.split_whitespace();
            for slot in &mut row {
                *slot = fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| err("short or non-numeric grid row"))?;
            }
            if fields.next().is_some() {
                return Err(err("grid row too long"));
            }
            rows.push(row);
        }
    }
    finish(&mut current, &mut tables)?;
    Ok(tables)
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
    fn degradation_artifact_roundtrips() {
        let lib = Library::nangate45_like();
        let aged =
            DegradationAwareLibrary::generate(&lib, &AgingModel::calibrated(), Lifetime::YEARS_10);
        let text = degradation_to_text(&lib, &aged);
        let parsed = parse_degradation_text(&text).unwrap();
        assert_eq!(parsed.len(), lib.len());
        for ((name, table), (id, cell)) in parsed.iter().zip(lib.iter()) {
            assert_eq!(name, &cell.name);
            for p in 0..STRESS_GRID_POINTS {
                for n in 0..STRESS_GRID_POINTS {
                    let diff = (table.at(p, n) - aged.table(id).at(p, n)).abs();
                    assert!(diff < 1e-5, "{name} ({p},{n})");
                }
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_artifacts() {
        assert!(parse_degradation_text("").is_err());
        assert!(parse_degradation_text("not a header").is_err());
        assert!(parse_degradation_text(
            "aix-degradation-library lifetime=10y grid=11x11
  1.0 1.0"
        )
        .is_err());
        assert!(parse_degradation_text(
            "aix-degradation-library lifetime=10y grid=11x11
cell X
  1.0"
        )
        .is_err());
    }

    #[test]
    fn degradation_export_has_full_grids() {
        let lib = Library::nangate45_like();
        let aged =
            DegradationAwareLibrary::generate(&lib, &AgingModel::calibrated(), Lifetime::YEARS_10);
        let text = degradation_to_text(&lib, &aged);
        assert!(text.starts_with("aix-degradation-library lifetime=10y grid=11x11"));
        assert_eq!(text.matches("cell ").count(), lib.len());
        // Every cell contributes STRESS_GRID_POINTS data rows.
        let data_rows = text
            .lines()
            .filter(|l| l.starts_with("  ") && !l.contains("cell"))
            .count();
        assert_eq!(data_rows, lib.len() * STRESS_GRID_POINTS);
        // The worst-case corner of every table exceeds 1.1.
        for line in text.lines().filter(|l| l.starts_with("  ")) {
            let last: f64 = line
                .split_whitespace()
                .last()
                .expect("row has entries")
                .parse()
                .expect("numeric entry");
            assert!(last >= 1.0);
        }
    }
}
