//! Standard Delay Format (SDF) export of a delay annotation.
//!
//! The paper's gate-level flow hands an aged `.sdf` file to the simulator
//! ("the resulting standard delay file (.sdf) is finally used to perform
//! gate-level simulations"). This exporter produces the same artifact for
//! any [`NetDelays`] annotation of a netlist, pairing with the structural
//! Verilog export to make every analyzed design portable.

use crate::NetDelays;
use aix_netlist::Netlist;
use std::fmt::Write as _;

/// Sanitizes an instance/module name into an SDF identifier.
fn identifier(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the per-arc delays of `netlist` as an SDF document.
///
/// One `CELL`/`IOPATH` group is emitted per gate output pin, carrying the
/// annotated delay in picoseconds (min = typ = max, as the analysis is a
/// single corner). Instance names match the `g<N>` scheme of
/// [`aix_netlist::to_verilog`].
///
/// # Examples
///
/// ```
/// use aix_arith::{build_adder, AdderKind, ComponentSpec};
/// use aix_cells::Library;
/// use aix_sta::{to_sdf, NetDelays};
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let adder = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(4))?;
/// let sdf = to_sdf(&adder, &NetDelays::fresh(&adder), "fresh");
/// assert!(sdf.starts_with("(DELAYFILE"));
/// assert!(sdf.contains("(INSTANCE g0)"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_sdf(netlist: &Netlist, delays: &NetDelays, corner: &str) -> String {
    let mut out = String::from("(DELAYFILE\n");
    let _ = writeln!(out, "  (SDFVERSION \"3.0\")");
    let _ = writeln!(out, "  (DESIGN \"{}\")", identifier(netlist.name()));
    let _ = writeln!(out, "  (VOLTAGE \"{corner}\")");
    let _ = writeln!(out, "  (TIMESCALE 1ps)");
    const OUTPUT_PINS: [&str; 2] = ["y", "co"];
    const INPUT_PINS: [&str; 3] = ["a", "b", "c"];
    for (id, gate) in netlist.gates() {
        let cell = netlist.library().cell(gate.cell);
        let _ = writeln!(out, "  (CELL (CELLTYPE \"{}\")", cell.name);
        let _ = writeln!(out, "    (INSTANCE g{})", id.index());
        out.push_str("    (DELAY (ABSOLUTE\n");
        for (pin, &net) in gate.outputs.iter().enumerate() {
            let delay = delays.of(net.index());
            for input in INPUT_PINS.iter().take(gate.inputs.len()) {
                let _ = writeln!(
                    out,
                    "      (IOPATH {input} {} ({delay:.2}:{delay:.2}:{delay:.2}))",
                    OUTPUT_PINS[pin]
                );
            }
        }
        out.push_str("    ))\n  )\n");
    }
    out.push_str(")\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::{AgingModel, AgingScenario, Lifetime};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use std::sync::Arc;

    fn adder() -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(4)).unwrap()
    }

    #[test]
    fn every_gate_has_a_cell_group() {
        let nl = adder();
        let sdf = to_sdf(&nl, &NetDelays::fresh(&nl), "fresh");
        assert_eq!(sdf.matches("(CELL (CELLTYPE").count(), nl.gate_count());
        assert!(sdf.trim_end().ends_with(')'));
    }

    #[test]
    fn aged_sdf_carries_larger_delays() {
        let nl = adder();
        let model = AgingModel::calibrated();
        let fresh = to_sdf(&nl, &NetDelays::fresh(&nl), "fresh");
        let aged = to_sdf(
            &nl,
            &NetDelays::aged(&nl, &model, AgingScenario::worst_case(Lifetime::YEARS_10)),
            "aged-10y-wc",
        );
        let sum = |text: &str| -> f64 {
            text.lines()
                .filter(|l| l.contains("IOPATH"))
                .filter_map(|l| {
                    l.split('(')
                        .next_back()?
                        .split(':')
                        .next()?
                        .parse::<f64>()
                        .ok()
                })
                .sum()
        };
        assert!(sum(&aged) > sum(&fresh) * 1.1, "aged arcs must be slower");
        assert!(aged.contains("aged-10y-wc"));
    }

    #[test]
    fn iopath_per_input_output_pair() {
        let nl = adder();
        let sdf = to_sdf(&nl, &NetDelays::fresh(&nl), "fresh");
        // A full adder has 3 inputs and 2 outputs: 6 IOPATH lines.
        let first_cell = sdf
            .split("(INSTANCE g0)")
            .nth(1)
            .and_then(|rest| rest.split("(CELL").next())
            .expect("first cell group");
        assert_eq!(first_cell.matches("IOPATH").count(), 6);
    }
}
