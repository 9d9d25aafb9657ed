//! Graphviz DOT export for debugging and documentation.

use crate::{NetDriver, Netlist};
use std::fmt::Write as _;

/// Renders the netlist as a Graphviz `digraph`.
///
/// Primary inputs and outputs appear as ellipses, gates as boxes labelled
/// with their cell name. Intended for small circuits (debugging, docs);
/// large netlists produce large files.
///
/// # Examples
///
/// ```
/// use aix_cells::{CellFunction, DriveStrength, Library};
/// use aix_netlist::{to_dot, Netlist};
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let mut nl = Netlist::new("inv", lib.clone());
/// let a = nl.add_input("a");
/// let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
/// let y = nl.add_gate(inv, &[a])?;
/// nl.mark_output("y", y[0]);
/// let dot = to_dot(&nl);
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("INV_X1"));
/// # Ok::<(), aix_netlist::NetlistError>(())
/// ```
pub fn to_dot(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", netlist.name());
    let _ = writeln!(out, "  rankdir=LR;");
    for (i, &net) in netlist.inputs().iter().enumerate() {
        let name = netlist
            .net(net)
            .name
            .clone()
            .unwrap_or_else(|| format!("in{i}"));
        let _ = writeln!(out, "  in{i} [shape=ellipse, label=\"{name}\"];");
    }
    for (id, gate) in netlist.gates() {
        let cell = netlist.library().cell(gate.cell);
        let _ = writeln!(
            out,
            "  g{} [shape=box, label=\"{}\"];",
            id.index(),
            cell.name
        );
    }
    for (i, (name, _)) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(out, "  out{i} [shape=ellipse, label=\"{name}\"];");
    }
    // Edges into gates.
    for (id, gate) in netlist.gates() {
        for &input in &gate.inputs {
            match netlist.net(input).driver {
                NetDriver::PrimaryInput(pi) => {
                    let _ = writeln!(out, "  in{pi} -> g{};", id.index());
                }
                NetDriver::Gate { gate: src, .. } => {
                    let _ = writeln!(out, "  g{} -> g{};", src.index(), id.index());
                }
                NetDriver::Constant(v) => {
                    let _ = writeln!(out, "  const{} -> g{};", u8::from(v), id.index());
                }
            }
        }
    }
    // Edges into output ports.
    for (i, (_, net)) in netlist.outputs().iter().enumerate() {
        match netlist.net(*net).driver {
            NetDriver::PrimaryInput(pi) => {
                let _ = writeln!(out, "  in{pi} -> out{i};");
            }
            NetDriver::Gate { gate: src, .. } => {
                let _ = writeln!(out, "  g{} -> out{i};", src.index());
            }
            NetDriver::Constant(v) => {
                let _ = writeln!(out, "  const{} -> out{i};", u8::from(v));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_cells::{CellFunction, DriveStrength, Library};
    use std::sync::Arc;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let lib = Arc::new(Library::nangate45_like());
        let nand = lib.find(CellFunction::Nand2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(nand, &[a, b]).unwrap()[0];
        nl.mark_output("y", y);
        let dot = to_dot(&nl);
        assert!(dot.contains("in0 -> g0"));
        assert!(dot.contains("in1 -> g0"));
        assert!(dot.contains("g0 -> out0"));
        assert!(dot.contains("NAND2_X1"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn constant_edges_render() {
        let lib = Arc::new(Library::nangate45_like());
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("c", lib);
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let y = nl.add_gate(and, &[a, one]).unwrap()[0];
        nl.mark_output("y", y);
        let dot = to_dot(&nl);
        assert!(dot.contains("const1 -> g0"));
    }
}
