//! Structural Verilog export: makes every synthesized netlist a portable
//! artifact that can be inspected, re-simulated or re-synthesized with
//! standard EDA tooling — and re-imported by [`crate::import`], whose
//! round-trip suite relies on two properties established here:
//!
//! * **Collision-free identifiers.** Names are allocated through
//!   [`crate::names::NameTable`], which suffixes sanitization clashes
//!   (`a[3]` vs `a_3_`) instead of silently merging them.
//! * **Name preservation.** A net that carries a name (as every net of an
//!   imported netlist does) is emitted under that name, so
//!   export ∘ import is the identity on exporter output.

use crate::names::NameTable;
use crate::{NetDriver, NetId, Netlist};
use std::fmt::Write as _;

/// Input pin names in pin order, shared with the importer.
pub(crate) const INPUT_PINS: [&str; 3] = ["a", "b", "c"];
/// Output pin names in pin order, shared with the importer.
pub(crate) const OUTPUT_PINS: [&str; 2] = ["y", "co"];

/// The Verilog expression for a net: a port or wire identifier, or a
/// constant literal.
fn net_expr(netlist: &Netlist, names: &NameTable, net: NetId) -> String {
    match netlist.net(net).driver {
        NetDriver::Constant(false) => "1'b0".to_owned(),
        NetDriver::Constant(true) => "1'b1".to_owned(),
        NetDriver::PrimaryInput(_) | NetDriver::Gate { .. } => names.net(net).to_owned(),
    }
}

/// Renders the netlist as a structural Verilog module.
///
/// Cells are instantiated by their library name with positional-free named
/// connections (`.a(...)`, `.b(...)`, `.c(...)` for inputs in pin order,
/// `.y(...)`/`.co(...)` for outputs), so the output pairs with any cell
/// library that follows the same naming.
///
/// # Examples
///
/// ```
/// use aix_cells::{CellFunction, DriveStrength, Library};
/// use aix_netlist::{to_verilog, Netlist};
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let mut nl = Netlist::new("inv_wrap", lib.clone());
/// let a = nl.add_input("a");
/// let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
/// let y = nl.add_gate(inv, &[a])?;
/// nl.mark_output("y", y[0]);
/// let verilog = to_verilog(&nl);
/// assert!(verilog.contains("module inv_wrap"));
/// assert!(verilog.contains("INV_X1"));
/// # Ok::<(), aix_netlist::NetlistError>(())
/// ```
pub fn to_verilog(netlist: &Netlist) -> String {
    let names = NameTable::build(netlist);
    let mut out = String::new();
    let inputs: Vec<&str> = netlist.inputs().iter().map(|&n| names.net(n)).collect();
    let _ = writeln!(
        out,
        "module {} ({});",
        names.module,
        inputs
            .iter()
            .copied()
            .chain(names.outputs.iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for input in &inputs {
        let _ = writeln!(out, "  input {input};");
    }
    for output in &names.outputs {
        let _ = writeln!(out, "  output {output};");
    }
    // Internal wires: every gate-driven net.
    for (id, net) in netlist.nets() {
        if matches!(net.driver, NetDriver::Gate { .. }) {
            let _ = writeln!(out, "  wire {};", names.net(id));
        }
    }
    // Cell instances.
    for (id, gate) in netlist.gates() {
        let cell = netlist.library().cell(gate.cell);
        let mut connections = Vec::new();
        for (pin, &net) in gate.inputs.iter().enumerate() {
            connections.push(format!(
                ".{}({})",
                INPUT_PINS[pin],
                net_expr(netlist, &names, net)
            ));
        }
        for (pin, &net) in gate.outputs.iter().enumerate() {
            connections.push(format!(".{}({})", OUTPUT_PINS[pin], names.net(net)));
        }
        let _ = writeln!(
            out,
            "  {} g{} ({});",
            cell.name,
            id.index(),
            connections.join(", ")
        );
    }
    // Output port assignments.
    for (index, (_, net)) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(
            out,
            "  assign {} = {};",
            names.outputs[index],
            net_expr(netlist, &names, *net)
        );
    }
    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_cells::{CellFunction, DriveStrength, Library};
    use std::sync::Arc;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    #[test]
    fn full_adder_module_structure() {
        let lib = lib();
        let fa = lib
            .find(CellFunction::FullAdder, DriveStrength::X2)
            .unwrap();
        let mut nl = Netlist::new("fa1", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let outs = nl.add_gate(fa, &[a, b, cin]).unwrap();
        nl.mark_output("sum", outs[0]);
        nl.mark_output("cout", outs[1]);
        let v = to_verilog(&nl);
        assert!(v.starts_with("module fa1 (a, b, cin, sum, cout);"));
        assert!(v.contains("input a;"));
        assert!(v.contains("output cout;"));
        assert!(v.contains("FA_X2 g0 (.a(a), .b(b), .c(cin), .y(w3), .co(w4));"));
        assert!(v.contains("assign sum = w3;"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn bus_names_are_sanitized() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("bus", lib.clone());
        let bus = nl.add_input_bus("data", 2);
        let y = nl.add_gate(inv, &[bus[1]]).unwrap();
        nl.mark_output("q[0]", y[0]);
        let v = to_verilog(&nl);
        assert!(v.contains("data_0_"));
        assert!(v.contains("data_1_"));
        assert!(v.contains("assign q_0_ = "));
        assert!(!v.contains('['), "no raw brackets in identifiers: {v}");
    }

    #[test]
    fn constants_render_as_literals() {
        let lib = lib();
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("c", lib.clone());
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let y = nl.add_gate(and, &[a, one]).unwrap();
        nl.mark_output("y", y[0]);
        let v = to_verilog(&nl);
        assert!(v.contains(".b(1'b1)"));
    }

    #[test]
    fn every_gate_of_a_chain_is_instantiated() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let nand = lib.find(CellFunction::Nand2, DriveStrength::X2).unwrap();
        let mut nl = Netlist::new("chain", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut prev = a;
        for _ in 0..5 {
            prev = nl.add_gate(inv, &[prev]).unwrap()[0];
        }
        let y = nl.add_gate(nand, &[prev, b]).unwrap()[0];
        nl.mark_output("y", y);
        let v = to_verilog(&nl);
        let instances = v
            .lines()
            .filter(|l| l.contains("INV_X1 g") || l.contains("NAND2_X2 g"))
            .count();
        assert_eq!(instances, nl.gate_count());
    }

    /// Regression for the sanitizer collision: the source names `a[3]` and
    /// `a_3_` both sanitize to `a_3_`, and the old exporter emitted two
    /// ports (and two instance connections) under that one identifier.
    /// With collision-free allocation, every identifier is distinct and
    /// each connection references the right port.
    #[test]
    fn colliding_source_names_stay_distinct() {
        let lib = lib();
        let nand = lib.find(CellFunction::Nand2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("clash", lib.clone());
        let a = nl.add_input("a[3]");
        let b = nl.add_input("a_3_");
        let y = nl.add_gate(nand, &[a, b]).unwrap();
        nl.mark_output("y", y[0]);
        let v = to_verilog(&nl);
        assert!(v.contains("input a_3_;"));
        assert!(v.contains("input a_3__2;"));
        assert!(v.contains(".a(a_3_), .b(a_3__2)"));
        // Exactly one declaration per identifier.
        assert_eq!(v.matches("input a_3_;").count(), 1);
        assert_eq!(v.matches("input a_3__2;").count(), 1);
    }

    /// Named nets are emitted under their own names — the property the
    /// round-trip fixpoint is built on.
    #[test]
    fn named_wires_are_preserved() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("named", lib.clone());
        let a = nl.add_input("a");
        let x = nl.add_gate(inv, &[a]).unwrap()[0];
        nl.set_net_name(x, "my_wire");
        let y = nl.add_gate(inv, &[x]).unwrap()[0];
        nl.mark_output("y", y);
        let v = to_verilog(&nl);
        assert!(v.contains("wire my_wire;"));
        assert!(v.contains(".a(my_wire)"));
    }
}
