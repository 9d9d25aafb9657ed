//! EDIF 2.0.0 netlist export: the s-expression interchange twin of
//! [`crate::to_verilog`].
//!
//! The emitted file has two libraries — `cells` declaring the interface of
//! every referenced primitive (plus `TIE0`/`TIE1` driver cells when the
//! netlist uses constants, since EDIF has no constant literal), and `work`
//! holding the design cell itself — followed by a `(design …)` section
//! naming the top cell. Identifiers come from the same collision-free
//! [`crate::names::NameTable`] as the Verilog exporter; names that had to
//! be sanitized carry their original spelling in a `(rename id "orig")`
//! form, which the importer restores, making export ∘ import the identity
//! on exporter output (the same fixpoint the Verilog round-trip relies
//! on).
//!
//! Ordering is deterministic throughout: primitive cells in library-id
//! order, instances in gate order (tie instances last), nets in net-id
//! order with constant nets last — chosen so a re-export of the
//! re-imported netlist reproduces the file byte for byte.

use crate::names::NameTable;
use crate::verilog::{INPUT_PINS, OUTPUT_PINS};
use crate::{NetDriver, NetId, Netlist};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders `id`, attaching `(rename …)` when the identifier had to be
/// sanitized away from the original name.
fn renamed(id: &str, original: &str) -> String {
    if id == original {
        id.to_owned()
    } else {
        format!("(rename {id} \"{original}\")")
    }
}

/// Renders the netlist as an EDIF 2.0.0 netlist file.
///
/// # Examples
///
/// ```
/// use aix_cells::{CellFunction, DriveStrength, Library};
/// use aix_netlist::{to_edif, Netlist};
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let mut nl = Netlist::new("inv_wrap", lib.clone());
/// let a = nl.add_input("a");
/// let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
/// let y = nl.add_gate(inv, &[a])?;
/// nl.mark_output("y", y[0]);
/// let edif = to_edif(&nl);
/// assert!(edif.starts_with("(edif inv_wrap"));
/// assert!(edif.contains("(cellref INV_X1"));
/// # Ok::<(), aix_netlist::NetlistError>(())
/// ```
pub fn to_edif(netlist: &Netlist) -> String {
    let mut names = NameTable::build(netlist);
    let module = names.module.clone();
    // Constant nets, in id order; emitted last (instances and nets alike)
    // so the importer's allocation order reproduces this very file.
    let const_nets: Vec<(NetId, bool)> = netlist
        .nets()
        .filter_map(|(id, net)| match net.driver {
            NetDriver::Constant(value) => Some((id, value)),
            _ => None,
        })
        .collect();
    let const_net_name = |value: bool| if value { "tie1" } else { "tie0" };
    let tie_cell = |value: bool| if value { "TIE1" } else { "TIE0" };
    let mut const_names: [Option<String>; 2] = [None, None];
    for &(_, value) in &const_nets {
        const_names[usize::from(value)] = Some(names.claim_extra(const_net_name(value)));
    }

    let mut out = String::new();
    let _ = writeln!(out, "(edif {module}");
    out.push_str("  (edifversion 2 0 0)\n");
    out.push_str("  (ediflevel 0)\n");
    out.push_str("  (keywordmap (keywordlevel 0))\n");

    // Primitive library: interface stubs for every referenced cell.
    out.push_str("  (library cells\n");
    out.push_str("    (ediflevel 0)\n");
    out.push_str("    (technology (numberdefinition))\n");
    let used_cells: BTreeSet<_> = netlist.gates().map(|(_, gate)| gate.cell).collect();
    for cell_id in &used_cells {
        let cell = netlist.library().cell(*cell_id);
        let function = cell.function;
        let _ = writeln!(out, "    (cell {}", cell.name);
        out.push_str("      (celltype GENERIC)\n");
        out.push_str("      (view netlist\n");
        out.push_str("        (viewtype NETLIST)\n");
        out.push_str("        (interface\n");
        for pin in INPUT_PINS.iter().take(function.input_count()) {
            let _ = writeln!(out, "          (port {pin} (direction INPUT))");
        }
        for pin in OUTPUT_PINS.iter().take(function.output_count()) {
            let _ = writeln!(out, "          (port {pin} (direction OUTPUT))");
        }
        out.push_str("        )))\n");
    }
    for &(_, value) in &const_nets {
        let _ = writeln!(out, "    (cell {}", tie_cell(value));
        out.push_str("      (celltype GENERIC)\n");
        out.push_str("      (view netlist\n");
        out.push_str("        (viewtype NETLIST)\n");
        out.push_str("        (interface\n");
        out.push_str("          (port y (direction OUTPUT))\n");
        out.push_str("        )))\n");
    }
    out.push_str("  )\n");

    // The design cell.
    out.push_str("  (library work\n");
    out.push_str("    (ediflevel 0)\n");
    out.push_str("    (technology (numberdefinition))\n");
    let _ = writeln!(out, "    (cell {module}");
    out.push_str("      (celltype GENERIC)\n");
    out.push_str("      (view netlist\n");
    out.push_str("        (viewtype NETLIST)\n");
    out.push_str("        (interface\n");
    for &net in netlist.inputs() {
        let original = netlist.net(net).name.clone();
        let original = original.as_deref().unwrap_or("");
        let _ = writeln!(
            out,
            "          (port {} (direction INPUT))",
            renamed(names.net(net), original)
        );
    }
    for (index, (name, _)) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(
            out,
            "          (port {} (direction OUTPUT))",
            renamed(&names.outputs[index], name)
        );
    }
    out.push_str("        )\n");
    out.push_str("        (contents\n");
    for (id, gate) in netlist.gates() {
        let cell = netlist.library().cell(gate.cell);
        let _ = writeln!(
            out,
            "          (instance g{} (viewref netlist (cellref {} (libraryref cells))))",
            id.index(),
            cell.name
        );
    }
    for &(_, value) in &const_nets {
        let _ = writeln!(
            out,
            "          (instance {} (viewref netlist (cellref {} (libraryref cells))))",
            const_net_name(value),
            tie_cell(value)
        );
    }
    // Nets: driver portref first, then gate sinks in (gate, pin) order,
    // then top-level output ports.
    let fanout = netlist.fanout();
    let emit_net = |out: &mut String, id: NetId, name: &str, original: &str| {
        let mut joined = Vec::new();
        match netlist.net(id).driver {
            NetDriver::PrimaryInput(_) => joined.push(format!("(portref {name})")),
            NetDriver::Gate { gate, pin } => joined.push(format!(
                "(portref {} (instanceref g{}))",
                OUTPUT_PINS[pin as usize],
                gate.index()
            )),
            NetDriver::Constant(value) => joined.push(format!(
                "(portref y (instanceref {}))",
                const_net_name(value)
            )),
        }
        for &(gate, pin) in &fanout[id.index()] {
            joined.push(format!(
                "(portref {} (instanceref g{}))",
                INPUT_PINS[pin as usize],
                gate.index()
            ));
        }
        for (index, (_, net)) in netlist.outputs().iter().enumerate() {
            if *net == id {
                joined.push(format!("(portref {})", names.outputs[index]));
            }
        }
        let _ = writeln!(
            out,
            "          (net {} (joined {}))",
            renamed(name, original),
            joined.join(" ")
        );
    };
    for (id, net) in netlist.nets() {
        match net.driver {
            NetDriver::Constant(_) => {}
            NetDriver::PrimaryInput(_) | NetDriver::Gate { .. } => {
                let original = net.name.clone();
                let name = names.net(id).to_owned();
                emit_net(&mut out, id, &name, original.as_deref().unwrap_or(&name));
            }
        }
    }
    for &(id, value) in &const_nets {
        let name = const_names[usize::from(value)]
            .clone()
            .expect("claimed above");
        emit_net(&mut out, id, &name, &name);
    }
    out.push_str("        )))\n");
    out.push_str("  )\n");
    let _ = writeln!(
        out,
        "  (design {module} (cellref {module} (libraryref work))))"
    );
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
    fn structure_of_a_half_adder() {
        let lib = lib();
        let ha = lib
            .find(CellFunction::HalfAdder, DriveStrength::X1)
            .unwrap();
        let mut nl = Netlist::new("ha", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let outs = nl.add_gate(ha, &[a, b]).unwrap();
        nl.mark_output("sum", outs[0]);
        nl.mark_output("carry", outs[1]);
        let e = to_edif(&nl);
        assert!(e.starts_with("(edif ha"));
        assert!(e.contains("(cell HA_X1"));
        assert!(e.contains("(port a (direction INPUT))"));
        assert!(e.contains("(port sum (direction OUTPUT))"));
        assert!(e.contains("(instance g0 (viewref netlist (cellref HA_X1 (libraryref cells))))"));
        assert!(e.contains("(net a (joined (portref a) (portref a (instanceref g0))))"));
        assert!(e.contains("(portref y (instanceref g0))"));
        assert!(e.contains("(portref sum)"));
        assert!(e.contains("(design ha (cellref ha (libraryref work))))"));
    }

    #[test]
    fn bus_ports_carry_renames() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("bus", lib.clone());
        let bus = nl.add_input_bus("data", 2);
        let y = nl.add_gate(inv, &[bus[0]]).unwrap();
        nl.mark_output("q[0]", y[0]);
        let e = to_edif(&nl);
        assert!(e.contains("(port (rename data_0_ \"data[0]\") (direction INPUT))"));
        assert!(e.contains("(port (rename q_0_ \"q[0]\") (direction OUTPUT))"));
    }

    #[test]
    fn constants_become_tie_instances() {
        let lib = lib();
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("c", lib.clone());
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let y = nl.add_gate(and, &[a, one]).unwrap();
        nl.mark_output("y", y[0]);
        let e = to_edif(&nl);
        assert!(e.contains("(cell TIE1"));
        assert!(e.contains("(instance tie1 (viewref netlist (cellref TIE1 (libraryref cells))))"));
        assert!(e.contains(
            "(net tie1 (joined (portref y (instanceref tie1)) (portref b (instanceref g0))))"
        ));
    }
}
