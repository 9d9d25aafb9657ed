//! Collision-free identifier allocation shared by the Verilog and EDIF
//! exporters.
//!
//! Source names are sanitized into legal identifiers (bus bits `a[3]`
//! become `a_3_`), but sanitization alone is lossy: distinct source names
//! like `a[3]` and `a_3_` collapse onto the same identifier, which makes a
//! re-imported netlist ambiguous. The table therefore *claims* each
//! identifier in a deterministic order (ports first, then internal wires)
//! and suffixes clashes (`a_3__2`, `a_3__3`, …), so every emitted name is
//! unique and round-trip import is exact. Language keywords are
//! pre-claimed so a port named `wire` can never shadow a declaration.

use crate::{NetDriver, NetId, Netlist};
use std::collections::HashSet;

/// Verilog keywords that may never be emitted as identifiers. (They are
/// equally safe to avoid in EDIF, whose identifier rules are stricter
/// anyway.)
const KEYWORDS: [&str; 10] = [
    "module",
    "endmodule",
    "input",
    "output",
    "inout",
    "wire",
    "assign",
    "reg",
    "supply0",
    "supply1",
];

/// Sanitizes a name into an identifier: every non-alphanumeric character
/// becomes `_`, and a leading digit (or empty name) gains an `n` prefix.
pub(crate) fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'n');
    }
    out
}

/// The allocated, collision-free identifiers for one netlist export.
pub(crate) struct NameTable {
    /// Module (design) identifier.
    pub module: String,
    /// Identifier per net: `Some` for primary inputs and gate-driven nets,
    /// `None` for constants (rendered as literals / tie cells).
    pub nets: Vec<Option<String>>,
    /// Identifier per primary output port, in declaration order.
    pub outputs: Vec<String>,
    /// Identifiers already claimed, for post-hoc extra claims (the EDIF
    /// exporter names tie nets through this).
    used: HashSet<String>,
}

impl NameTable {
    /// Claims identifiers for every port and wire of `netlist`, in the
    /// deterministic order inputs → outputs → gate-driven wires.
    pub fn build(netlist: &Netlist) -> Self {
        let mut used: HashSet<String> = KEYWORDS.iter().map(|k| (*k).to_owned()).collect();
        let mut nets: Vec<Option<String>> = vec![None; netlist.net_count()];
        for &net in netlist.inputs() {
            let base = match &netlist.net(net).name {
                Some(name) => sanitize(name),
                None => format!("pi_{}", net.index()),
            };
            nets[net.index()] = Some(claim(&mut used, base));
        }
        let outputs: Vec<String> = netlist
            .outputs()
            .iter()
            .map(|(name, _)| claim(&mut used, sanitize(name)))
            .collect();
        for (id, net) in netlist.nets() {
            if matches!(net.driver, NetDriver::Gate { .. }) {
                let base = match &net.name {
                    Some(name) => sanitize(name),
                    None => format!("w{}", id.index()),
                };
                nets[id.index()] = Some(claim(&mut used, base));
            }
        }
        Self {
            module: sanitize(netlist.name()),
            nets,
            outputs,
            used,
        }
    }

    /// Claims one more identifier after the table is built, suffixing on
    /// clash like every other allocation.
    pub fn claim_extra(&mut self, base: &str) -> String {
        claim(&mut self.used, sanitize(base))
    }

    /// The identifier of a named (port or wire) net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is a constant — constants have no identifier.
    pub fn net(&self, net: NetId) -> &str {
        self.nets[net.index()]
            .as_deref()
            .expect("constant nets have no identifier")
    }
}

/// Claims `base` in `used`, suffixing `_2`, `_3`, … until free.
fn claim(used: &mut HashSet<String>, base: String) -> String {
    if used.insert(base.clone()) {
        return base;
    }
    let mut k = 2usize;
    loop {
        let candidate = format!("{base}_{k}");
        if used.insert(candidate.clone()) {
            return candidate;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_cells::{CellFunction, DriveStrength, Library};
    use std::sync::Arc;

    #[test]
    fn sanitizer_basics() {
        assert_eq!(sanitize("a[3]"), "a_3_");
        assert_eq!(sanitize("3x"), "n3x");
        assert_eq!(sanitize(""), "n");
        assert_eq!(sanitize("ok_name9"), "ok_name9");
    }

    #[test]
    fn colliding_sources_get_distinct_identifiers() {
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = crate::Netlist::new("clash", lib);
        let a = nl.add_input("a[3]");
        let b = nl.add_input("a_3_");
        let c = nl.add_input("wire");
        let x = nl.add_gate(inv, &[a]).unwrap()[0];
        let y = nl.add_gate(inv, &[b]).unwrap()[0];
        let z = nl.add_gate(inv, &[c]).unwrap()[0];
        nl.mark_output("y", x);
        nl.mark_output("y", y); // duplicate output name must also uniquify
        nl.mark_output("z", z);
        let names = NameTable::build(&nl);
        assert_eq!(names.net(a), "a_3_");
        assert_eq!(names.net(b), "a_3__2");
        assert_eq!(names.net(c), "wire_2", "keywords are pre-claimed");
        assert_eq!(names.outputs, vec!["y", "y_2", "z"]);
    }

    #[test]
    fn wire_fallback_avoids_port_clash() {
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = crate::Netlist::new("wclash", lib);
        let a = nl.add_input("a");
        // The first inverter's output lands on net index 2, so its
        // fallback wire name is `w2` — which this input deliberately
        // squats on.
        let squat = nl.add_input("w2");
        let x = nl.add_gate(inv, &[a]).unwrap()[0];
        let y = nl.add_gate(inv, &[squat]).unwrap()[0];
        nl.mark_output("x", x);
        nl.mark_output("y", y);
        let names = NameTable::build(&nl);
        assert_eq!(names.net(squat), "w2");
        assert_ne!(names.net(x), "w2");
        assert_ne!(names.net(x), names.net(y));
    }
}
