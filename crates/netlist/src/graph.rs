//! Graph algorithms over netlists: topological ordering (Kahn's algorithm)
//! and the levelized evaluation schedule shared by every functional engine.

use crate::{GateId, NetDriver, Netlist, NetlistError};

/// A levelized evaluation schedule: every gate annotated with its logic
/// level (the longest gate-path distance from a primary input), and the
/// gate list sorted by `(level, gate id)`.
///
/// The order is a valid topological order, so it drives the scalar
/// [`Evaluator`](crate::Evaluator) directly; the level structure is what
/// bit-parallel and (future) data-parallel engines key on — all gates of a
/// level are independent of one another. Netlists cache their schedule
/// (see [`Netlist::schedule`]), so levelization is a one-time cost however
/// many evaluators a netlist feeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Raw gate indices in `(level, id)` order — a topological order.
    order: Vec<u32>,
    /// Logic level of each gate, indexed by raw gate id.
    level_of: Vec<u32>,
    /// Number of levels (0 for a gate-free netlist).
    levels: u32,
}

impl Schedule {
    /// Gate indices in evaluation (fanin-before-fanout) order.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Evaluation order as [`GateId`]s.
    pub fn gate_order(&self) -> impl DoubleEndedIterator<Item = GateId> + '_ {
        self.order.iter().map(|&g| GateId(g))
    }

    /// Logic level of `gate` (0 = fed only by primary inputs or constants).
    pub fn level(&self, gate: GateId) -> u32 {
        self.level_of[gate.index()]
    }

    /// Number of logic levels.
    pub fn level_count(&self) -> u32 {
        self.levels
    }
}

/// Levelizes `netlist`: topological order first, then longest-path levels
/// in one pass, then a stable `(level, id)` sort.
pub(crate) fn levelize(netlist: &Netlist) -> Result<Schedule, NetlistError> {
    let topo = topological_order(netlist)?;
    let mut level_of = vec![0u32; netlist.gate_count()];
    let mut levels = 0u32;
    for &gate_id in &topo {
        let mut level = 0u32;
        for &net in &netlist.gate(gate_id).inputs {
            if let NetDriver::Gate { gate: driver, .. } = netlist.net(net).driver {
                level = level.max(level_of[driver.index()] + 1);
            }
        }
        level_of[gate_id.index()] = level;
        levels = levels.max(level + 1);
    }
    let mut order: Vec<u32> = topo.iter().map(|g| g.0).collect();
    order.sort_by_key(|&g| (level_of[g as usize], g));
    Ok(Schedule {
        order,
        level_of,
        levels,
    })
}

/// Computes a fanin-before-fanout ordering of all gates.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] naming one gate on a cycle
/// if the graph is not a DAG.
pub(crate) fn topological_order(netlist: &Netlist) -> Result<Vec<GateId>, NetlistError> {
    let gate_count = netlist.gate_count();
    // In-degree of each gate = number of its input nets driven by gates.
    let mut in_degree = vec![0u32; gate_count];
    // Successor lists keyed by driving gate.
    let mut successors: Vec<Vec<u32>> = vec![Vec::new(); gate_count];
    for (id, gate) in netlist.gates() {
        for &net in &gate.inputs {
            if let NetDriver::Gate { gate: driver, .. } = netlist.net(net).driver {
                successors[driver.index()].push(id.0);
                in_degree[id.index()] += 1;
            }
        }
    }
    let mut queue: Vec<u32> = (0..gate_count as u32)
        .filter(|&g| in_degree[g as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(gate_count);
    let mut head = 0;
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        order.push(GateId(g));
        for &succ in &successors[g as usize] {
            in_degree[succ as usize] -= 1;
            if in_degree[succ as usize] == 0 {
                queue.push(succ);
            }
        }
    }
    if order.len() != gate_count {
        // Some gate still has positive in-degree: it lies on a cycle.
        let culprit = in_degree
            .iter()
            .position(|&d| d > 0)
            .expect("cycle implies a positive in-degree");
        return Err(NetlistError::CombinationalCycle(GateId(culprit as u32)));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use crate::{NetDriver, Netlist, NetlistError};
    use aix_cells::{CellFunction, DriveStrength, Library};
    use std::sync::Arc;

    #[test]
    fn linear_chain_is_ordered() {
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("chain", lib);
        let a = nl.add_input("a");
        let mut prev = a;
        for _ in 0..10 {
            prev = nl.add_gate(inv, &[prev]).unwrap()[0];
        }
        nl.mark_output("y", prev);
        let order = nl.topological_order().unwrap();
        assert_eq!(order.len(), 10);
        for window in order.windows(2) {
            assert!(window[0].index() < window[1].index(), "chain order is id order");
        }
    }

    #[test]
    fn cycle_detected() {
        let lib = Arc::new(Library::nangate45_like());
        let nand = lib.find(CellFunction::Nand2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("latch", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        // Cross-coupled NANDs (an SR latch): a combinational cycle.
        let q = nl.add_gate(nand, &[a, b]).unwrap()[0];
        let qn = nl.add_gate(nand, &[b, q]).unwrap()[0];
        // Rewire the first gate's second input to close the loop.
        nl.gate_mut(crate::GateId(0)).inputs[1] = qn;
        nl.mark_output("q", q);
        assert!(matches!(
            nl.topological_order(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn diamond_respects_dependencies() {
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("diamond", lib);
        let a = nl.add_input("a");
        let l = nl.add_gate(inv, &[a]).unwrap()[0];
        let r = nl.add_gate(inv, &[a]).unwrap()[0];
        let y = nl.add_gate(and, &[l, r]).unwrap()[0];
        nl.mark_output("y", y);
        let order = nl.topological_order().unwrap();
        let pos = |g: u32| order.iter().position(|x| x.0 == g).unwrap();
        assert!(pos(0) < pos(2) && pos(1) < pos(2));
    }

    #[test]
    fn schedule_levels_respect_dependencies() {
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("diamond", lib);
        let a = nl.add_input("a");
        let l = nl.add_gate(inv, &[a]).unwrap()[0];
        let r = nl.add_gate(inv, &[a]).unwrap()[0];
        let y = nl.add_gate(and, &[l, r]).unwrap()[0];
        nl.mark_output("y", y);
        let schedule = nl.schedule().unwrap();
        assert_eq!(schedule.level_count(), 2);
        assert_eq!(schedule.level(crate::GateId(0)), 0);
        assert_eq!(schedule.level(crate::GateId(1)), 0);
        assert_eq!(schedule.level(crate::GateId(2)), 1);
        // (level, id) order is a topological order with both INVs first.
        assert_eq!(schedule.order(), &[0, 1, 2]);
    }

    #[test]
    fn schedule_is_cached_and_invalidated_on_mutation() {
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("chain", lib);
        let a = nl.add_input("a");
        let x = nl.add_gate(inv, &[a]).unwrap()[0];
        nl.mark_output("y", x);
        let first = nl.schedule().unwrap();
        let again = nl.schedule().unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &again), "second call hits the cache");
        let y = nl.add_gate(inv, &[x]).unwrap()[0];
        nl.mark_output("z", y);
        let rebuilt = nl.schedule().unwrap();
        assert_eq!(rebuilt.order().len(), 2, "mutation invalidates the cache");
        let inv_x2 = nl.library().upsize(inv).unwrap();
        nl.set_cell(crate::GateId(1), inv_x2);
        assert_eq!(nl.gate(crate::GateId(1)).cell, inv_x2);
        assert!(
            std::sync::Arc::ptr_eq(&rebuilt, &nl.schedule().unwrap()),
            "a cell swap keeps the topology and the cache"
        );
    }

    #[test]
    #[should_panic(expected = "pin counts")]
    fn set_cell_rejects_a_different_arity() {
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let nand = lib.find(CellFunction::Nand2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("chain", lib);
        let a = nl.add_input("a");
        let x = nl.add_gate(inv, &[a]).unwrap()[0];
        nl.mark_output("y", x);
        nl.set_cell(crate::GateId(0), nand);
    }

    #[test]
    fn constants_do_not_create_dependencies() {
        let lib = Arc::new(Library::nangate45_like());
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("const", lib);
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let y = nl.add_gate(and, &[a, one]).unwrap()[0];
        nl.mark_output("y", y);
        assert_eq!(nl.topological_order().unwrap().len(), 1);
        assert!(matches!(nl.net(one).driver, NetDriver::Constant(true)));
    }
}
