//! Graph algorithms over netlists: topological ordering (Kahn's algorithm)
//! and the levelized evaluation schedule shared by every functional engine.

use crate::{GateId, NetDriver, Netlist, NetlistError};

/// A levelized evaluation schedule: every gate annotated with its logic
/// level (the longest gate-path distance from a primary input), and the
/// gate list sorted by `(level, gate id)`.
///
/// The order is a valid topological order, so a scalar evaluator can
/// walk it directly; the level structure is what
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

/// Whether every gate reads only primary inputs, constants and outputs of
/// lower-numbered gates. Then gate-id order is a topological order and the
/// graph is acyclic. Netlists built with [`Netlist::add_gate`] always
/// qualify; imported ones and rewired ones may not.
pub(crate) fn ids_are_topological(netlist: &Netlist) -> bool {
    netlist.gates().all(|(id, gate)| {
        gate.inputs
            .iter()
            .all(|&net| match netlist.net(net).driver {
                NetDriver::Gate { gate: driver, .. } => driver < id,
                _ => true,
            })
    })
}

/// Levelizes `netlist`: topological order first (gate-id order when that
/// is one, as levels do not depend on which order computes them), then
/// longest-path levels in one pass, then a stable `(level, id)` sort.
pub(crate) fn levelize(netlist: &Netlist) -> Result<Schedule, NetlistError> {
    let topo = if ids_are_topological(netlist) {
        (0..netlist.gate_count() as u32).map(GateId).collect()
    } else {
        topological_order(netlist)?
    };
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
/// Kahn's algorithm over a CSR successor table: the successors of gate `g`
/// are `successors[begin(g)..end(g)]`, filled in gate-id then input-pin
/// order, so ties resolve exactly as with one successor list per gate.
/// The output vector doubles as Kahn's FIFO queue (a gate is appended when
/// its in-degree reaches zero and dequeued in the same order), so the sort
/// allocates four flat arrays whatever the gate count.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] naming one gate on a cycle
/// if the graph is not a DAG.
pub(crate) fn topological_order(netlist: &Netlist) -> Result<Vec<GateId>, NetlistError> {
    let gate_count = netlist.gate_count();
    let driver_of = |net: crate::NetId| match netlist.net(net).driver {
        NetDriver::Gate { gate, .. } => Some(gate.index()),
        _ => None,
    };
    // In-degree of each gate = number of its input pins driven by gates;
    // `end[d]` first counts the successors of driver `d`.
    let mut in_degree = vec![0u32; gate_count];
    let mut end = vec![0u32; gate_count];
    for (id, gate) in netlist.gates() {
        for &net in &gate.inputs {
            if let Some(driver) = driver_of(net) {
                end[driver] += 1;
                in_degree[id.index()] += 1;
            }
        }
    }
    // Prefix sums make `end[d]` the start of `d`'s run; filling advances it
    // to the run's end, which is where the next driver's run begins.
    let mut total = 0u32;
    for slot in &mut end {
        let count = *slot;
        *slot = total;
        total += count;
    }
    let mut successors = vec![0u32; total as usize];
    for (id, gate) in netlist.gates() {
        for &net in &gate.inputs {
            if let Some(driver) = driver_of(net) {
                successors[end[driver] as usize] = id.0;
                end[driver] += 1;
            }
        }
    }
    let begin = |g: usize| if g == 0 { 0 } else { end[g - 1] as usize };
    let mut order: Vec<GateId> = Vec::with_capacity(gate_count);
    order.extend(
        (0..gate_count as u32)
            .filter(|&g| in_degree[g as usize] == 0)
            .map(GateId),
    );
    let mut head = 0;
    while head < order.len() {
        let g = order[head].index();
        head += 1;
        for &succ in &successors[begin(g)..end[g] as usize] {
            in_degree[succ as usize] -= 1;
            if in_degree[succ as usize] == 0 {
                order.push(GateId(succ));
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
    use crate::{GateId, NetDriver, Netlist, NetlistError, Schedule};
    use aix_cells::{CellFunction, DriveStrength, Library};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The Kahn sort the CSR version replaced, kept verbatim as an oracle:
    /// one successor `Vec` per gate and a separate FIFO queue.
    fn oracle_topological_order(netlist: &Netlist) -> Result<Vec<GateId>, NetlistError> {
        let gate_count = netlist.gate_count();
        let mut in_degree = vec![0u32; gate_count];
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
            let culprit = in_degree
                .iter()
                .position(|&d| d > 0)
                .expect("cycle implies a positive in-degree");
            return Err(NetlistError::CombinationalCycle(GateId(culprit as u32)));
        }
        Ok(order)
    }

    /// The schedule the oracle's order levelizes to: longest-path levels,
    /// then a `(level, id)` sort.
    fn oracle_schedule(netlist: &Netlist) -> Result<Schedule, NetlistError> {
        let topo = oracle_topological_order(netlist)?;
        let mut level_of = vec![0u32; netlist.gate_count()];
        for &gate_id in &topo {
            for &net in &netlist.gate(gate_id).inputs {
                if let NetDriver::Gate { gate: driver, .. } = netlist.net(net).driver {
                    level_of[gate_id.index()] =
                        level_of[gate_id.index()].max(level_of[driver.index()] + 1);
                }
            }
        }
        let levels = topo
            .iter()
            .map(|g| level_of[g.index()] + 1)
            .max()
            .unwrap_or(0);
        let mut order: Vec<u32> = topo.iter().map(|g| g.0).collect();
        order.sort_by_key(|&g| (level_of[g as usize], g));
        Ok(Schedule {
            order,
            level_of,
            levels,
        })
    }

    /// Combinational functions only, multi-output adders included.
    const COMB: [CellFunction; 15] = [
        CellFunction::Inv,
        CellFunction::Buf,
        CellFunction::Nand2,
        CellFunction::Nand3,
        CellFunction::Nor2,
        CellFunction::Nor3,
        CellFunction::And2,
        CellFunction::Or2,
        CellFunction::Xor2,
        CellFunction::Xnor2,
        CellFunction::Aoi21,
        CellFunction::Oai21,
        CellFunction::Mux2,
        CellFunction::HalfAdder,
        CellFunction::FullAdder,
    ];

    /// A random DAG: each gate draws its operands (by index, modulo the
    /// growing net pool) from everything built so far, so fanin repeats
    /// freely. Gates are created in a shuffled-looking order relative to
    /// their depth because operand picks reach anywhere in the pool.
    fn random_dag(
        library: &Arc<Library>,
        inputs: usize,
        constants: bool,
        gates: &[(usize, [usize; 3])],
    ) -> Netlist {
        let mut nl = Netlist::new("random", library.clone());
        let mut pool: Vec<_> = (0..inputs)
            .map(|i| nl.add_input(format!("in{i}")))
            .collect();
        if constants {
            pool.push(nl.constant(false));
            pool.push(nl.constant(true));
        }
        for (function_pick, operand_picks) in gates {
            let function = COMB[function_pick % COMB.len()];
            let cell = library.find(function, DriveStrength::X1).unwrap();
            let operands: Vec<_> = operand_picks[..function.input_count()]
                .iter()
                .map(|pick| pool[pick % pool.len()])
                .collect();
            pool.extend(nl.add_gate(cell, &operands).unwrap());
        }
        let last = *pool.last().unwrap();
        nl.mark_output("y", last);
        nl
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The CSR sort returns the oracle's order on DAGs and the same
        /// culprit once random rewiring closes cycles; the schedule built
        /// from it is the one the oracle's order levelizes to. Rewiring
        /// also yields acyclic graphs whose gate ids are out of
        /// topological order, where Kahn's tie-breaks matter most.
        #[test]
        fn csr_order_matches_the_oracle(
            inputs in 1usize..=4,
            constants in any::<bool>(),
            gates in proptest::collection::vec((0usize..64, [0usize..64, 0usize..64, 0usize..64]), 1..=24),
            rewires in proptest::collection::vec((0usize..64, 0usize..3, 0usize..64), 0..=3),
        ) {
            let library = Arc::new(Library::nangate45_like());
            let mut nl = random_dag(&library, inputs, constants, &gates);
            prop_assert!(super::ids_are_topological(&nl));
            prop_assert_eq!(nl.topological_order(), oracle_topological_order(&nl));
            prop_assert_eq!(nl.schedule().map(|s| (*s).clone()), oracle_schedule(&nl));
            // Rewire inputs to arbitrary gate outputs (either pin of a
            // two-output cell), which may close cycles through any gate.
            for (gate_pick, pin_pick, source_pick) in rewires {
                let gate = GateId((gate_pick % nl.gate_count()) as u32);
                let outputs = nl.gate(GateId((source_pick % nl.gate_count()) as u32)).outputs;
                let source = outputs[pin_pick % outputs.len()];
                let pins = nl.gate(gate).inputs.len();
                nl.gate_mut(gate).inputs[pin_pick % pins] = source;
                prop_assert_eq!(nl.topological_order(), oracle_topological_order(&nl));
                prop_assert_eq!(nl.schedule().map(|s| (*s).clone()), oracle_schedule(&nl));
                // Only acyclic graphs can have topological ids, and
                // validation agrees with the sort on acyclicity.
                let acyclic = oracle_topological_order(&nl).is_ok();
                prop_assert!(acyclic || !super::ids_are_topological(&nl));
                prop_assert_eq!(nl.validate().is_ok(), acyclic);
            }
        }
    }

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
            assert!(
                window[0].index() < window[1].index(),
                "chain order is id order"
            );
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
        assert!(
            std::sync::Arc::ptr_eq(&first, &again),
            "second call hits the cache"
        );
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
