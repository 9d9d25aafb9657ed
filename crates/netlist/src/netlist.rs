//! The netlist data structure and its construction API.

use crate::{GateSink, NetlistError, NetlistStats, Pins, Schedule};
use aix_cells::{CellId, Library, MAX_INPUTS, MAX_OUTPUTS};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Index of a net (wire) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index into the netlist's net table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index previously obtained via
    /// [`raw`](Self::raw). Only meaningful for the same netlist.
    pub fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw `u32` representation, for dense side tables.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a gate (cell instance) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index into the netlist's gate table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index previously obtained via
    /// [`raw`](Self::raw). Only meaningful for the same netlist.
    pub fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw `u32` representation, for dense side tables.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetDriver {
    /// The net is the `index`-th primary input.
    PrimaryInput(u32),
    /// The net is driven by output pin `pin` of gate `gate`.
    Gate {
        /// Driving gate.
        gate: GateId,
        /// Output pin index on that gate.
        pin: u8,
    },
    /// The net carries a constant logic value.
    Constant(bool),
}

/// A wire connecting one driver to any number of gate inputs or ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Optional human-readable name (ports are always named).
    pub name: Option<String>,
    /// The net's source.
    pub driver: NetDriver,
}

/// One standard-cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The library cell implementing this gate.
    pub cell: CellId,
    /// Input nets in pin order.
    pub inputs: Pins<MAX_INPUTS>,
    /// Output nets in pin order.
    pub outputs: Pins<MAX_OUTPUTS>,
}

/// Direction of a named port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Primary input.
    Input,
    /// Primary output.
    Output,
}

/// A combinational gate-level netlist over a shared cell [`Library`].
///
/// Construction is incremental: add inputs, instantiate gates, mark
/// outputs, then [`validate`](Netlist::validate). All analysis layers (STA,
/// simulation, power) consume the validated structure.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    library: Arc<Library>,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    const_nets: [Option<NetId>; 2],
    /// Lazily computed levelized evaluation schedule, shared by every
    /// evaluator over this netlist. Invalidated by topology mutations.
    schedule: OnceLock<Arc<Schedule>>,
}

impl Netlist {
    /// Creates an empty netlist named `name` over `library`.
    pub fn new(name: impl Into<String>, library: Arc<Library>) -> Self {
        Self {
            name: name.into(),
            library,
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            const_nets: [None, None],
            schedule: OnceLock::new(),
        }
    }

    /// An empty netlist with room for `nets` nets and `gates` gates, for
    /// builders that know their final size.
    pub fn with_capacity(
        name: impl Into<String>,
        library: Arc<Library>,
        nets: usize,
        gates: usize,
    ) -> Self {
        let mut netlist = Self::new(name, library);
        netlist.nets.reserve_exact(nets);
        netlist.gates.reserve_exact(gates);
        netlist
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The cell library this netlist is mapped to.
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    fn push_net(&mut self, net: Net) -> NetId {
        let id = NetId(u32::try_from(self.nets.len()).expect("netlist exceeds u32 nets"));
        self.nets.push(net);
        id
    }

    /// Adds a named primary input and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let index = u32::try_from(self.inputs.len()).expect("too many inputs");
        let id = self.push_net(Net {
            name: Some(name.into()),
            driver: NetDriver::PrimaryInput(index),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a `width`-bit input bus named `name`, LSB first
    /// (`name[0]`, `name[1]`, …).
    pub fn add_input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        GateSink::add_input_bus(self, name, width)
    }

    /// The net carrying constant `value`, created on first use.
    pub fn constant(&mut self, value: bool) -> NetId {
        let slot = usize::from(value);
        if let Some(id) = self.const_nets[slot] {
            return id;
        }
        let id = self.push_net(Net {
            name: Some(if value { "tie1" } else { "tie0" }.into()),
            driver: NetDriver::Constant(value),
        });
        self.const_nets[slot] = Some(id);
        id
    }

    /// Names (or renames) a net. The import front-end preserves source
    /// wire names this way so a re-export reproduces its input byte for
    /// byte; the Verilog/EDIF exporters fall back to `w{index}` for
    /// anonymous nets.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_net_name(&mut self, net: NetId, name: impl Into<String>) {
        self.nets[net.index()].name = Some(name.into());
    }

    /// Assembles a netlist directly from pre-built tables — the import
    /// mapper's construction path, which must wire drivers for forward
    /// references before the driving gate exists and therefore cannot go
    /// through [`add_gate`](Self::add_gate). Nothing is checked here;
    /// callers run [`validate`](Self::validate) on the result.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        library: Arc<Library>,
        nets: Vec<Net>,
        gates: Vec<Gate>,
        inputs: Vec<NetId>,
        outputs: Vec<(String, NetId)>,
        const_nets: [Option<NetId>; 2],
    ) -> Self {
        Self {
            name,
            library,
            nets,
            gates,
            inputs,
            outputs,
            const_nets,
            schedule: OnceLock::new(),
        }
    }

    /// Instantiates `cell` with the given input nets, creating one fresh net
    /// per output pin. Returns the output nets in pin order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the connection count does
    /// not match the cell's pin count, and [`NetlistError::UnknownNet`] if
    /// any input net does not exist.
    pub fn add_gate(
        &mut self,
        cell: CellId,
        inputs: &[NetId],
    ) -> Result<Pins<MAX_OUTPUTS>, NetlistError> {
        let function = self.library.cell(cell).function;
        if inputs.len() != function.input_count() {
            return Err(NetlistError::ArityMismatch {
                cell: self.library.cell(cell).name.clone(),
                expected: function.input_count(),
                provided: inputs.len(),
            });
        }
        for &net in inputs {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(net));
            }
        }
        self.schedule.take();
        let gate_id = GateId(u32::try_from(self.gates.len()).expect("netlist exceeds u32 gates"));
        let mut outputs = Pins::new();
        for pin in 0..function.output_count() {
            outputs.push(self.push_net(Net {
                name: None,
                driver: NetDriver::Gate {
                    gate: gate_id,
                    pin: pin as u8,
                },
            }));
        }
        self.gates.push(Gate {
            cell,
            inputs: Pins::from_slice(inputs),
            outputs,
        });
        Ok(outputs)
    }

    /// Declares `net` as the primary output named `name`.
    pub fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Declares a whole bus of outputs, LSB first.
    pub fn mark_output_bus(&mut self, name: &str, nets: &[NetId]) {
        GateSink::mark_output_bus(self, name, nets)
    }

    /// Primary input nets in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Just the output nets, in declaration order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.outputs.iter().map(|(_, n)| *n).collect()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Mutable access to a gate — used by synthesis passes (e.g. resizing).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        self.schedule.take();
        &mut self.gates[id.index()]
    }

    /// Swaps the library cell of gate `id` (drive-strength resizing). The
    /// connections stay as they are, so unlike [`gate_mut`](Self::gate_mut)
    /// this keeps the cached [`schedule`](Self::schedule).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or if `cell` has different input or
    /// output pin counts from the gate's current cell.
    pub fn set_cell(&mut self, id: GateId, cell: CellId) {
        let gate = &mut self.gates[id.index()];
        let (old, new) = (
            self.library.cell(gate.cell).function,
            self.library.cell(cell).function,
        );
        assert!(
            old.input_count() == new.input_count() && old.output_count() == new.output_count(),
            "set_cell must keep the pin counts of gate {id}"
        );
        gate.cell = cell;
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over `(id, gate)` pairs.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Structural statistics (gate/net counts, area, per-function histogram).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::collect(self)
    }

    /// Checks structural well-formedness: arities, drivers, acyclicity, no
    /// sequential cells, at least one output.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for (id, gate) in self.gates() {
            let cell = self.library.cell(gate.cell);
            if cell.function.is_sequential() {
                return Err(NetlistError::SequentialCell {
                    gate: id,
                    cell: cell.name.clone(),
                });
            }
            if gate.inputs.len() != cell.function.input_count() {
                return Err(NetlistError::ArityMismatch {
                    cell: cell.name.clone(),
                    expected: cell.function.input_count(),
                    provided: gate.inputs.len(),
                });
            }
            for &net in gate.inputs.iter().chain(gate.outputs.iter()) {
                if net.index() >= self.nets.len() {
                    return Err(NetlistError::UnknownNet(net));
                }
            }
        }
        for (_, net) in self.outputs.iter() {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(*net));
            }
        }
        // Driver consistency: every net's recorded driver must exist and
        // point back at the net.
        for (id, net) in self.nets() {
            if let NetDriver::Gate { gate, pin } = net.driver {
                let g = self
                    .gates
                    .get(gate.index())
                    .ok_or(NetlistError::UndrivenNet(id))?;
                if g.outputs.get(pin as usize).copied() != Some(id) {
                    return Err(NetlistError::MultipleDrivers(id));
                }
            }
        }
        // Acyclicity: certain without a sort when gate ids are already
        // topological.
        if !crate::graph::ids_are_topological(self) {
            self.topological_order()?;
        }
        Ok(())
    }

    /// Whether gate-id order is a topological order: every gate reads only
    /// primary inputs, constants and outputs of lower-numbered gates.
    /// Netlists built with [`add_gate`](Self::add_gate) always qualify;
    /// imported and rewired ones may not.
    pub fn ids_are_topological(&self) -> bool {
        crate::graph::ids_are_topological(self)
    }

    /// Gates in topological (fanin-before-fanout) order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gate graph is
    /// cyclic.
    pub fn topological_order(&self) -> Result<Vec<GateId>, NetlistError> {
        crate::graph::topological_order(self)
    }

    /// The levelized evaluation schedule, computed once per topology and
    /// shared (via `Arc`) by every evaluator. Mutating the topology with
    /// [`add_gate`](Self::add_gate) or [`gate_mut`](Self::gate_mut)
    /// invalidates the cache; [`set_cell`](Self::set_cell) does not.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gate graph is
    /// cyclic.
    pub fn schedule(&self) -> Result<Arc<Schedule>, NetlistError> {
        if let Some(cached) = self.schedule.get() {
            return Ok(Arc::clone(cached));
        }
        let fresh = Arc::new(crate::graph::levelize(self)?);
        Ok(Arc::clone(self.schedule.get_or_init(|| fresh)))
    }

    /// Per-net fanout: the `(gate, input pin)` pairs reading each net.
    pub fn fanout(&self) -> Vec<Vec<(GateId, u8)>> {
        let mut fanout = vec![Vec::new(); self.nets.len()];
        for (id, gate) in self.gates() {
            for (pin, &net) in gate.inputs.iter().enumerate() {
                fanout[net.index()].push((id, pin as u8));
            }
        }
        fanout
    }

    /// The fixed load each primary-output port adds to its net, in fF.
    pub const OUTPUT_PORT_LOAD_FF: f64 = 2.0;

    /// Capacitive load on each net in femtofarads: the sum of the input-pin
    /// capacitances of all sinks, plus a fixed port load for primary outputs.
    ///
    /// The sum runs in gate-id then pin order, then port order. Floating
    /// point addition is not associative, so code that re-derives one
    /// net's load must add in the same order to get the same bits.
    pub fn net_loads_ff(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.nets.len()];
        for (_, gate) in self.gates() {
            let cap = self.library.cell(gate.cell).input_cap_ff;
            for &net in &gate.inputs {
                loads[net.index()] += cap;
            }
        }
        for (_, net) in &self.outputs {
            loads[net.index()] += Self::OUTPUT_PORT_LOAD_FF;
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_cells::{CellFunction, DriveStrength};

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn cell(lib: &Library, f: CellFunction) -> CellId {
        lib.find(f, DriveStrength::X1).unwrap()
    }

    #[test]
    fn build_inverter_chain() {
        let lib = lib();
        let mut nl = Netlist::new("chain", lib.clone());
        let a = nl.add_input("a");
        let inv = cell(&lib, CellFunction::Inv);
        let x = nl.add_gate(inv, &[a]).unwrap();
        let y = nl.add_gate(inv, &[x[0]]).unwrap();
        nl.mark_output("y", y[0]);
        nl.validate().unwrap();
        assert_eq!(nl.gate_count(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let lib = lib();
        let mut nl = Netlist::new("bad", lib.clone());
        let a = nl.add_input("a");
        let nand = cell(&lib, CellFunction::Nand2);
        let err = nl.add_gate(nand, &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn no_outputs_rejected() {
        let lib = lib();
        let mut nl = Netlist::new("empty", lib);
        nl.add_input("a");
        assert_eq!(nl.validate(), Err(NetlistError::NoOutputs));
    }

    #[test]
    fn sequential_cell_rejected() {
        let lib = lib();
        let mut nl = Netlist::new("seq", lib.clone());
        let a = nl.add_input("a");
        let dff = cell(&lib, CellFunction::Dff);
        let q = nl.add_gate(dff, &[a]).unwrap();
        nl.mark_output("q", q[0]);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::SequentialCell { .. })
        ));
    }

    #[test]
    fn constants_are_memoized() {
        let lib = lib();
        let mut nl = Netlist::new("const", lib);
        let t0 = nl.constant(false);
        let t1 = nl.constant(true);
        assert_eq!(nl.constant(false), t0);
        assert_eq!(nl.constant(true), t1);
        assert_ne!(t0, t1);
    }

    #[test]
    fn constant_evaluation() {
        let lib = lib();
        let mut nl = Netlist::new("const", lib.clone());
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let and = cell(&lib, CellFunction::And2);
        let y = nl.add_gate(and, &[a, one]).unwrap();
        nl.mark_output("y", y[0]);
        // The values are checked by `aix-sim`'s scalar evaluator tests;
        // here the constant is a driven net the gate reads.
        nl.validate().unwrap();
        assert_eq!(nl.net(one).driver, NetDriver::Constant(true));
        assert_eq!(nl.gate(GateId(0)).inputs[..], [a, one]);
    }

    #[test]
    fn fanout_and_loads() {
        let lib = lib();
        let mut nl = Netlist::new("fan", lib.clone());
        let a = nl.add_input("a");
        let inv = cell(&lib, CellFunction::Inv);
        let x = nl.add_gate(inv, &[a]).unwrap();
        let _ = nl.add_gate(inv, &[x[0]]).unwrap();
        let y2 = nl.add_gate(inv, &[x[0]]).unwrap();
        nl.mark_output("y", y2[0]);
        let fanout = nl.fanout();
        assert_eq!(fanout[x[0].index()].len(), 2);
        let loads = nl.net_loads_ff();
        let inv_cap = lib.cell(inv).input_cap_ff;
        assert!((loads[x[0].index()] - 2.0 * inv_cap).abs() < 1e-12);
        // output port load on y
        assert!(loads[y2[0].index()] > 0.0);
    }

    #[test]
    fn multi_output_gate_pins() {
        let lib = lib();
        let mut nl = Netlist::new("fa", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let fa = cell(&lib, CellFunction::FullAdder);
        let out = nl.add_gate(fa, &[a, b, c]).unwrap();
        assert_eq!(out.len(), 2);
        nl.mark_output("sum", out[0]);
        nl.mark_output("cout", out[1]);
        nl.validate().unwrap();
        assert_eq!(nl.gate(GateId(0)).outputs[..], out[..]);
    }

    #[test]
    fn input_bus_naming() {
        let lib = lib();
        let mut nl = Netlist::new("bus", lib);
        let bus = nl.add_input_bus("a", 4);
        assert_eq!(bus.len(), 4);
        assert_eq!(nl.net(bus[2]).name.as_deref(), Some("a[2]"));
    }
}
