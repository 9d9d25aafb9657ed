//! Netlist optimization: constant propagation and dead-gate sweeping in
//! one pass.
//!
//! Together these implement "re-synthesis" of a truncated component: tying
//! operand LSBs to constant zero lets constant propagation fold and
//! simplify the affected cone, and the sweep removes everything no longer
//! reachable from an output. The [`Planner`] simplifies each gate as it is
//! added, over flat arrays, and builds the result once; generators write
//! into it directly, and [`optimize`] feeds it an existing netlist. The
//! two-pass reference both must reproduce byte for byte lives in the
//! crate's test oracle.

use aix_arith::Component;
use aix_cells::{CellFunction, CellId, DriveStrength, Library, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{GateId, GateSink, NetDriver, NetId, Netlist, NetlistError, Pins};
use std::cell::RefCell;
use std::sync::Arc;

/// A resolved signal source: a known constant or a net of type `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolved<N> {
    Const(bool),
    Net(N),
}

impl<N> Resolved<N> {
    fn constant(&self) -> Option<bool> {
        match self {
            Resolved::Const(v) => Some(*v),
            Resolved::Net(_) => None,
        }
    }
}

/// Operands of a replacement cell. Every replacement has at most two
/// inputs; a one-input cell reads only the first slot.
pub(crate) type Operands<N> = [Resolved<N>; 2];

/// What a single output pin of a simplified gate becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PinPlan<N> {
    /// The pin is a known constant.
    Const(bool),
    /// The pin aliases another signal.
    Wire(Resolved<N>),
    /// The pin is computed by a (smaller) replacement gate.
    Gate(CellFunction, Operands<N>),
}

/// Simplification decision for a whole gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GatePlan<N> {
    /// Instantiate the original cell unchanged (inputs resolved).
    Keep,
    /// Replace with one plan per output pin. Plans are read zipped with
    /// the gate's outputs, so a single-output gate's second slot (a copy
    /// of the first) is never read.
    Replace([PinPlan<N>; MAX_OUTPUTS]),
    /// Replace the whole gate with one (possibly multi-output) cell whose
    /// outputs map onto the old outputs in pin order.
    Rewrite(CellFunction, Operands<N>),
}

/// Replaces a single-output gate by `pin`.
fn replace<N: Copy>(pin: PinPlan<N>) -> GatePlan<N> {
    GatePlan::Replace([pin; MAX_OUTPUTS])
}

/// An inverter of `x`.
fn inv<N: Copy>(x: Resolved<N>) -> PinPlan<N> {
    PinPlan::Gate(CellFunction::Inv, [x, x])
}

/// The two inputs of a three-input gate other than input `skip`, in order.
fn others<N: Copy>(ins: &[Resolved<N>], skip: usize) -> Operands<N> {
    let mut live = (0..3).filter(|&j| j != skip).map(|j| ins[j]);
    [
        live.next().expect("two others"),
        live.next().expect("two others"),
    ]
}

/// The X1 cell implementing a replacement `function`.
pub(crate) fn replacement_cell(library: &Library, function: CellFunction) -> CellId {
    library
        .find(function, DriveStrength::X1)
        .expect("library contains all functions at X1")
}

/// Boolean simplification of `function` under partially constant inputs.
/// Two inputs are the same signal exactly when their resolutions are
/// equal, so `N` must name each unresolved net uniquely.
pub(crate) fn simplify<N: Copy + Eq>(function: CellFunction, ins: &[Resolved<N>]) -> GatePlan<N> {
    use CellFunction as F;
    use PinPlan as P;
    let c = |i: usize| ins[i].constant();
    // Fully constant gates fold outright.
    if ins.iter().all(|r| r.constant().is_some()) {
        let mut values = [false; MAX_INPUTS];
        for (value, r) in values.iter_mut().zip(ins) {
            *value = r.constant().expect("checked");
        }
        let mut out = [false; MAX_OUTPUTS];
        function.eval(&values[..ins.len()], &mut out);
        return GatePlan::Replace(out.map(P::Const));
    }
    // Binary commutative helpers: (constant, live other input).
    let one_const2 = || -> Option<(bool, Resolved<N>)> {
        match (c(0), c(1)) {
            (Some(v), None) => Some((v, ins[1])),
            (None, Some(v)) => Some((v, ins[0])),
            _ => None,
        }
    };
    // The first constant input of a three-input gate, if any.
    let first_const3 = || (0..3).find_map(|i| c(i).map(|v| (i, v)));
    match function {
        F::And2 => match one_const2() {
            Some((false, _)) => replace(P::Const(false)),
            Some((true, x)) => replace(P::Wire(x)),
            None => GatePlan::Keep,
        },
        F::Or2 => match one_const2() {
            Some((true, _)) => replace(P::Const(true)),
            Some((false, x)) => replace(P::Wire(x)),
            None => GatePlan::Keep,
        },
        F::Nand2 => match one_const2() {
            Some((false, _)) => replace(P::Const(true)),
            Some((true, x)) => replace(inv(x)),
            None => GatePlan::Keep,
        },
        F::Nor2 => match one_const2() {
            Some((true, _)) => replace(P::Const(false)),
            Some((false, x)) => replace(inv(x)),
            None => GatePlan::Keep,
        },
        F::Xor2 => match one_const2() {
            Some((false, x)) => replace(P::Wire(x)),
            Some((true, x)) => replace(inv(x)),
            None => GatePlan::Keep,
        },
        F::Xnor2 => match one_const2() {
            Some((true, x)) => replace(P::Wire(x)),
            Some((false, x)) => replace(inv(x)),
            None => GatePlan::Keep,
        },
        F::Nand3 => {
            // !(a & b & c)
            if (0..3).any(|i| c(i) == Some(false)) {
                return replace(P::Const(true));
            }
            match first_const3() {
                Some((i, _)) => replace(P::Gate(F::Nand2, others(ins, i))),
                None => GatePlan::Keep,
            }
        }
        F::Nor3 => {
            if (0..3).any(|i| c(i) == Some(true)) {
                return replace(P::Const(false));
            }
            match first_const3() {
                Some((i, _)) => replace(P::Gate(F::Nor2, others(ins, i))),
                None => GatePlan::Keep,
            }
        }
        F::Aoi21 => {
            // !((a & b) | c)
            match (c(0), c(1), c(2)) {
                (_, _, Some(true)) => replace(P::Const(false)),
                (_, _, Some(false)) => replace(P::Gate(F::Nand2, [ins[0], ins[1]])),
                (Some(false), _, None) | (_, Some(false), None) => replace(inv(ins[2])),
                (Some(true), None, None) => replace(P::Gate(F::Nor2, [ins[1], ins[2]])),
                (None, Some(true), None) => replace(P::Gate(F::Nor2, [ins[0], ins[2]])),
                _ => GatePlan::Keep,
            }
        }
        F::Oai21 => {
            // !((a | b) & c)
            match (c(0), c(1), c(2)) {
                (_, _, Some(false)) => replace(P::Const(true)),
                (_, _, Some(true)) => replace(P::Gate(F::Nor2, [ins[0], ins[1]])),
                (Some(true), _, None) | (_, Some(true), None) => replace(inv(ins[2])),
                (Some(false), None, None) => replace(P::Gate(F::Nand2, [ins[1], ins[2]])),
                (None, Some(false), None) => replace(P::Gate(F::Nand2, [ins[0], ins[2]])),
                _ => GatePlan::Keep,
            }
        }
        F::Mux2 => {
            // mux(a, b, s) = s ? b : a
            match c(2) {
                Some(false) => replace(P::Wire(ins[0])),
                Some(true) => replace(P::Wire(ins[1])),
                None => {
                    if ins[0] == ins[1] {
                        replace(P::Wire(ins[0]))
                    } else {
                        GatePlan::Keep
                    }
                }
            }
        }
        F::HalfAdder => {
            // (sum, carry) = (a ^ b, a & b)
            match one_const2() {
                Some((false, x)) => GatePlan::Replace([P::Wire(x), P::Const(false)]),
                Some((true, x)) => GatePlan::Replace([inv(x), P::Wire(x)]),
                None => GatePlan::Keep,
            }
        }
        F::FullAdder => {
            // (sum, carry) of a + b + c; reduce by one constant input.
            let Some((i, v)) = first_const3() else {
                return GatePlan::Keep;
            };
            if (0..3).filter(|&j| c(j).is_some()).count() == 2 {
                // Two constants: fold to functions of the live input.
                let live_in = ins[(0..3).find(|&j| c(j).is_none()).expect("one live input")];
                return match (0..3).filter(|&j| c(j) == Some(true)).count() {
                    0 => GatePlan::Replace([P::Wire(live_in), P::Const(false)]),
                    1 => GatePlan::Replace([inv(live_in), P::Wire(live_in)]),
                    _ => GatePlan::Replace([P::Wire(live_in), P::Const(true)]),
                };
            }
            let live = others(ins, i);
            if v {
                // a + b + 1: sum = XNOR(a, b), carry = OR(a, b).
                GatePlan::Replace([P::Gate(F::Xnor2, live), P::Gate(F::Or2, live)])
            } else {
                // a + b + 0: a half adder.
                GatePlan::Rewrite(F::HalfAdder, live)
            }
        }
        F::Inv | F::Buf | F::Dff => GatePlan::Keep,
    }
}

/// A net of the planned netlist that is not a constant: the `k`-th
/// primary input, or an output pin of a planned gate. Each unresolved net
/// of the input has exactly one, so equal sources mean equal signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Input(u32),
    Pin(u32, u8),
}

type Signal = Resolved<Source>;

/// The planned gate driving `signal`, if a gate drives it.
fn driver(signal: &Signal) -> Option<usize> {
    match signal {
        Resolved::Net(Source::Pin(gate, _)) => Some(*gate as usize),
        _ => None,
    }
}

/// A gate of the planned netlist: its cell, its output count and its
/// input signals in pin order.
#[derive(Debug)]
struct Planned {
    cell: CellId,
    arity: u8,
    outputs: u8,
    signals: [Signal; MAX_INPUTS],
}

impl Planned {
    fn signals(&self) -> &[Signal] {
        &self.signals[..usize::from(self.arity)]
    }
}

/// The driver of a net no generated gate drives: a primary input or a
/// constant.
const NO_GATE: u32 = u32::MAX;

/// The optimizer as a [`GateSink`]: each gate is simplified and planned as
/// it is added, so a generator writing into a planner never builds the
/// unoptimized netlist. [`finish`](Self::finish) then builds the optimized
/// one.
///
/// The result is byte for byte what constant propagation followed by a
/// dead-gate sweep builds from the netlist the same gates make, and so
/// what [`optimize`] returns for it. Constant propagation plans gates over
/// that netlist's Kahn order, which numbers the planned gates differently
/// from the order they arrive in, and the numbering decides the order the
/// result's gates are emitted in. So besides the planned gates the planner
/// records, per generated gate, which planned gates it produced and which
/// generated gates drive its inputs, and `finish` replays that Kahn order.
///
/// # Examples
///
/// ```
/// use aix_arith::{Canonical, Component, ComponentSpec, MultiplierKind};
/// use aix_cells::Library;
/// use aix_netlist::to_verilog;
/// use aix_synth::{optimize, Planner};
/// use std::sync::Arc;
///
/// let library = Arc::new(Library::nangate45_like());
/// let mult = Canonical::Multiplier(MultiplierKind::Wallace, ComponentSpec::new(8, 5)?);
/// let direct = Planner::plan(&mult, &library)?.finish()?;
/// let rebuilt = optimize(&mult.build(&library)?)?;
/// assert_eq!(to_verilog(&direct), to_verilog(&rebuilt));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Planner {
    name: String,
    library: Arc<Library>,
    /// The X1 cell of each replacement function, by `CellFunction` index,
    /// resolved on first use.
    replacements: [Option<CellId>; CellFunction::ALL.len()],
    /// Per net handed out: the signal it carries in the planned netlist,
    /// and the generated gate driving it ([`NO_GATE`] for inputs and
    /// constants).
    nets: Vec<(Signal, u32)>,
    const_nets: [Option<NetId>; 2],
    inputs: Vec<String>,
    outputs: Vec<(String, NetId)>,
    planned: Vec<Planned>,
    /// Per generated gate: where its runs in `fanin` and `planned` end.
    ends: Vec<Ends>,
    /// The generated gate driving each gate-driven input pin, gate by gate
    /// in pin order.
    fanin: Vec<u32>,
}

/// The planner's growing arrays, empty. A finished planner leaves them to
/// the next planner on its thread, so a search scoring thousands of
/// candidates does not regrow them for each one.
#[derive(Debug, Default)]
struct Arrays {
    nets: Vec<(Signal, u32)>,
    planned: Vec<Planned>,
    ends: Vec<Ends>,
    fanin: Vec<u32>,
}

thread_local! {
    static SPARE: RefCell<Arrays> = RefCell::default();
}

/// Where a generated gate's runs in the planner's flat arrays end. Each
/// run starts where the previous gate's ends, so a gate's planned gates
/// are numbered consecutively, after the previous gate's.
#[derive(Debug, Clone, Copy)]
struct Ends {
    fanin: u32,
    planned: u32,
}

impl Planner {
    /// An empty planner for a netlist named `name` over `library`.
    pub fn new(name: impl Into<String>, library: Arc<Library>) -> Self {
        let Arrays {
            nets,
            planned,
            ends,
            fanin,
        } = SPARE.with(RefCell::take);
        Self {
            name: name.into(),
            library,
            replacements: [None; CellFunction::ALL.len()],
            nets,
            const_nets: [None, None],
            inputs: Vec::new(),
            outputs: Vec::new(),
            planned,
            ends,
            fanin,
        }
    }

    /// A planner holding every gate of `component`, as its generator
    /// writes them.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from the generator.
    pub fn plan(component: &impl Component, library: &Arc<Library>) -> Result<Self, NetlistError> {
        let mut planner = Self::new(component.name(), Arc::clone(library));
        component.build_into(&mut planner)?;
        Ok(planner)
    }

    fn push_net(&mut self, signal: Signal, driver: u32) -> NetId {
        let id = NetId::from_raw(u32::try_from(self.nets.len()).expect("netlist exceeds u32 nets"));
        self.nets.push((signal, driver));
        id
    }

    /// Records a planned gate of `cell`, a cell of `function`, over
    /// `signals` and returns its id.
    fn plan_gate(&mut self, cell: CellId, function: CellFunction, signals: &[Signal]) -> u32 {
        let id = u32::try_from(self.planned.len()).expect("netlist exceeds u32 gates");
        let mut gate = Planned {
            cell,
            arity: signals.len() as u8,
            outputs: function.output_count() as u8,
            signals: [Resolved::Const(false); MAX_INPUTS],
        };
        gate.signals[..signals.len()].copy_from_slice(signals);
        self.planned.push(gate);
        id
    }

    /// The X1 cell implementing a replacement `function`.
    fn replacement(&mut self, function: CellFunction) -> CellId {
        *self.replacements[function as usize]
            .get_or_insert_with(|| replacement_cell(&self.library, function))
    }

    /// Builds the optimized netlist: liveness is marked backward from the
    /// outputs, the live planned gates are ordered by Kahn's algorithm, and
    /// the netlist is emitted once in that order.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownNet`] if an output names a net that does not
    /// exist.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let outputs = self
            .outputs
            .iter()
            .map(|&(_, net)| {
                self.nets
                    .get(net.index())
                    .map(|&(signal, _)| signal)
                    .ok_or(NetlistError::UnknownNet(net))
            })
            .collect::<Result<Vec<Signal>, _>>()?;
        let sequence = self.kahn_numbering();
        let order = live_order(&self.planned, &sequence, &outputs);
        self.emit(&outputs, &order)
    }

    /// The planned gates in the numbering that planning over the generated
    /// graph's Kahn order gives them: Kahn's algorithm as
    /// `Netlist::topological_order` runs it (a CSR successor table filled
    /// in gate then pin order, the result as the FIFO queue), each
    /// generated gate replaced by its run of planned gates.
    fn kahn_numbering(&self) -> Vec<u32> {
        let gates = self.ends.len();
        let run = |ends: &[u32], g: usize| {
            (if g == 0 { 0 } else { ends[g - 1] as usize })..ends[g] as usize
        };
        let fanin = |g: usize| {
            let begin = if g == 0 {
                0
            } else {
                self.ends[g - 1].fanin as usize
            };
            &self.fanin[begin..self.ends[g].fanin as usize]
        };
        let mut in_degree: Vec<u32> = (0..gates).map(|g| fanin(g).len() as u32).collect();
        let mut end = vec![0u32; gates];
        for &d in &self.fanin {
            end[d as usize] += 1;
        }
        let mut total = 0u32;
        for slot in &mut end {
            let count = *slot;
            *slot = total;
            total += count;
        }
        let mut successors = vec![0u32; total as usize];
        for g in 0..gates {
            for &d in fanin(g) {
                successors[end[d as usize] as usize] = g as u32;
                end[d as usize] += 1;
            }
        }
        let mut order: Vec<u32> = Vec::with_capacity(gates);
        order.extend((0..gates as u32).filter(|&g| in_degree[g as usize] == 0));
        let mut head = 0;
        while head < order.len() {
            let g = order[head] as usize;
            head += 1;
            for &succ in &successors[run(&end, g)] {
                in_degree[succ as usize] -= 1;
                if in_degree[succ as usize] == 0 {
                    order.push(succ);
                }
            }
        }
        let mut sequence = Vec::with_capacity(self.planned.len());
        for &g in &order {
            let g = g as usize;
            let begin = if g == 0 { 0 } else { self.ends[g - 1].planned };
            sequence.extend(begin..self.ends[g].planned);
        }
        sequence
    }

    /// Builds the optimized netlist: the planner's ports, and the planned
    /// gates of `order` in that order.
    fn emit(self, outputs: &[Signal], order: &[u32]) -> Result<Netlist, NetlistError> {
        let Planner {
            name,
            library,
            mut nets,
            inputs,
            outputs: ports,
            mut planned,
            mut ends,
            mut fanin,
            ..
        } = self;
        let mut net_count = inputs.len();
        let mut constants = [false; 2];
        let mut note = |signal: &Signal| {
            if let Resolved::Const(v) = signal {
                constants[usize::from(*v)] = true;
            }
        };
        for &gate in order {
            let planned = &planned[gate as usize];
            net_count += usize::from(planned.outputs);
            planned.signals().iter().for_each(&mut note);
        }
        outputs.iter().for_each(&mut note);
        net_count += constants.iter().filter(|&&used| used).count();
        let mut out = Netlist::with_capacity(name, library, net_count, order.len());
        let input_nets: Vec<NetId> = inputs.into_iter().map(|name| out.add_input(name)).collect();
        let mut pins_of: Vec<Pins<MAX_OUTPUTS>> = vec![Pins::new(); planned.len()];
        let net_of = |out: &mut Netlist, pins_of: &[Pins<MAX_OUTPUTS>], signal: Signal| match signal
        {
            Resolved::Const(v) => out.constant(v),
            Resolved::Net(Source::Input(k)) => input_nets[k as usize],
            Resolved::Net(Source::Pin(gate, pin)) => pins_of[gate as usize][usize::from(pin)],
        };
        for &gate in order {
            let planned = &planned[gate as usize];
            let mut ins = Pins::<MAX_INPUTS>::new();
            for &signal in planned.signals() {
                ins.push(net_of(&mut out, &pins_of, signal));
            }
            pins_of[gate as usize] = out.add_gate(planned.cell, &ins)?;
        }
        for ((name, _), &signal) in ports.into_iter().zip(outputs) {
            let net = net_of(&mut out, &pins_of, signal);
            out.mark_output(name, net);
        }
        nets.clear();
        planned.clear();
        ends.clear();
        fanin.clear();
        SPARE.with(|spare| {
            spare.replace(Arrays {
                nets,
                planned,
                ends,
                fanin,
            })
        });
        Ok(out)
    }
}

impl GateSink for Planner {
    fn library(&self) -> &Arc<Library> {
        &self.library
    }

    fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let index = u32::try_from(self.inputs.len()).expect("too many inputs");
        self.inputs.push(name.into());
        self.push_net(Resolved::Net(Source::Input(index)), NO_GATE)
    }

    fn constant(&mut self, value: bool) -> NetId {
        let slot = usize::from(value);
        if let Some(id) = self.const_nets[slot] {
            return id;
        }
        let id = self.push_net(Resolved::Const(value), NO_GATE);
        self.const_nets[slot] = Some(id);
        id
    }

    /// Simplifies the gate over its resolved inputs and plans what is left
    /// of it; the returned nets carry the simplified signals.
    fn add_gate(
        &mut self,
        cell: CellId,
        inputs: &[NetId],
    ) -> Result<Pins<MAX_OUTPUTS>, NetlistError> {
        let library_cell = self.library.cell(cell);
        let function = library_cell.function;
        if inputs.len() != function.input_count() {
            return Err(NetlistError::ArityMismatch {
                cell: library_cell.name.clone(),
                expected: function.input_count(),
                provided: inputs.len(),
            });
        }
        let mut ins = [Resolved::Const(false); MAX_INPUTS];
        let fanin = self.fanin.len();
        for (slot, &net) in ins.iter_mut().zip(inputs) {
            let Some(&(signal, driver)) = self.nets.get(net.index()) else {
                self.fanin.truncate(fanin);
                return Err(NetlistError::UnknownNet(net));
            };
            *slot = signal;
            if driver != NO_GATE {
                self.fanin.push(driver);
            }
        }
        let ins = &ins[..inputs.len()];
        let gate = u32::try_from(self.ends.len()).expect("netlist exceeds u32 gates");
        let pin_of = |id: u32, pin: usize| Resolved::Net(Source::Pin(id, pin as u8));
        let mut outputs = Pins::new();
        match simplify(function, ins) {
            GatePlan::Keep => {
                let id = self.plan_gate(cell, function, ins);
                for pin in 0..function.output_count() {
                    outputs.push(self.push_net(pin_of(id, pin), gate));
                }
            }
            GatePlan::Replace(pins) => {
                for action in &pins[..function.output_count()] {
                    let signal = match *action {
                        PinPlan::Const(v) => Resolved::Const(v),
                        PinPlan::Wire(r) => r,
                        PinPlan::Gate(function, operands) => {
                            let cell = self.replacement(function);
                            let operands = &operands[..function.input_count()];
                            pin_of(self.plan_gate(cell, function, operands), 0)
                        }
                    };
                    outputs.push(self.push_net(signal, gate));
                }
            }
            GatePlan::Rewrite(replacement, operands) => {
                let cell = self.replacement(replacement);
                let operands = &operands[..replacement.input_count()];
                let id = self.plan_gate(cell, replacement, operands);
                for pin in 0..function.output_count() {
                    outputs.push(self.push_net(pin_of(id, pin), gate));
                }
            }
        }
        self.ends.push(Ends {
            fanin: self.fanin.len() as u32,
            planned: self.planned.len() as u32,
        });
        Ok(outputs)
    }

    fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }
}

/// Constant propagation and dead-gate sweeping in one pass: returns a
/// functionally equivalent netlist in which constant-driven cones are
/// folded, gates with partially constant inputs are replaced by smaller
/// cells, and every gate not transitively reachable from a primary output
/// is gone.
///
/// Primary input and output ports are preserved, including unused inputs.
///
/// The result is byte for byte the netlist that constant propagation
/// followed by a dead-gate sweep builds as two full rebuilds, without the
/// intermediate netlist: the netlist's gates are fed to a [`Planner`] in
/// gate-id order (in Kahn order when ids are not a topological order, so
/// that the planner's Kahn order over them is the netlist's own), and the
/// planner builds the result.
///
/// # Errors
///
/// Propagates netlist construction errors; a validated input never fails.
pub fn optimize(netlist: &Netlist) -> Result<Netlist, NetlistError> {
    let kahn = if netlist.ids_are_topological() {
        None
    } else {
        Some(netlist.topological_order()?)
    };
    let mut planner = Planner::new(netlist.name(), Arc::clone(netlist.library()));
    // The planner's net for each net of `netlist`; an id past every
    // planner net until the net is fed.
    let mut map = vec![NetId::from_raw(u32::MAX); netlist.net_count()];
    for &input in netlist.inputs() {
        let name = netlist.net(input).name.clone();
        map[input.index()] =
            planner.add_input(name.unwrap_or_else(|| format!("in{}", input.index())));
    }
    for (id, net) in netlist.nets() {
        if let NetDriver::Constant(v) = net.driver {
            map[id.index()] = planner.constant(v);
        }
    }
    let mut feed = |gate_id: GateId| -> Result<(), NetlistError> {
        let gate = netlist.gate(gate_id);
        let mut ins = Pins::<MAX_INPUTS>::new();
        for &net in &gate.inputs {
            ins.push(map[net.index()]);
        }
        let outs = planner.add_gate(gate.cell, &ins)?;
        for (&old, &new) in gate.outputs.iter().zip(&outs) {
            map[old.index()] = new;
        }
        Ok(())
    };
    match kahn {
        None => (0..netlist.gate_count() as u32).try_for_each(|g| feed(GateId::from_raw(g)))?,
        Some(order) => order.into_iter().try_for_each(&mut feed)?,
    }
    for (name, net) in netlist.outputs() {
        planner.mark_output(name.clone(), map[net.index()]);
    }
    planner.finish()
}

/// The planned gates that `outputs` reach, in the order Kahn's algorithm
/// visits them when the planned gates are numbered as in `sequence` (the
/// `k`-th entry is the gate numbered `k`), as `topological_order` runs it
/// over a netlist: a CSR successor table filled in gate then pin order,
/// and the result as the FIFO queue.
fn live_order(planned: &[Planned], sequence: &[u32], outputs: &[Signal]) -> Vec<u32> {
    // Planned gates only read earlier ones, so one backward sweep marks
    // every gate an output reaches. Every driver of a live gate is live,
    // so the same sweep counts in-degrees and successors over live gates
    // alone, which are those of the whole graph.
    let mut live = vec![false; planned.len()];
    for gate in outputs.iter().filter_map(driver) {
        live[gate] = true;
    }
    let mut in_degree = vec![0u32; planned.len()];
    let mut end = vec![0u32; planned.len()];
    for gate in (0..planned.len()).rev() {
        if !live[gate] {
            continue;
        }
        for d in planned[gate].signals().iter().filter_map(driver) {
            live[d] = true;
            end[d] += 1;
            in_degree[gate] += 1;
        }
    }
    let mut total = 0u32;
    for slot in &mut end {
        let count = *slot;
        *slot = total;
        total += count;
    }
    let live_gates = || sequence.iter().copied().filter(|&g| live[g as usize]);
    let mut successors = vec![0u32; total as usize];
    for gate in live_gates() {
        for d in planned[gate as usize].signals().iter().filter_map(driver) {
            successors[end[d] as usize] = gate;
            end[d] += 1;
        }
    }
    let begin = |g: usize| if g == 0 { 0 } else { end[g - 1] as usize };
    let mut order: Vec<u32> = live_gates()
        .filter(|&g| in_degree[g as usize] == 0)
        .collect();
    let mut head = 0;
    while head < order.len() {
        let g = order[head] as usize;
        head += 1;
        for &succ in &successors[begin(g)..end[g] as usize] {
            in_degree[succ as usize] -= 1;
            if in_degree[succ as usize] == 0 {
                order.push(succ);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_arith::{
        build_adder, build_mac, build_multiplier, AdderKind, ComponentSpec, MultiplierKind,
    };
    use aix_cells::Library;
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sim::oracle;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    /// Optimized and original netlists must agree on random vectors.
    fn assert_equivalent(original: &Netlist, optimized: &Netlist, samples: usize, seed: u64) {
        assert_eq!(original.inputs().len(), optimized.inputs().len());
        assert_eq!(original.outputs().len(), optimized.outputs().len());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..samples {
            let vector: Vec<bool> = (0..original.inputs().len())
                .map(|_| rng.gen::<bool>())
                .collect();
            assert_eq!(
                oracle::eval(original, &vector).unwrap(),
                oracle::eval(optimized, &vector).unwrap(),
                "mismatch on {vector:?}"
            );
        }
    }

    /// Both sinks reject a wrong input count and an input net that does
    /// not exist with the same error.
    #[test]
    fn planner_add_gate_errors_match_the_netlist() {
        fn errors(sink: &mut impl GateSink) -> [NetlistError; 2] {
            let nand = sink
                .library()
                .find(CellFunction::Nand2, DriveStrength::X1)
                .unwrap();
            let a = sink.add_input("a");
            let arity = sink.add_gate(nand, &[a]).unwrap_err();
            let unknown = sink.add_gate(nand, &[a, NetId::from_raw(7)]).unwrap_err();
            [arity, unknown]
        }
        let lib = lib();
        let from_netlist = errors(&mut Netlist::new("n", lib.clone()));
        let from_planner = errors(&mut Planner::new("p", lib));
        assert!(matches!(
            from_netlist[0],
            NetlistError::ArityMismatch {
                expected: 2,
                provided: 1,
                ..
            }
        ));
        assert_eq!(
            from_netlist[1],
            NetlistError::UnknownNet(NetId::from_raw(7))
        );
        assert_eq!(from_planner, from_netlist);
    }

    #[test]
    fn full_precision_component_loses_little() {
        let lib = lib();
        let nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let opt = optimize(&nl).unwrap();
        opt.validate().unwrap();
        // Only the constant-cin block boundaries simplify. A cin=1 full
        // adder legitimately becomes two small cells, so gate count may
        // tick up slightly — area must not grow.
        assert!(opt.gate_count() <= nl.gate_count() + 4);
        assert!(opt.gate_count() > nl.gate_count() / 2);
        assert!(opt.stats().area_um2 <= nl.stats().area_um2);
        assert_equivalent(&nl, &opt, 200, 1);
    }

    #[test]
    fn truncated_adder_sheds_gates_proportionally() {
        let lib = lib();
        let full =
            optimize(&build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(32)).unwrap())
                .unwrap();
        let cut = optimize(
            &build_adder(
                &lib,
                AdderKind::RippleCarry,
                ComponentSpec::new(32, 16).unwrap(),
            )
            .unwrap(),
        )
        .unwrap();
        // Half the bits truncated: roughly half the full adders disappear.
        assert!(
            (cut.gate_count() as f64) < 0.7 * full.gate_count() as f64,
            "cut {} vs full {}",
            cut.gate_count(),
            full.gate_count()
        );
        cut.validate().unwrap();
    }

    #[test]
    fn truncated_multiplier_matches_reference_after_optimization() {
        let lib = lib();
        let spec = ComponentSpec::new(12, 8).unwrap();
        for kind in MultiplierKind::ALL {
            let nl = optimize(&build_multiplier(&lib, kind, spec).unwrap()).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..100 {
                let a = u64::from(rng.gen::<u16>() & 0xFFF);
                let b = u64::from(rng.gen::<u16>() & 0xFFF);
                let mut inputs = bus_from_u64(a, 12);
                inputs.extend(bus_from_u64(b, 12));
                let out = bus_to_u64(&oracle::eval(&nl, &inputs).unwrap());
                assert_eq!(out, spec.truncate(a) * spec.truncate(b), "{kind:?}");
            }
        }
    }

    #[test]
    fn mac_equivalence_after_optimization() {
        let lib = lib();
        let nl = build_mac(&lib, ComponentSpec::new(8, 6).unwrap()).unwrap();
        let opt = optimize(&nl).unwrap();
        assert!(opt.gate_count() < nl.gate_count());
        assert_equivalent(&nl, &opt, 300, 7);
    }

    #[test]
    fn all_adder_architectures_survive_optimization() {
        let lib = lib();
        let spec = ComponentSpec::new(16, 9).unwrap();
        for kind in AdderKind::ALL {
            let nl = build_adder(&lib, kind, spec).unwrap();
            let opt = optimize(&nl).unwrap();
            opt.validate().unwrap();
            assert_equivalent(&nl, &opt, 150, 11);
            assert!(opt.gate_count() < nl.gate_count(), "{kind:?}");
        }
    }

    #[test]
    fn fully_constant_circuit_folds_to_nothing() {
        let lib = lib();
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("const", lib.clone());
        let _unused = nl.add_input("a");
        let zero = nl.constant(false);
        let one = nl.constant(true);
        let y = nl.add_gate(and, &[zero, one]).unwrap()[0];
        nl.mark_output("y", y);
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.gate_count(), 0);
        assert_eq!(oracle::eval(&opt, &[true]).unwrap(), vec![false]);
        // Unused input port is preserved.
        assert_eq!(opt.inputs().len(), 1);
    }

    #[test]
    fn dead_gate_sweep_removes_unobserved_logic() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("dead", lib.clone());
        let a = nl.add_input("a");
        let live = nl.add_gate(inv, &[a]).unwrap()[0];
        let _dead = nl.add_gate(inv, &[a]).unwrap();
        nl.mark_output("y", live);
        let swept = optimize(&nl).unwrap();
        assert_eq!(swept.gate_count(), 1);
        assert_eq!(oracle::eval(&swept, &[true]).unwrap(), vec![false]);
    }

    #[test]
    fn mux_with_constant_select_folds() {
        let lib = lib();
        let mux = lib.find(CellFunction::Mux2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("mux", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.constant(true);
        let y = nl.add_gate(mux, &[a, b, one]).unwrap()[0];
        nl.mark_output("y", y);
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.gate_count(), 0, "mux folds to a wire to b");
        assert_eq!(oracle::eval(&opt, &[false, true]).unwrap(), vec![true]);
        assert_eq!(oracle::eval(&opt, &[true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn xor_with_constant_one_becomes_inverter() {
        let lib = lib();
        let xor = lib.find(CellFunction::Xor2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("xi", lib.clone());
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let y = nl.add_gate(xor, &[a, one]).unwrap()[0];
        nl.mark_output("y", y);
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.gate_count(), 1);
        let (_, g) = opt.gates().next().unwrap();
        assert_eq!(opt.library().cell(g.cell).function, CellFunction::Inv);
        assert_eq!(oracle::eval(&opt, &[true]).unwrap(), vec![false]);
    }

    use aix_cells::{CellFunction, DriveStrength};
    use aix_netlist::Netlist;

    #[test]
    fn exhaustive_simplification_equivalence_per_function() {
        // For every cell function and every constant/live input pattern,
        // the simplified netlist must match the original truth table.
        let lib = lib();
        for function in CellFunction::ALL {
            if function.is_sequential() {
                continue;
            }
            let n = function.input_count();
            // Pattern: each input is live (0), const-false (1) or const-true (2).
            for pattern in 0..3usize.pow(n as u32) {
                let mut nl = Netlist::new("t", lib.clone());
                let cell = lib.find(function, DriveStrength::X1).unwrap();
                let mut live_inputs = Vec::new();
                let mut ins = Vec::new();
                let mut digits = pattern;
                for i in 0..n {
                    match digits % 3 {
                        0 => {
                            let inp = nl.add_input(format!("i{i}"));
                            live_inputs.push(inp);
                            ins.push(inp);
                        }
                        1 => ins.push(nl.constant(false)),
                        _ => ins.push(nl.constant(true)),
                    }
                    digits /= 3;
                }
                if live_inputs.is_empty() {
                    // Ensure at least one primary input exists for eval.
                    let _ = nl.add_input("pad");
                }
                let outs = nl.add_gate(cell, &ins).unwrap();
                for (pin, &o) in outs.iter().enumerate() {
                    nl.mark_output(format!("o{pin}"), o);
                }
                let opt = optimize(&nl).unwrap();
                let width = nl.inputs().len();
                for bits in 0..1usize << width {
                    let vector: Vec<bool> = (0..width).map(|i| bits >> i & 1 == 1).collect();
                    assert_eq!(
                        oracle::eval(&nl, &vector).unwrap(),
                        oracle::eval(&opt, &vector).unwrap(),
                        "{function} pattern {pattern} vector {bits:b}"
                    );
                }
            }
        }
    }
}
