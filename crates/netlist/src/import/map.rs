//! Maps a parsed [`Design`] onto a validated [`Netlist`].
//!
//! Net ids are allocated in a deterministic order — input port bits in
//! header order, then instance output pins in file order, then constant
//! nets — with every source name preserved on its net. Because the
//! exporters iterate wires in net-id order and instances in gate order,
//! this exact order is what makes export ∘ import the identity on
//! exporter output.
//!
//! Mapping runs in passes: declarations, cell resolution, instance
//! outputs, assign aliasing (iterative, since an assign may forward-
//! reference a net another assign binds), gate inputs, and finally
//! primary outputs, followed by the structural validator (which adds
//! driver-consistency and acyclicity). Each defect maps onto a dedicated
//! [`ImportError`] variant with the source position of the offending
//! construct.

use super::{CellAliases, Design, ImportError, Loc, NetRef};
use crate::{Gate, Net, NetDriver, NetId, Netlist, NetlistError, Pins, PortDirection};
use aix_cells::{CellId, Library};
use std::collections::HashMap;
use std::sync::Arc;

/// One declared name: a port or a wire, scalar or bus.
struct Decl {
    width: Option<usize>,
    dir: Option<PortDirection>,
}

/// What an instance turned out to be once its cell name resolved.
enum Resolved {
    /// A library gate.
    Gate(CellId),
    /// A constant driver (`TIE0`/`TIE1`-style cell).
    Constant(bool),
}

/// Binding state of one flattened bit key.
#[derive(Default)]
struct Bit {
    net: Option<NetId>,
}

struct Mapper {
    decls: HashMap<String, Decl>,
    bits: HashMap<String, Bit>,
    nets: Vec<Net>,
    const_nets: [Option<NetId>; 2],
}

impl Mapper {
    fn alloc(&mut self, name: Option<String>, driver: NetDriver) -> NetId {
        let id = NetId::from_raw(u32::try_from(self.nets.len()).expect("too many nets"));
        self.nets.push(Net { name, driver });
        id
    }

    fn constant(&mut self, value: bool) -> NetId {
        let slot = usize::from(value);
        if let Some(id) = self.const_nets[slot] {
            return id;
        }
        let name = if value { "tie1" } else { "tie0" };
        let id = self.alloc(Some(name.to_owned()), NetDriver::Constant(value));
        self.const_nets[slot] = Some(id);
        id
    }

    /// Resolves a net reference to its flattened bit key, validating
    /// widths. Constants have no key.
    fn key_of(&self, net_ref: &NetRef, loc: Loc) -> Result<Option<String>, ImportError> {
        match net_ref {
            NetRef::Const(_) => Ok(None),
            NetRef::Name(name) => {
                let decl = self
                    .decls
                    .get(name)
                    .ok_or_else(|| ImportError::UndeclaredNet {
                        loc,
                        name: name.clone(),
                    })?;
                match decl.width {
                    None => Ok(Some(name.clone())),
                    Some(1) => Ok(Some(format!("{name}[0]"))),
                    Some(width) => Err(ImportError::WidthMismatch {
                        loc,
                        name: name.clone(),
                        width,
                    }),
                }
            }
            NetRef::Bit(name, index) => {
                let decl = self
                    .decls
                    .get(name)
                    .ok_or_else(|| ImportError::UndeclaredNet {
                        loc,
                        name: name.clone(),
                    })?;
                let width = decl.width.ok_or(ImportError::BitOutOfRange {
                    loc,
                    name: name.clone(),
                    width: 1,
                    index: *index,
                })?;
                if *index as usize >= width {
                    return Err(ImportError::BitOutOfRange {
                        loc,
                        name: name.clone(),
                        width,
                        index: *index,
                    });
                }
                Ok(Some(format!("{name}[{index}]")))
            }
        }
    }

    /// Binds `key` to `net`, failing if something already drives it.
    fn bind(&mut self, key: &str, net: NetId, loc: Loc) -> Result<(), ImportError> {
        let bit = self
            .bits
            .get_mut(key)
            .expect("key comes from a declaration");
        if bit.net.is_some() {
            return Err(ImportError::MultipleDrivers {
                loc,
                name: key.to_owned(),
            });
        }
        bit.net = Some(net);
        Ok(())
    }
}

/// Expands a declaration to its bit keys.
fn bit_keys(name: &str, width: Option<usize>) -> Vec<String> {
    match width {
        None => vec![name.to_owned()],
        Some(w) => (0..w).map(|i| format!("{name}[{i}]")).collect(),
    }
}

/// Normalized instance connections: one optional `(target, loc)` per pin,
/// inputs first, in pin order.
fn pin_slots(
    instance: &super::Instance,
    cell_name: &str,
    input_count: usize,
    output_count: usize,
) -> Result<Vec<Option<(NetRef, Loc)>>, ImportError> {
    use crate::verilog::{INPUT_PINS, OUTPUT_PINS};
    let expected = input_count + output_count;
    let mut slots: Vec<Option<(NetRef, Loc)>> = vec![None; expected];
    let named = instance.conns.iter().any(|c| c.pin.is_some());
    if named {
        let mut seen: Vec<&str> = Vec::new();
        for conn in &instance.conns {
            let pin = conn.pin.as_deref().expect("styles cannot mix (parser)");
            if seen.contains(&pin) {
                return Err(ImportError::DuplicateName {
                    loc: conn.loc,
                    name: pin.to_owned(),
                });
            }
            seen.push(pin);
            let slot = INPUT_PINS[..input_count]
                .iter()
                .position(|p| *p == pin)
                .or_else(|| {
                    OUTPUT_PINS[..output_count]
                        .iter()
                        .position(|p| *p == pin)
                        .map(|i| input_count + i)
                })
                .ok_or_else(|| ImportError::UnknownPin {
                    loc: conn.loc,
                    instance: instance.name.clone(),
                    cell: cell_name.to_owned(),
                    pin: pin.to_owned(),
                })?;
            if let Some(target) = &conn.target {
                slots[slot] = Some((target.clone(), conn.loc));
            }
        }
    } else {
        if instance.conns.len() != expected {
            return Err(ImportError::PinCount {
                loc: instance.loc,
                instance: instance.name.clone(),
                cell: cell_name.to_owned(),
                expected,
                provided: instance.conns.len(),
            });
        }
        for (slot, conn) in instance.conns.iter().enumerate() {
            if let Some(target) = &conn.target {
                slots[slot] = Some((target.clone(), conn.loc));
            }
        }
    }
    // Every input pin must be connected.
    if slots[..input_count].iter().any(Option::is_none) {
        return Err(ImportError::PinCount {
            loc: instance.loc,
            instance: instance.name.clone(),
            cell: cell_name.to_owned(),
            expected,
            provided: instance.conns.iter().filter(|c| c.target.is_some()).count(),
        });
    }
    Ok(slots)
}

/// Builds and validates a [`Netlist`] from a parsed [`Design`].
pub(super) fn build(
    design: &Design,
    library: &Arc<Library>,
    aliases: &CellAliases,
) -> Result<Netlist, ImportError> {
    let _span = aix_obs::span!(
        aix_obs::names::import::SPAN_MAP,
        design = design.name.as_str(),
        instances = design.instances.len(),
    );
    let mut m = Mapper {
        decls: HashMap::new(),
        bits: HashMap::new(),
        nets: Vec::new(),
        const_nets: [None, None],
    };

    // Declarations: ports then wires, duplicates rejected.
    for port in &design.ports {
        if m.decls
            .insert(
                port.name.clone(),
                Decl {
                    width: port.width,
                    dir: Some(port.dir),
                },
            )
            .is_some()
        {
            return Err(ImportError::DuplicateName {
                loc: port.loc,
                name: port.name.clone(),
            });
        }
        for key in bit_keys(&port.name, port.width) {
            m.bits.insert(key, Bit::default());
        }
    }
    for wire in &design.wires {
        if m.decls
            .insert(
                wire.name.clone(),
                Decl {
                    width: wire.width,
                    dir: None,
                },
            )
            .is_some()
        {
            return Err(ImportError::DuplicateName {
                loc: wire.loc,
                name: wire.name.clone(),
            });
        }
        for key in bit_keys(&wire.name, wire.width) {
            m.bits.insert(key, Bit::default());
        }
    }

    // Pass A: input port bits, in declaration order.
    let mut inputs: Vec<NetId> = Vec::new();
    for port in &design.ports {
        if port.dir != PortDirection::Input {
            continue;
        }
        for key in bit_keys(&port.name, port.width) {
            let index = u32::try_from(inputs.len()).expect("too many inputs");
            let id = m.alloc(Some(key.clone()), NetDriver::PrimaryInput(index));
            inputs.push(id);
            m.bind(&key, id, port.loc)?;
        }
    }

    // Resolve every instance's cell up front.
    let mut resolved: Vec<Resolved> = Vec::with_capacity(design.instances.len());
    for instance in &design.instances {
        if let Some(value) = CellAliases::constant_cell(&instance.cell) {
            resolved.push(Resolved::Constant(value));
            continue;
        }
        let (cell_id, via_alias) =
            aliases
                .resolve(&instance.cell)
                .ok_or_else(|| ImportError::UnknownCell {
                    loc: instance.loc,
                    instance: instance.name.clone(),
                    cell: instance.cell.clone(),
                })?;
        if via_alias {
            aix_obs::count!(
                aix_obs::names::import::ALIAS_HIT,
                cell = instance.cell.as_str()
            );
        }
        let cell = library.cell(cell_id);
        if cell.function.is_sequential() {
            return Err(ImportError::Unsupported {
                loc: instance.loc,
                construct: format!("sequential cell {}", cell.name),
            });
        }
        resolved.push(Resolved::Gate(cell_id));
    }

    // Pass B: instance output nets, in file order; constant instances
    // bind their target keys to constant nets (allocated lazily, which
    // puts them after all gate outputs for exporter-shaped files).
    let mut gates: Vec<Gate> = Vec::new();
    // Gate index → instance name, for cycle diagnostics.
    let mut gate_names: Vec<&str> = Vec::new();
    // Per regular instance: the normalized pin slots.
    let mut slots_by_gate: Vec<Vec<Option<(NetRef, Loc)>>> = Vec::new();
    for (instance, what) in design.instances.iter().zip(&resolved) {
        match what {
            Resolved::Constant(value) => {
                // A tie cell has the single output pin `y`.
                let slots = pin_slots(instance, &instance.cell, 0, 1)?;
                let Some((target, loc)) = slots.into_iter().next().flatten() else {
                    continue; // dangling tie instance drives nothing
                };
                let key = m
                    .key_of(&target, loc)?
                    .ok_or(ImportError::MultipleDrivers {
                        loc,
                        name: if matches!(target, NetRef::Const(true)) {
                            "1'b1".to_owned()
                        } else {
                            "1'b0".to_owned()
                        },
                    })?;
                let net = m.constant(*value);
                m.bind(&key, net, loc)?;
            }
            Resolved::Gate(cell_id) => {
                let cell = library.cell(*cell_id);
                let (ic, oc) = (cell.function.input_count(), cell.function.output_count());
                let slots = pin_slots(instance, &cell.name, ic, oc)?;
                let gate_index = gates.len();
                let mut outputs = Pins::new();
                for pin in 0..oc {
                    let slot = &slots[ic + pin];
                    let name = match slot {
                        Some((target, loc)) => Some((
                            m.key_of(target, *loc)?
                                .ok_or(ImportError::MultipleDrivers {
                                    loc: *loc,
                                    name: "literal".to_owned(),
                                })?,
                            *loc,
                        )),
                        None => None,
                    };
                    let id = m.alloc(
                        name.as_ref().map(|(key, _)| key.clone()),
                        NetDriver::Gate {
                            gate: crate::GateId::from_raw(
                                u32::try_from(gate_index).expect("too many gates"),
                            ),
                            pin: u8::try_from(pin).expect("pin fits u8"),
                        },
                    );
                    if let Some((key, loc)) = name {
                        m.bind(&key, id, loc)?;
                    }
                    outputs.push(id);
                }
                gates.push(Gate {
                    cell: *cell_id,
                    inputs: Pins::new(), // filled in pass C
                    outputs,
                });
                gate_names.push(&instance.name);
                slots_by_gate.push(slots);
            }
        }
    }

    // Pass B2: assigns, iterated to a fixpoint so chains and forward
    // references resolve regardless of file order.
    let mut pending: Vec<&super::Assign> = design.assigns.iter().collect();
    loop {
        let mut progressed = false;
        let mut still: Vec<&super::Assign> = Vec::new();
        for assign in pending {
            let target_key =
                m.key_of(&assign.target, assign.loc)?
                    .ok_or(ImportError::MultipleDrivers {
                        loc: assign.loc,
                        name: "literal".to_owned(),
                    })?;
            // Assigning to an input port is a second driver on it.
            if let NetRef::Name(name) | NetRef::Bit(name, _) = &assign.target {
                if m.decls.get(name).and_then(|d| d.dir) == Some(PortDirection::Input) {
                    return Err(ImportError::MultipleDrivers {
                        loc: assign.loc,
                        name: target_key,
                    });
                }
            }
            let source_net = match &assign.source {
                NetRef::Const(value) => Some(m.constant(*value)),
                other => {
                    let key = m.key_of(other, assign.loc)?.expect("non-const has a key");
                    m.bits[&key].net
                }
            };
            match source_net {
                Some(net) => {
                    m.bind(&target_key, net, assign.loc)?;
                    // Aliased keys share one net; keep the first name.
                    progressed = true;
                }
                None => still.push(assign),
            }
        }
        if still.is_empty() {
            break;
        }
        if !progressed {
            // Every remaining assign reads an undriven source.
            let assign = still[0];
            let name = match &assign.source {
                NetRef::Name(n) => n.clone(),
                NetRef::Bit(n, i) => format!("{n}[{i}]"),
                NetRef::Const(_) => unreachable!("constants always resolve"),
            };
            return Err(ImportError::UndrivenNet { name });
        }
        pending = still;
    }

    // Pass C: gate inputs.
    for (gate_index, slots) in slots_by_gate.iter().enumerate() {
        let input_count = library.cell(gates[gate_index].cell).function.input_count();
        let mut input_nets = Pins::new();
        for slot in &slots[..input_count] {
            let (target, loc) = slot.as_ref().expect("checked in pin_slots");
            let net = match target {
                NetRef::Const(value) => m.constant(*value),
                other => {
                    let key = m.key_of(other, *loc)?.expect("non-const has a key");
                    m.bits[&key]
                        .net
                        .ok_or(ImportError::UndrivenNet { name: key.clone() })?
                }
            };
            input_nets.push(net);
        }
        gates[gate_index].inputs = input_nets;
    }

    // Pass D: primary outputs, in declaration order.
    let mut outputs: Vec<(String, NetId)> = Vec::new();
    for port in &design.ports {
        if port.dir != PortDirection::Output {
            continue;
        }
        for key in bit_keys(&port.name, port.width) {
            let net = m.bits[&key]
                .net
                .ok_or(ImportError::UndrivenNet { name: key.clone() })?;
            outputs.push((key, net));
        }
    }

    let gate_count = gates.len();
    let net_count = m.nets.len();
    let netlist = Netlist::from_parts(
        design.name.clone(),
        Arc::clone(library),
        m.nets,
        gates,
        inputs,
        outputs,
        m.const_nets,
    );
    {
        let _validate = aix_obs::span!(
            aix_obs::names::import::SPAN_VALIDATE,
            design = design.name.as_str(),
        );
        netlist.validate().map_err(|err| match err {
            NetlistError::CombinationalCycle(gate) => ImportError::CombinationalLoop {
                instance: gate_names
                    .get(gate.index())
                    .map_or_else(|| gate.to_string(), |n| (*n).to_owned()),
            },
            NetlistError::NoOutputs => ImportError::Structure {
                message: "module has no outputs".to_owned(),
            },
            other => ImportError::Structure {
                message: other.to_string(),
            },
        })?;
    }
    aix_obs::gauge!(
        aix_obs::names::import::GATES,
        gate_count as f64,
        design = design.name.as_str()
    );
    aix_obs::gauge!(
        aix_obs::names::import::NETS,
        net_count as f64,
        design = design.name.as_str()
    );
    Ok(netlist)
}
