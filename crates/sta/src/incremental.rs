//! Exact incremental timing for cell-swap loops (sizing, area recovery).

use crate::analysis::{latest_output, retime_gate, walk_critical_path};
use crate::delays::Derating;
use crate::{NetDelays, SlackReport};
use aix_cells::CellId;
use aix_netlist::{GateId, NetDriver, NetId, Netlist, NetlistError, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A timer that keeps per-net loads, arc delays and arrival times in step
/// with a netlist while gates change cells.
///
/// The timer owns the netlist borrow, so every cell swap goes through
/// [`set_cell`](Self::set_cell) or [`set_cells`](Self::set_cells). A swap
/// re-sums the loads of the gate's input nets, re-times the gate's own
/// output arcs and the arcs of the gates driving its inputs, then
/// re-propagates arrivals through the forward cone in topological order,
/// stopping wherever an arrival comes out unchanged. The result is
/// bit-identical to [`analyze`](crate::analyze) over a fresh annotation
/// of the changed netlist (DESIGN.md, "Incremental timing", argues why).
///
/// Only annotations from [`NetDelays::fresh`], [`NetDelays::aged`] and
/// [`NetDelays::aged_with_stress`] can be re-timed: they carry each gate's
/// derating factor, which does not depend on the cell.
///
/// # Examples
///
/// ```
/// use aix_arith::{build_adder, AdderKind, ComponentSpec};
/// use aix_cells::Library;
/// use aix_netlist::GateId;
/// use aix_sta::{analyze, IncrementalTimer, NetDelays};
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let mut adder = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8))?;
/// let delays = NetDelays::fresh(&adder);
/// let mut timer = IncrementalTimer::new(&mut adder, delays)?;
/// let gate = GateId::from_raw(0);
/// let stronger = lib.upsize(timer.netlist().gate(gate).cell).unwrap();
/// timer.set_cell(gate, stronger);
/// let incremental = timer.max_delay_ps();
/// let full = analyze(&adder, &NetDelays::fresh(&adder))?.max_delay_ps();
/// assert_eq!(incremental.to_bits(), full.to_bits());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IncrementalTimer<'a> {
    netlist: &'a mut Netlist,
    derating: Derating,
    schedule: Arc<Schedule>,
    /// Position of each gate in the schedule's topological order.
    position: Vec<u32>,
    /// Readers of net `n` (one entry per input pin, in gate-id then pin
    /// order — the order `net_loads_ff` adds their capacitances in) are
    /// `readers[reader_start[n]..reader_start[n + 1]]`.
    reader_start: Vec<u32>,
    readers: Vec<u32>,
    /// How many primary-output ports each net drives.
    ports: Vec<u32>,
    loads: Vec<f64>,
    delays: Vec<f64>,
    arrivals: Vec<f64>,
    /// Schedule positions waiting to be re-timed, smallest first.
    pending: BinaryHeap<Reverse<u32>>,
    queued: Vec<bool>,
    gates_retimed: u64,
}

impl<'a> IncrementalTimer<'a> {
    /// Times `netlist` under `delays`, which must have been built for it.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NotRetimeable`] when `delays` carries no per-gate
    /// derating factor (`from_raw`, `scaled_by_gate`, `aged_from_tables`)
    /// or does not match the netlist's size, and
    /// [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &'a mut Netlist, delays: NetDelays) -> Result<Self, NetlistError> {
        match delays.derating() {
            Derating::Opaque => {
                return Err(NetlistError::NotRetimeable(
                    "the annotation carries no per-gate derating factor",
                ))
            }
            Derating::PerGate(factors) if factors.len() != netlist.gate_count() => {
                return Err(NetlistError::NotRetimeable(
                    "the annotation was built for a different netlist",
                ))
            }
            _ => {}
        }
        if delays.as_slice().len() != netlist.net_count() {
            return Err(NetlistError::NotRetimeable(
                "the annotation was built for a different netlist",
            ));
        }
        let schedule = netlist.schedule()?;
        let mut position = vec![0u32; netlist.gate_count()];
        for (pos, &gate) in schedule.order().iter().enumerate() {
            position[gate as usize] = pos as u32;
        }
        let nets = netlist.net_count();
        let mut reader_start = vec![0u32; nets + 1];
        for (_, gate) in netlist.gates() {
            for net in &gate.inputs {
                reader_start[net.index() + 1] += 1;
            }
        }
        for n in 0..nets {
            reader_start[n + 1] += reader_start[n];
        }
        let mut fill = reader_start.clone();
        let mut readers = vec![0u32; reader_start[nets] as usize];
        for (id, gate) in netlist.gates() {
            for net in &gate.inputs {
                readers[fill[net.index()] as usize] = id.raw();
                fill[net.index()] += 1;
            }
        }
        let mut ports = vec![0u32; nets];
        for (_, net) in netlist.outputs() {
            ports[net.index()] += 1;
        }
        let loads = netlist.net_loads_ff();
        let derating = delays.derating().clone();
        let delays = delays.into_vec();
        let mut arrivals = vec![0.0f64; nets];
        for gate in schedule.gate_order() {
            retime_gate(netlist, gate, &delays, &mut arrivals);
        }
        let gate_count = netlist.gate_count();
        Ok(Self {
            netlist,
            derating,
            schedule,
            position,
            reader_start,
            readers,
            ports,
            loads,
            delays,
            arrivals,
            pending: BinaryHeap::new(),
            queued: vec![false; gate_count],
            gates_retimed: 0,
        })
    }

    /// The netlist being timed.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Per-net loads in fF, equal to [`Netlist::net_loads_ff`].
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Per-net arc delays in ps, equal to a fresh annotation's.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Per-net arrival times in ps, equal to [`analyze`](crate::analyze)'s.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// The critical-path delay over all primary outputs, in ps.
    pub fn max_delay_ps(&self) -> f64 {
        latest_output(self.netlist, &self.arrivals).1
    }

    /// The gates along the critical path, inputs first, as
    /// [`critical_path`](crate::critical_path) walks them.
    pub fn critical_path(&self) -> Vec<GateId> {
        let (critical_output, _) = latest_output(self.netlist, &self.arrivals);
        walk_critical_path(self.netlist, &self.arrivals, critical_output)
    }

    /// Required times and slacks against `clock_ps`, as
    /// [`SlackReport::compute`] derives them.
    pub fn slack_report(&self, clock_ps: f64) -> SlackReport {
        SlackReport::from_parts(
            self.netlist,
            &self.schedule,
            &self.delays,
            &self.arrivals,
            clock_ps,
        )
    }

    /// How many gates had their arrivals recomputed by swaps so far.
    pub fn gates_retimed(&self) -> u64 {
        self.gates_retimed
    }

    /// Swaps the cell of one gate and re-times what it affects.
    ///
    /// # Panics
    ///
    /// Panics if `cell` has different pin counts from the gate's cell.
    pub fn set_cell(&mut self, gate: GateId, cell: CellId) {
        self.set_cells([(gate, cell)]);
    }

    /// Swaps the cells of several gates, then re-times everything they
    /// affect in one forward sweep.
    ///
    /// # Panics
    ///
    /// Panics if a new cell has different pin counts from the old one.
    pub fn set_cells(&mut self, swaps: impl IntoIterator<Item = (GateId, CellId)>) {
        let swapped: Vec<GateId> = swaps
            .into_iter()
            .map(|(gate, cell)| {
                self.netlist.set_cell(gate, cell);
                gate
            })
            .collect();
        // Loads first, all of them: an arc's delay reads its net's final
        // load, and two swapped gates may read the same net.
        for &gate in &swapped {
            for i in 0..self.netlist.gate(gate).inputs.len() {
                let net = self.netlist.gate(gate).inputs[i];
                self.loads[net.index()] = self.sum_load(net);
            }
        }
        for &gate in &swapped {
            for i in 0..self.netlist.gate(gate).outputs.len() {
                let net = self.netlist.gate(gate).outputs[i];
                self.retime_arc(net);
            }
            for i in 0..self.netlist.gate(gate).inputs.len() {
                let net = self.netlist.gate(gate).inputs[i];
                self.retime_arc(net);
            }
        }
        self.propagate();
    }

    /// The load on `net`, added up in the order `net_loads_ff` uses.
    fn sum_load(&self, net: NetId) -> f64 {
        let library = self.netlist.library();
        let range =
            self.reader_start[net.index()] as usize..self.reader_start[net.index() + 1] as usize;
        let mut load = 0.0;
        for &reader in &self.readers[range] {
            load += library
                .cell(self.netlist.gate(GateId::from_raw(reader)).cell)
                .input_cap_ff;
        }
        for _ in 0..self.ports[net.index()] {
            load += Netlist::OUTPUT_PORT_LOAD_FF;
        }
        load
    }

    /// Recomputes the delay of the arc driving `net` and queues its gate.
    fn retime_arc(&mut self, net: NetId) {
        let NetDriver::Gate { gate, .. } = self.netlist.net(net).driver else {
            return;
        };
        let factor = self
            .derating
            .of(gate.index())
            .expect("checked when the timer was built");
        let cell = self.netlist.library().cell(self.netlist.gate(gate).cell);
        self.delays[net.index()] = cell.aged_delay_ps(self.loads[net.index()], factor);
        self.enqueue(gate.index());
    }

    fn enqueue(&mut self, gate: usize) {
        if !self.queued[gate] {
            self.queued[gate] = true;
            self.pending.push(Reverse(self.position[gate]));
        }
    }

    /// Re-times queued gates in topological position order. A gate whose
    /// output arrivals come out bit-identical stops the wave there.
    fn propagate(&mut self) {
        while let Some(Reverse(pos)) = self.pending.pop() {
            let gate = GateId::from_raw(self.schedule.order()[pos as usize]);
            self.queued[gate.index()] = false;
            self.gates_retimed += 1;
            if !retime_gate(self.netlist, gate, &self.delays, &mut self.arrivals) {
                continue;
            }
            for i in 0..self.netlist.gate(gate).outputs.len() {
                let net = self.netlist.gate(gate).outputs[i].index();
                for r in self.reader_start[net]..self.reader_start[net + 1] {
                    self.enqueue(self.readers[r as usize] as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;

    #[test]
    fn opaque_annotations_are_rejected() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(4)).unwrap();
        let fresh = NetDelays::fresh(&nl);
        let raw = NetDelays::from_raw(fresh.as_slice().to_vec());
        let scaled = fresh.scaled_by_gate(&nl, |_| 1.0);
        for delays in [raw, scaled] {
            assert!(matches!(
                IncrementalTimer::new(&mut nl, delays),
                Err(NetlistError::NotRetimeable(_))
            ));
        }
        let short = NetDelays::fresh(
            &build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(2)).unwrap(),
        );
        assert!(matches!(
            IncrementalTimer::new(&mut nl, short),
            Err(NetlistError::NotRetimeable(_))
        ));
    }

    #[test]
    fn a_new_timer_matches_full_sta() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(8)).unwrap();
        let full = analyze(&nl, &NetDelays::fresh(&nl)).unwrap();
        let delays = NetDelays::fresh(&nl);
        let timer = IncrementalTimer::new(&mut nl, delays).unwrap();
        assert_eq!(timer.arrivals(), full.arrivals());
        assert_eq!(
            timer.max_delay_ps().to_bits(),
            full.max_delay_ps().to_bits()
        );
        assert_eq!(timer.gates_retimed(), 0);
    }
}
