//! Event-driven timed simulation with per-net transport delays.
//!
//! Time is discrete: every event lives on an integer **femtosecond tick
//! grid** ([`TICKS_PER_PS`] ticks per picosecond). Delay annotations and the
//! clock period are rounded to the nearest tick on entry, so two events that
//! are arithmetically simultaneous always compare equal — accumulated `f64`
//! sums reached via different gate paths can no longer fragment one instant
//! into several evaluation batches. The packed sampling program behind
//! [`crate::measure_errors`] and [`crate::TimedStreams`] shares the same
//! grid, which is what makes lane-exact differential testing possible.

use aix_netlist::{Evaluator, NetDriver, NetId, Netlist, NetlistError};
use aix_sta::NetDelays;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of simulation ticks per picosecond: the tick quantum is one
/// femtosecond. Sub-femtosecond structure in a delay annotation is rounded
/// away when a simulator is constructed.
pub const TICKS_PER_PS: u64 = 1000;

/// Quantizes a picosecond instant to the integer tick grid (nearest tick).
///
/// The conversion is total: `NaN` and negative values map to tick 0 and
/// values beyond the grid saturate to `u64::MAX` (Rust float→int casts
/// saturate), so an "effectively infinite" clock like `f64::MAX / 4.0`
/// or `+∞` simply never samples. Timed entry points reject NaN and
/// negative clock periods before converting them, and delay annotations
/// are validated by [`TimedSimulator::new`].
pub fn ps_to_ticks(ps: f64) -> u64 {
    (ps * TICKS_PER_PS as f64).round() as u64
}

/// Validates a clock period and quantizes it to its sampling tick.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidClock`] for NaN and negative periods,
/// which [`ps_to_ticks`] would silently turn into tick 0 (sampling before
/// anything moves). `+∞` is accepted and never samples.
pub(crate) fn clock_ticks(clock_ps: f64) -> Result<u64, NetlistError> {
    if clock_ps.is_nan() || clock_ps < 0.0 {
        return Err(NetlistError::InvalidClock {
            clock: format!("{clock_ps:?}"),
        });
    }
    Ok(ps_to_ticks(clock_ps))
}

/// Converts a tick count back to picoseconds.
pub fn ticks_to_ps(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_PS as f64
}

/// Validates a delay annotation and quantizes it to ticks, one entry per
/// net. Shared by the scalar and packed timed engines so both reject the
/// same inputs and agree on every event time.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidDelay`] for NaN, negative, or non-finite
/// entries.
pub(crate) fn quantize_delays(delays: &NetDelays) -> Result<Vec<u64>, NetlistError> {
    let slice = delays.as_slice();
    let mut ticks = Vec::with_capacity(slice.len());
    for (index, &ps) in slice.iter().enumerate() {
        if !ps.is_finite() || ps < 0.0 {
            return Err(NetlistError::InvalidDelay {
                net: NetId::from_raw(u32::try_from(index).unwrap_or(u32::MAX)),
                delay: format!("{ps:?}"),
            });
        }
        ticks.push(ps_to_ticks(ps));
    }
    Ok(ticks)
}

/// One scheduled net transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    /// Instant in ticks (see [`TICKS_PER_PS`]).
    time: u64,
    seq: u64,
    net: u32,
    value: bool,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap; we want earliest-first. Break
        // ties by insertion order for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of simulating one clock cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Output values captured at the sampling instant (`t = t_clock`).
    /// These are what the downstream register latches — possibly wrong.
    ///
    /// A transition arriving *exactly* at the sampling instant is a setup
    /// violation: the snapshot is taken before any event at `t >= t_clock`
    /// is applied, so an edge landing on the clock edge is **not** latched.
    pub sampled: Vec<bool>,
    /// Output values after all events settled (the correct result).
    pub settled: Vec<bool>,
    /// Whether any output bit was latched before its final transition —
    /// i.e. whether an aging-induced timing error occurred this cycle.
    pub timing_error: bool,
    /// Time of the last net transition this cycle, in picoseconds — the
    /// *dynamic* (exercised) path delay, as opposed to the structural
    /// critical path STA reports. Always a whole number of ticks.
    pub settle_ps: f64,
    /// Net transitions applied this cycle, *including glitches* — the
    /// quantity a zero-delay functional simulation underestimates and the
    /// honest input to dynamic-power analysis.
    pub transitions: u64,
}

/// Event-driven gate-level simulator with per-**net** transport delays:
/// each driven net carries a single delay from its driving gate's inputs to
/// its own transition (the same annotation STA consumes), not a distinct
/// delay per input→output arc.
///
/// The simulator keeps the settled state between [`step`](Self::step)
/// calls: each step models one clock cycle in which the primary inputs
/// switch at `t = 0` and the outputs are latched at `t = t_clock`, exactly
/// like gate-level simulation of a pipeline stage under an aged `.sdf`
/// annotation. All event times live on the femtosecond tick grid
/// ([`TICKS_PER_PS`]).
#[derive(Debug)]
pub struct TimedSimulator<'nl> {
    netlist: &'nl Netlist,
    /// Per-net transport delay in ticks, validated and quantized once.
    delays_ticks: Vec<u64>,
    fanout: Vec<Vec<(u32, u8)>>,
    values: Vec<bool>,
    /// Most recently scheduled (future) value per net, to suppress
    /// redundant events.
    scheduled: Vec<bool>,
    queue: BinaryHeap<Event>,
    seq: u64,
    oracle: Evaluator<'nl>,
    initialized: bool,
    /// Scratch: gates touched by the events of the current timestamp.
    dirty_gates: Vec<u32>,
    /// Scratch: de-duplication stamps for `dirty_gates`.
    dirty_stamp: Vec<u64>,
    dirty_epoch: u64,
    /// Cumulative per-net transition counts (glitches included) since
    /// construction or the last [`reset`](Self::reset).
    transition_counts: Vec<u64>,
}

impl<'nl> TimedSimulator<'nl> {
    /// Prepares a simulator for `netlist` with the given per-net delays
    /// (fresh or aged — the same annotation STA consumes). Delays are
    /// quantized to the femtosecond tick grid.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists and
    /// [`NetlistError::InvalidDelay`] if any delay entry is NaN, negative,
    /// or non-finite.
    pub fn new(netlist: &'nl Netlist, delays: &NetDelays) -> Result<Self, NetlistError> {
        let delays_ticks = quantize_delays(delays)?;
        let oracle = Evaluator::new(netlist)?;
        let mut values = vec![false; netlist.net_count()];
        for (id, net) in netlist.nets() {
            if let NetDriver::Constant(v) = net.driver {
                values[id.index()] = v;
            }
        }
        Ok(Self {
            netlist,
            delays_ticks,
            fanout: netlist
                .fanout()
                .into_iter()
                .map(|sinks| sinks.into_iter().map(|(g, p)| (g.raw(), p)).collect())
                .collect(),
            scheduled: values.clone(),
            values,
            queue: BinaryHeap::new(),
            seq: 0,
            oracle,
            initialized: false,
            dirty_gates: Vec::new(),
            dirty_stamp: vec![0; netlist.gate_count()],
            dirty_epoch: 0,
            transition_counts: vec![0; netlist.net_count()],
        })
    }

    /// Number of primary inputs expected by [`step`](Self::step).
    pub fn input_count(&self) -> usize {
        self.netlist.inputs().len()
    }

    fn schedule(&mut self, net: u32, value: bool, time: u64) {
        if self.scheduled[net as usize] == value {
            return;
        }
        self.scheduled[net as usize] = value;
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq: self.seq,
            net,
            value,
        });
    }

    /// Re-evaluates `gate` from current net values and schedules any output
    /// changes one per-net delay later.
    fn evaluate_gate(&mut self, gate: u32, now: u64) {
        let g = self.netlist.gate(aix_netlist::GateId::from_raw(gate));
        let function = self.netlist.library().cell(g.cell).function;
        let mut in_buf = [false; aix_cells::MAX_INPUTS];
        for (slot, net) in in_buf.iter_mut().zip(&g.inputs) {
            *slot = self.values[net.index()];
        }
        let mut out_buf = [false; aix_cells::MAX_OUTPUTS];
        function.eval(&in_buf[..g.inputs.len()], &mut out_buf);
        for (pin, &out_net) in g.outputs.iter().enumerate() {
            let new = out_buf[pin];
            let delay = self.delays_ticks[out_net.index()];
            self.schedule(out_net.raw(), new, now.saturating_add(delay));
        }
    }

    /// Simulates one clock cycle: applies `inputs` at `t = 0`, samples the
    /// outputs at `t = clock_ps` (rounded to the nearest tick), then lets
    /// the circuit settle completely.
    ///
    /// The first call initializes every internal net from a functional
    /// evaluation (as if the previous cycle had infinite settling time).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidClock`] for a NaN or negative
    /// `clock_ps` and [`NetlistError::InputWidthMismatch`] if `inputs` has
    /// the wrong width.
    pub fn step(&mut self, inputs: &[bool], clock_ps: f64) -> Result<StepOutcome, NetlistError> {
        let clock_ticks = clock_ticks(clock_ps)?;
        if inputs.len() != self.input_count() {
            return Err(NetlistError::InputWidthMismatch {
                expected: self.input_count(),
                provided: inputs.len(),
            });
        }
        if !self.initialized {
            // Settle the circuit on the first vector without timing.
            self.oracle.eval(inputs)?;
            self.values.copy_from_slice(self.oracle.net_values());
            self.scheduled.copy_from_slice(&self.values);
            self.initialized = true;
            let settled: Vec<bool> = self
                .netlist
                .outputs()
                .iter()
                .map(|(_, n)| self.values[n.index()])
                .collect();
            return Ok(StepOutcome {
                sampled: settled.clone(),
                settled,
                timing_error: false,
                settle_ps: 0.0,
                transitions: 0,
            });
        }
        // Apply input transitions at t = 0.
        for (&net, &value) in self.netlist.inputs().iter().zip(inputs) {
            self.schedule(net.raw(), value, 0);
        }
        let mut sampled: Option<Vec<bool>> = None;
        let mut settle_ticks = 0u64;
        let mut transitions = 0u64;
        // Process events in timestamp batches: apply every transition of
        // the current instant first, then evaluate each affected gate once.
        while let Some(first) = self.queue.peek() {
            let now = first.time;
            // Sample *before* applying this batch: an arrival exactly at
            // the clock edge has zero setup margin and must not be latched.
            if sampled.is_none() && now >= clock_ticks {
                sampled = Some(self.snapshot_outputs());
            }
            self.dirty_epoch += 1;
            let epoch = self.dirty_epoch;
            self.dirty_gates.clear();
            while let Some(event) = self.queue.peek() {
                if event.time != now {
                    break;
                }
                let event = self.queue.pop().expect("peeked");
                if self.values[event.net as usize] == event.value {
                    continue;
                }
                settle_ticks = settle_ticks.max(now);
                transitions += 1;
                self.transition_counts[event.net as usize] += 1;
                self.values[event.net as usize] = event.value;
                for &(gate, _pin) in &self.fanout[event.net as usize] {
                    if self.dirty_stamp[gate as usize] != epoch {
                        self.dirty_stamp[gate as usize] = epoch;
                        self.dirty_gates.push(gate);
                    }
                }
            }
            let dirty = std::mem::take(&mut self.dirty_gates);
            for &gate in &dirty {
                self.evaluate_gate(gate, now);
            }
            self.dirty_gates = dirty;
        }
        let settled = self.snapshot_outputs();
        let sampled = sampled.unwrap_or_else(|| settled.clone());
        let timing_error = sampled != settled;
        Ok(StepOutcome {
            sampled,
            settled,
            timing_error,
            settle_ps: ticks_to_ps(settle_ticks),
            transitions,
        })
    }

    /// Cumulative per-net transition counts (glitches included) since
    /// construction or the last [`reset`](Self::reset), indexed by net id.
    pub fn transition_counts(&self) -> &[u64] {
        &self.transition_counts
    }

    fn snapshot_outputs(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|(_, n)| self.values[n.index()])
            .collect()
    }

    /// Resets the simulator to its uninitialized state, clearing the
    /// transition counters.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.initialized = false;
        for count in &mut self.transition_counts {
            *count = 0;
        }
        for v in &mut self.values {
            *v = false;
        }
        for (id, net) in self.netlist.nets() {
            if let NetDriver::Constant(v) = net.driver {
                self.values[id.index()] = v;
            }
        }
        self.scheduled.copy_from_slice(&self.values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::{AgingModel, AgingScenario, Lifetime};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::{CellFunction, DriveStrength, Library};
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sta::{analyze, NetDelays};
    use std::sync::Arc;

    fn adder(kind: AdderKind, width: usize) -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_adder(&lib, kind, ComponentSpec::full(width)).unwrap()
    }

    fn operands(width: usize, a: u64, b: u64) -> Vec<bool> {
        let mut v = bus_from_u64(a, width);
        v.extend(bus_from_u64(b, width));
        v
    }

    #[test]
    fn generous_clock_never_errs() {
        let nl = adder(AdderKind::RippleCarry, 8);
        let delays = NetDelays::fresh(&nl);
        let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
        for (a, b) in [(0, 0), (255, 1), (100, 155), (37, 201), (255, 255)] {
            let out = sim.step(&operands(8, a, b), 1e9).unwrap();
            assert!(!out.timing_error);
            assert_eq!(bus_to_u64(&out.settled), a + b);
            assert_eq!(out.sampled, out.settled);
        }
    }

    #[test]
    fn settled_matches_functional_oracle_over_random_vectors() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let nl = adder(AdderKind::CarrySelect, 16);
        let delays = NetDelays::fresh(&nl);
        let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let a = u64::from(rng.gen::<u16>());
            let b = u64::from(rng.gen::<u16>());
            let out = sim.step(&operands(16, a, b), 5.0).unwrap();
            assert_eq!(bus_to_u64(&out.settled), a + b, "{a}+{b}");
        }
    }

    #[test]
    fn tight_clock_truncates_carry_propagation() {
        // Clock shorter than the carry chain: switching from 0+0 to
        // 255+1 cannot settle; a timing error must be detected.
        let nl = adder(AdderKind::RippleCarry, 8);
        let delays = NetDelays::fresh(&nl);
        let report = analyze(&nl, &delays).unwrap();
        let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
        sim.step(&operands(8, 0, 0), 1e9).unwrap();
        let out = sim
            .step(&operands(8, 255, 1), report.max_delay_ps() * 0.2)
            .unwrap();
        assert_eq!(bus_to_u64(&out.settled), 256);
        assert!(out.timing_error, "sampled {:?}", out.sampled);
        assert_ne!(bus_to_u64(&out.sampled), 256);
    }

    #[test]
    fn clock_at_critical_path_is_always_safe_when_fresh() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let nl = adder(AdderKind::CarrySelect, 12);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps();
        let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let a = u64::from(rng.gen::<u16>() & 0xFFF);
            let b = u64::from(rng.gen::<u16>() & 0xFFF);
            // A 1 ps margin over the STA critical path absorbs both the
            // edge-exclusive sampling semantics and per-arc tick rounding
            // (at most 0.5 fs per gate along any path).
            let out = sim.step(&operands(12, a, b), clock + 1.0).unwrap();
            assert!(!out.timing_error, "{a}+{b} erred at the fresh clock");
            assert_eq!(bus_to_u64(&out.sampled), a + b);
        }
    }

    #[test]
    fn transition_on_the_clock_edge_is_a_setup_violation() {
        // Learn the exact settle instant of the full-carry flip, then clock
        // the same transition at precisely that instant: the arrival lands
        // on the sampling edge and must count as a violation. One tick
        // later is safe.
        let nl = adder(AdderKind::RippleCarry, 8);
        let delays = NetDelays::fresh(&nl);
        let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
        sim.step(&operands(8, 0, 0), 1e9).unwrap();
        let relaxed = sim.step(&operands(8, 255, 1), 1e9).unwrap();
        assert!(!relaxed.timing_error);
        let settle = relaxed.settle_ps;
        assert!(settle > 0.0);

        sim.reset();
        sim.step(&operands(8, 0, 0), 1e9).unwrap();
        let edge = sim.step(&operands(8, 255, 1), settle).unwrap();
        assert!(
            edge.timing_error,
            "a carry arriving exactly on the clock edge has zero setup margin"
        );
        assert_ne!(bus_to_u64(&edge.sampled), 256);

        sim.reset();
        sim.step(&operands(8, 0, 0), 1e9).unwrap();
        let one_tick_later = sim
            .step(&operands(8, 255, 1), settle + 1.0 / TICKS_PER_PS as f64)
            .unwrap();
        assert!(!one_tick_later.timing_error, "one tick of margin suffices");
    }

    #[test]
    fn invalid_delays_are_rejected_up_front() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let good = NetDelays::fresh(&nl);
        let last = good.as_slice().len() - 1;
        for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let mut raw = good.as_slice().to_vec();
            raw[last] = bad;
            match TimedSimulator::new(&nl, &NetDelays::from_raw(raw)) {
                Err(NetlistError::InvalidDelay { net, .. }) => {
                    assert_eq!(net.index(), last, "error names the offending net");
                }
                other => panic!("delay {bad} must be rejected, got {other:?}"),
            }
        }
        // Zero and positive delays stay valid.
        let mut raw = good.as_slice().to_vec();
        raw[0] = 0.0;
        assert!(TimedSimulator::new(&nl, &NetDelays::from_raw(raw)).is_ok());
    }

    #[test]
    fn reconvergent_equal_delays_share_one_batch() {
        // Two inverter pairs from the same input, with per-net delays
        // 0.1+0.2 and 0.15+0.15 ps, reconverge on an XOR. On the tick grid
        // both paths arrive at exactly 300 fs, so the XOR sees both inputs
        // flip in one batch and never glitches. (Under f64 event times
        // 0.1+0.2 != 0.15+0.15, the instant fragments and the XOR pulses.)
        let lib = Arc::new(Library::nangate45_like());
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let xor = lib.find(CellFunction::Xor2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("reconv", lib.clone());
        let a = nl.add_input("a");
        let n1 = nl.add_gate(inv, &[a]).unwrap()[0];
        let x1 = nl.add_gate(inv, &[n1]).unwrap()[0];
        let n2 = nl.add_gate(inv, &[a]).unwrap()[0];
        let x2 = nl.add_gate(inv, &[n2]).unwrap()[0];
        let y = nl.add_gate(xor, &[x1, x2]).unwrap()[0];
        nl.mark_output("y", y);

        let mut raw = vec![0.0; nl.net_count()];
        raw[n1.index()] = 0.1;
        raw[x1.index()] = 0.2;
        raw[n2.index()] = 0.15;
        raw[x2.index()] = 0.15;
        raw[y.index()] = 0.1;
        let delays = NetDelays::from_raw(raw);
        let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
        sim.step(&[false], 1e9).unwrap();
        let out = sim.step(&[true], 1e9).unwrap();
        assert_eq!(out.settled, vec![false]);
        assert_eq!(
            sim.transition_counts()[y.index()],
            0,
            "equal-instant reconvergence must not glitch the XOR"
        );
    }

    #[test]
    fn tick_quantization_is_total_and_saturating() {
        assert_eq!(ps_to_ticks(0.0), 0);
        assert_eq!(ps_to_ticks(1.0), TICKS_PER_PS);
        assert_eq!(ps_to_ticks(0.0004), 0);
        assert_eq!(ps_to_ticks(0.0006), 1);
        assert_eq!(ps_to_ticks(f64::NAN), 0);
        assert_eq!(ps_to_ticks(-5.0), 0);
        assert_eq!(ps_to_ticks(f64::INFINITY), u64::MAX);
        assert_eq!(ps_to_ticks(f64::MAX / 4.0), u64::MAX);
        assert_eq!(ticks_to_ps(1500), 1.5);
        assert_eq!(ps_to_ticks(ticks_to_ps(987_654_321)), 987_654_321);
    }

    #[test]
    fn aged_gates_at_fresh_clock_produce_errors() {
        // A balanced-tree (Kogge-Stone) adder has many near-critical paths,
        // so sustained worst-case aging at the fresh clock must produce
        // some errors. (The raw, unsized netlist here lacks the slack wall
        // of a timing-closed design, so a 20-year horizon stands in for
        // the paper's 10-year one; `exp-fig1` exercises the synthesized
        // variant at 10 years.)
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let nl = adder(AdderKind::KoggeStone, 32);
        let fresh = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &fresh).unwrap().max_delay_ps();
        let model = AgingModel::calibrated();
        let aged = NetDelays::aged(
            &nl,
            &model,
            AgingScenario::worst_case(Lifetime::from_years(20.0)),
        );
        let mut sim = TimedSimulator::new(&nl, &aged).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut errors = 0;
        let n = 2000;
        for _ in 0..n {
            let a = u64::from(rng.gen::<u32>());
            let b = u64::from(rng.gen::<u32>());
            let out = sim.step(&operands(32, a, b), clock).unwrap();
            if out.timing_error {
                errors += 1;
            }
            assert_eq!(bus_to_u64(&out.settled), a + b);
        }
        assert!(errors > 0, "aging at the fresh clock must cause errors");
        assert!(errors < n, "not every vector exercises a critical path");
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let delays = NetDelays::fresh(&nl);
        let mut sim = TimedSimulator::new(&nl, &delays).unwrap();
        let first = sim.step(&operands(4, 7, 8), 0.001).unwrap();
        assert!(!first.timing_error, "first vector settles functionally");
        sim.reset();
        let again = sim.step(&operands(4, 7, 8), 0.001).unwrap();
        assert_eq!(first, again);
    }
}
