//! Test oracles: the straightforward passes that faster ones replaced.
//!
//! * The full-STA sizing passes that [`crate::sizing`] replaced: every
//!   trial move re-builds the annotation and re-runs STA. The incremental
//!   passes must reproduce them gate for gate and bit for bit.
//! * The two-pass optimizer that [`crate::optimize`] replaced, which
//!   materializes the constant-propagated netlist before sweeping it.

use crate::opt::{self, replacement_cell, simplify};
use crate::{RecoveryOutcome, SizingOutcome};
use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{NetDriver, NetId, Netlist, NetlistError, Pins};
use aix_sta::{analyze, critical_path, NetDelays, SlackReport};

/// Full-STA [`crate::size_for_performance`].
pub fn size_for_performance(
    netlist: &mut Netlist,
    delay_fn: impl Fn(&Netlist) -> NetDelays,
    max_iterations: usize,
) -> Result<SizingOutcome, NetlistError> {
    let delays = delay_fn(netlist);
    let initial = analyze(netlist, &delays)?.max_delay_ps();
    let mut current = initial;
    let mut upsized = 0usize;
    let mut iterations = 0usize;
    // Gates proven unhelpful to upsize (reverted moves).
    let mut locked = vec![false; netlist.gate_count()];
    while iterations < max_iterations {
        iterations += 1;
        let delays = delay_fn(netlist);
        let report = analyze(netlist, &delays)?;
        let path = critical_path(netlist, &report);
        // Candidate: the path gate with the largest arc delay that can
        // still be upsized and is not locked.
        let mut candidate = None;
        let mut worst = 0.0f64;
        for &gate_id in &path {
            if locked[gate_id.index()] {
                continue;
            }
            let gate = netlist.gate(gate_id);
            let arc: f64 = gate
                .outputs
                .iter()
                .map(|n| delays.of(n.index()))
                .fold(0.0, f64::max);
            if arc > worst && netlist.library().upsize(gate.cell).is_some() {
                worst = arc;
                candidate = Some(gate_id);
            }
        }
        let Some(gate_id) = candidate else { break };
        let old_cell = netlist.gate(gate_id).cell;
        let new_cell = netlist
            .library()
            .upsize(old_cell)
            .expect("candidate filter guarantees an upsize exists");
        netlist.gate_mut(gate_id).cell = new_cell;
        let new_delay = analyze(netlist, &delay_fn(netlist))?.max_delay_ps();
        if new_delay < current - 1e-9 {
            current = new_delay;
            upsized += 1;
        } else {
            // Revert: upsizing here hurt (input capacitance outweighed
            // drive) or did not help.
            netlist.gate_mut(gate_id).cell = old_cell;
            locked[gate_id.index()] = true;
        }
    }
    Ok(SizingOutcome {
        initial_delay_ps: initial,
        final_delay_ps: current,
        upsized_gates: upsized,
        iterations,
    })
}

/// Full-STA [`crate::recover_area`].
pub fn recover_area(
    netlist: &mut Netlist,
    delay_fn: impl Fn(&Netlist) -> NetDelays,
    target_ps: f64,
    max_rounds: usize,
) -> Result<RecoveryOutcome, NetlistError> {
    let area_before = netlist.stats().area_um2;
    let mut downsized = 0usize;
    for _ in 0..max_rounds {
        let delays = delay_fn(netlist);
        let report = analyze(netlist, &delays)?;
        if report.max_delay_ps() > target_ps {
            break;
        }
        let slack = SlackReport::compute(netlist, &delays, &report, target_ps)?;
        // Candidate gates: every output arc has enough slack to absorb a
        // conservative estimate of the downsizing penalty.
        let mut moved = Vec::new();
        for (gate_id, gate) in netlist.gates() {
            let Some(weaker) = netlist.library().downsize(gate.cell) else {
                continue;
            };
            let loads = netlist.net_loads_ff();
            let old_cell = netlist.library().cell(gate.cell);
            let new_cell = netlist.library().cell(weaker);
            let worst_penalty = gate
                .outputs
                .iter()
                .map(|n| new_cell.delay_ps(loads[n.index()]) - old_cell.delay_ps(loads[n.index()]))
                .fold(0.0f64, f64::max);
            let min_slack = gate
                .outputs
                .iter()
                .map(|n| slack.slack_ps(*n))
                .fold(f64::INFINITY, f64::min);
            // Safety factor 2: serial gates in one round share slack.
            if min_slack > 2.0 * worst_penalty.max(0.0) + 1e-9 {
                moved.push((gate_id, gate.cell, weaker));
            }
        }
        if moved.is_empty() {
            break;
        }
        for &(gate_id, _, weaker) in &moved {
            netlist.gate_mut(gate_id).cell = weaker;
        }
        // Roll back overshoots one gate at a time (rare thanks to the
        // safety factor).
        while analyze(netlist, &delay_fn(netlist))?.max_delay_ps() > target_ps {
            let Some((gate_id, original, _)) = moved.pop() else {
                break;
            };
            netlist.gate_mut(gate_id).cell = original;
        }
        downsized += moved.len();
        if moved.is_empty() {
            break;
        }
    }
    let final_delay = analyze(netlist, &delay_fn(netlist))?.max_delay_ps();
    Ok(RecoveryOutcome {
        downsized_gates: downsized,
        area_before_um2: area_before,
        area_after_um2: netlist.stats().area_um2,
        final_delay_ps: final_delay,
    })
}

// The two-pass optimizer that `crate::optimize` replaced: constant
// propagation rebuilds the whole netlist, then the dead-gate sweep
// rebuilds it again. The one-pass optimizer must reproduce its output
// byte for byte. Both share `simplify`, the Boolean rules themselves.

/// A resolved signal in the *old* netlist's id space.
type Resolved = opt::Resolved<NetId>;
type GatePlan = opt::GatePlan<NetId>;
type PinPlan = opt::PinPlan<NetId>;

/// Old-to-new net map of a rebuild, dense over the old netlist's nets.
struct NetMap(Vec<Option<NetId>>);

impl NetMap {
    /// Starts a rebuild of `netlist` into `out`: the primary inputs are
    /// re-created first, in order, so they keep their ids.
    fn with_inputs(netlist: &Netlist, out: &mut Netlist) -> Self {
        let mut map = NetMap(vec![None; netlist.net_count()]);
        for &input in netlist.inputs() {
            let name = netlist
                .net(input)
                .name
                .clone()
                .unwrap_or_else(|| format!("in{}", input.index()));
            map.0[input.index()] = Some(out.add_input(name));
        }
        map
    }

    fn get(&self, old: NetId) -> Option<NetId> {
        self.0[old.index()]
    }

    /// Maps each old output net onto the new one in pin order.
    fn map_outputs(&mut self, old: &[NetId], new: &[NetId]) {
        for (&old, &new) in old.iter().zip(new) {
            self.0[old.index()] = Some(new);
        }
    }
}

/// Instantiates `function` at X1 over `operands` (at most its input
/// count of them are read).
fn add_replacement(
    out: &mut Netlist,
    net_map: &NetMap,
    function: CellFunction,
    operands: &[Resolved],
) -> Result<Pins<MAX_OUTPUTS>, NetlistError> {
    let cell = replacement_cell(out.library(), function);
    let mut ins = Pins::<MAX_INPUTS>::new();
    for &r in &operands[..function.input_count()] {
        ins.push(map_resolved(out, net_map, r));
    }
    out.add_gate(cell, &ins)
}

/// Maps a resolved old signal to a net in the new netlist.
fn map_resolved(out: &mut Netlist, net_map: &NetMap, r: Resolved) -> NetId {
    match r {
        Resolved::Const(v) => out.constant(v),
        Resolved::Net(n) => net_map
            .get(n)
            .expect("topological order maps drivers before readers"),
    }
}

/// Runs constant propagation over `netlist`, returning a functionally
/// equivalent netlist in which constant-driven cones are folded and gates
/// with partially constant inputs are replaced by smaller cells.
///
/// Primary input and output ports are preserved, including unused inputs.
///
/// # Errors
///
/// Propagates netlist construction errors; a validated input never fails.
pub fn constant_propagation(netlist: &Netlist) -> Result<Netlist, NetlistError> {
    let order = netlist.topological_order()?;
    let mut resolution: Vec<Option<Resolved>> = vec![None; netlist.net_count()];
    for (id, net) in netlist.nets() {
        if let NetDriver::Constant(v) = net.driver {
            resolution[id.index()] = Some(Resolved::Const(v));
        }
    }
    let resolve = |resolution: &[Option<Resolved>], mut net: NetId| -> Resolved {
        loop {
            match resolution[net.index()] {
                None => return Resolved::Net(net),
                Some(Resolved::Const(v)) => return Resolved::Const(v),
                Some(Resolved::Net(next)) => net = next,
            }
        }
    };

    let mut plans: Vec<GatePlan> = vec![GatePlan::Keep; netlist.gate_count()];
    let mut ins = [Resolved::Const(false); MAX_INPUTS];
    for &gate_id in &order {
        let gate = netlist.gate(gate_id);
        let function = netlist.library().cell(gate.cell).function;
        for (slot, &n) in ins.iter_mut().zip(&gate.inputs) {
            *slot = resolve(&resolution, n);
        }
        let plan = simplify(function, &ins[..gate.inputs.len()]);
        if let GatePlan::Replace(pins) = &plan {
            for (action, &out) in pins.iter().zip(&gate.outputs) {
                match action {
                    PinPlan::Const(v) => resolution[out.index()] = Some(Resolved::Const(*v)),
                    PinPlan::Wire(r) => resolution[out.index()] = Some(*r),
                    PinPlan::Gate(..) => {}
                }
            }
        }
        plans[gate_id.index()] = plan;
    }

    // Rebuild.
    let library = netlist.library().clone();
    let mut out = Netlist::new(netlist.name().to_owned(), library);
    let mut net_map = NetMap::with_inputs(netlist, &mut out);
    for &gate_id in &order {
        let gate = netlist.gate(gate_id);
        match plans[gate_id.index()] {
            GatePlan::Keep => {
                let mut ins = Pins::<MAX_INPUTS>::new();
                for &n in &gate.inputs {
                    let r = resolve(&resolution, n);
                    ins.push(map_resolved(&mut out, &net_map, r));
                }
                let new_outs = out.add_gate(gate.cell, &ins)?;
                net_map.map_outputs(&gate.outputs, &new_outs);
            }
            GatePlan::Replace(pins) => {
                for (action, &old) in pins.iter().zip(&gate.outputs) {
                    if let PinPlan::Gate(function, operands) = action {
                        let new_outs = add_replacement(&mut out, &net_map, *function, operands)?;
                        net_map.map_outputs(&[old], &new_outs);
                    }
                }
            }
            GatePlan::Rewrite(function, operands) => {
                let new_outs = add_replacement(&mut out, &net_map, function, &operands)?;
                net_map.map_outputs(&gate.outputs, &new_outs);
            }
        }
    }
    for (name, old_net) in netlist.outputs() {
        let r = resolve(&resolution, *old_net);
        let new_net = map_resolved(&mut out, &net_map, r);
        out.mark_output(name.clone(), new_net);
    }
    Ok(out)
}

/// Removes every gate not transitively reachable from a primary output.
///
/// # Errors
///
/// Propagates netlist construction errors; a validated input never fails.
pub fn sweep_dead_gates(netlist: &Netlist) -> Result<Netlist, NetlistError> {
    let mut live = vec![false; netlist.gate_count()];
    let mut stack: Vec<NetId> = netlist.output_nets();
    while let Some(net) = stack.pop() {
        if let NetDriver::Gate { gate, .. } = netlist.net(net).driver {
            if !live[gate.index()] {
                live[gate.index()] = true;
                stack.extend(netlist.gate(gate).inputs.iter().copied());
            }
        }
    }
    let order = netlist.topological_order()?;
    let library = netlist.library().clone();
    let mut out = Netlist::new(netlist.name().to_owned(), library);
    let mut net_map = NetMap::with_inputs(netlist, &mut out);
    let map_live =
        |out: &mut Netlist, net_map: &NetMap, n: NetId, what: &str| match netlist.net(n).driver {
            NetDriver::Constant(v) => out.constant(v),
            _ => net_map.get(n).expect(what),
        };
    for &gate_id in &order {
        if !live[gate_id.index()] {
            continue;
        }
        let gate = netlist.gate(gate_id);
        let mut ins = Pins::<MAX_INPUTS>::new();
        for &n in &gate.inputs {
            ins.push(map_live(&mut out, &net_map, n, "live fanin already mapped"));
        }
        let new_outs = out.add_gate(gate.cell, &ins)?;
        net_map.map_outputs(&gate.outputs, &new_outs);
    }
    for (name, old_net) in netlist.outputs() {
        let new_net = map_live(&mut out, &net_map, *old_net, "output driver is live");
        out.mark_output(name.clone(), new_net);
    }
    Ok(out)
}

/// Two-pass [`crate::optimize`]: constant propagation, then a dead-gate
/// sweep of the intermediate netlist.
pub fn optimize(netlist: &Netlist) -> Result<Netlist, NetlistError> {
    sweep_dead_gates(&constant_propagation(netlist)?)
}

/// Differential suite: the incremental passes against the full-STA oracle
/// on the components the paper characterizes, fresh and aged.
mod differential {
    use super::*;
    use crate::{aging_aware_synthesize, optimize, AgingAwareOutcome};
    use aix_aging::{AgingModel, AgingScenario, Lifetime, StressFactor, StressPair};
    use aix_arith::{
        build_adder, build_mac, build_multiplier, AdderKind, ComponentSpec, MultiplierKind,
    };
    use aix_cells::Library;
    use aix_sta::StressSource;
    use std::sync::Arc;

    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Adder,
        Multiplier,
        Mac,
    }

    fn build(lib: &Arc<Library>, kind: Kind, spec: ComponentSpec) -> Netlist {
        let built = match kind {
            Kind::Adder => build_adder(lib, AdderKind::CarrySelect, spec),
            Kind::Multiplier => build_multiplier(lib, MultiplierKind::Wallace, spec),
            Kind::Mac => build_mac(lib, spec),
        };
        optimize(&built.unwrap()).unwrap()
    }

    fn cells(netlist: &Netlist) -> Vec<aix_cells::CellId> {
        netlist.gates().map(|(_, g)| g.cell).collect()
    }

    /// `Debug` renders every `f64` in its shortest round-trip form, so equal
    /// renderings mean equal bits.
    fn same<T: std::fmt::Debug>(what: &str, incremental: T, oracle: T) {
        assert_eq!(format!("{incremental:?}"), format!("{oracle:?}"), "{what}");
    }

    /// Deterministic, gate-dependent stress: the actual-case shape.
    fn per_gate_stress(gates: usize) -> StressSource {
        let factor = |x: u64| StressFactor::new((x % 101) as f64 / 100.0).unwrap();
        StressSource::PerGate(
            (0..gates as u64)
                .map(|g| {
                    let h = g.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
                    StressPair::new(factor(h), factor(h >> 11))
                })
                .collect(),
        )
    }

    fn check(kind: Kind, width: usize) {
        let lib = Arc::new(Library::nangate45_like());
        let model = AgingModel::calibrated();
        let lifetime = Lifetime::YEARS_10;
        for precision in [width, width - width / 4, width / 2] {
            let label = format!("{kind:?} w{width} p{precision}");
            let spec = ComponentSpec::new(width, precision).unwrap();

            // Fresh synthesis: sizing, then recovery at the achieved delay.
            let mut fast = build(&lib, kind, spec);
            let mut slow = fast.clone();
            let sized = crate::size_for_performance(&mut fast, NetDelays::fresh, 400).unwrap();
            let sized_oracle = size_for_performance(&mut slow, NetDelays::fresh, 400).unwrap();
            same(&format!("{label} sizing"), sized, sized_oracle);
            assert_eq!(cells(&fast), cells(&slow), "{label}: sized cells");
            let target = sized.final_delay_ps;
            let recovered = crate::recover_area(&mut fast, NetDelays::fresh, target, 25).unwrap();
            let recovered_oracle = recover_area(&mut slow, NetDelays::fresh, target, 25).unwrap();
            same(&format!("{label} recovery"), recovered, recovered_oracle);
            assert_eq!(cells(&fast), cells(&slow), "{label}: recovered cells");

            // Aging-aware re-sizing of the synthesized netlist under
            // worst-case uniform stress, against the fresh constraint.
            let scenario = AgingScenario::worst_case(lifetime);
            let mut aged_fast = fast.clone();
            let mut aged_slow = fast.clone();
            let outcome =
                aging_aware_synthesize(&mut aged_fast, &model, scenario, target, 300).unwrap();
            let aged = |nl: &Netlist| NetDelays::aged(nl, &model, scenario);
            let before = analyze(&aged_slow, &aged(&aged_slow))
                .unwrap()
                .max_delay_ps();
            let oracle_sized = size_for_performance(&mut aged_slow, aged, 300).unwrap();
            let after = analyze(&aged_slow, &aged(&aged_slow))
                .unwrap()
                .max_delay_ps();
            let outcome_oracle = AgingAwareOutcome {
                aged_delay_before_ps: before,
                aged_delay_after_ps: after,
                target_ps: target,
                constraint_met: after <= target,
                upsized_gates: oracle_sized.upsized_gates,
            };
            same(&format!("{label} aging-aware"), outcome, outcome_oracle);
            assert_eq!(
                cells(&aged_fast),
                cells(&aged_slow),
                "{label}: aging-aware cells"
            );

            // Per-gate (actual-case) stress: both passes under one source.
            let stress = per_gate_stress(fast.gate_count());
            let per_gate =
                |nl: &Netlist| NetDelays::aged_with_stress(nl, &model, &stress, lifetime);
            let mut pg_fast = fast.clone();
            let mut pg_slow = fast.clone();
            let sized = crate::size_for_performance(&mut pg_fast, per_gate, 200).unwrap();
            let sized_oracle = size_for_performance(&mut pg_slow, per_gate, 200).unwrap();
            same(&format!("{label} per-gate sizing"), sized, sized_oracle);
            let target = sized.final_delay_ps;
            let recovered = crate::recover_area(&mut pg_fast, per_gate, target, 25).unwrap();
            let recovered_oracle = recover_area(&mut pg_slow, per_gate, target, 25).unwrap();
            same(
                &format!("{label} per-gate recovery"),
                recovered,
                recovered_oracle,
            );
            assert_eq!(cells(&pg_fast), cells(&pg_slow), "{label}: per-gate cells");
        }
    }

    #[test]
    fn adders_match_the_oracle() {
        for width in [8, 16, 32] {
            check(Kind::Adder, width);
        }
    }

    #[test]
    fn multipliers_match_the_oracle() {
        for width in [8, 16, 32] {
            check(Kind::Multiplier, width);
        }
    }

    #[test]
    fn macs_8_and_16_match_the_oracle() {
        for width in [8, 16] {
            check(Kind::Mac, width);
        }
    }

    #[test]
    fn mac_32_matches_the_oracle() {
        check(Kind::Mac, 32);
    }

    #[test]
    fn raw_annotations_are_rejected() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build(&lib, Kind::Adder, ComponentSpec::full(8));
        let raw = |nl: &Netlist| NetDelays::from_raw(NetDelays::fresh(nl).as_slice().to_vec());
        for result in [
            crate::size_for_performance(&mut nl, raw, 10).map(|_| ()),
            crate::recover_area(&mut nl, raw, 1e9, 5).map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(NetlistError::NotRetimeable(_))),
                "{result:?}"
            );
        }
    }
}

/// Differential suite: the one-pass optimizer against the two-pass oracle
/// on random netlists and on the explorer's candidates, and the planner fed
/// straight by the generators against the oracle on the built netlists.
mod optimizer_differential {
    use crate::{Effort, Planner};
    use aix_arith::{
        build_adder, build_mac, build_multiplier, Canonical, Component, ComponentSpec,
    };
    use aix_cells::{CellFunction, DriveStrength, Library};
    use aix_core::ComponentKind;
    use aix_explore::seed_candidates;
    use aix_netlist::{to_verilog, GateId, NetId, Netlist};
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Asserts that `fast`, an optimized netlist of `built`, is the one the
    /// two-pass optimizer builds from it: the same Verilog text (gates and
    /// nets by id, in order), net count and ports.
    fn assert_same(fast: &Netlist, built: &Netlist, what: &str) {
        let slow = super::optimize(built).unwrap();
        assert_eq!(to_verilog(fast), to_verilog(&slow), "{what}: Verilog");
        assert_eq!(fast.net_count(), slow.net_count(), "{what}: net count");
        let ports = |nl: &Netlist| -> (Vec<Option<String>>, Vec<String>) {
            let inputs = nl.inputs().iter().map(|&n| nl.net(n).name.clone());
            let outputs = nl.outputs().iter().map(|(name, _)| name.clone());
            (inputs.collect(), outputs.collect())
        };
        assert_eq!(ports(fast), ports(&slow), "{what}: port names");
    }

    const COMBINATIONAL: [CellFunction; 15] = [
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

    /// One random gate: function, drive, operand picks into the net pool
    /// built so far, and whether a MUX reads one net on both data inputs.
    type GateSpec = (usize, usize, [usize; 3], bool);

    /// A random netlist over a pool that starts with the inputs and both
    /// constants (so constant operands are common) and grows by every
    /// gate output, HA and FA carries included. Outputs pick from the
    /// whole pool, so some are constants or inputs, some repeat a net, and
    /// every gate no output reaches is dead logic. `rewires` then point
    /// gate inputs at later gates' outputs where that stays acyclic, so
    /// gate ids stop being a topological order.
    fn random_netlist(
        library: &Arc<Library>,
        inputs: usize,
        gates: &[GateSpec],
        outputs: &[usize],
        rewires: &[(usize, usize, usize, usize)],
    ) -> Netlist {
        let mut nl = Netlist::new("random", Arc::clone(library));
        let mut pool: Vec<NetId> = (0..inputs)
            .map(|i| nl.add_input(format!("in{i}")))
            .collect();
        pool.push(nl.constant(false));
        pool.push(nl.constant(true));
        for &(function, drive, picks, same_data) in gates {
            let function = COMBINATIONAL[function % COMBINATIONAL.len()];
            let drive = DriveStrength::ALL[drive % DriveStrength::ALL.len()];
            let cell = library
                .find(function, drive)
                .or_else(|| library.find(function, DriveStrength::X1))
                .unwrap();
            let mut operands: Vec<NetId> = picks[..function.input_count()]
                .iter()
                .map(|pick| pool[pick % pool.len()])
                .collect();
            if function == CellFunction::Mux2 && same_data {
                operands[1] = operands[0];
            }
            pool.extend(nl.add_gate(cell, &operands).unwrap());
        }
        for (index, &pick) in outputs.iter().enumerate() {
            nl.mark_output(format!("out{index}"), pool[pick % pool.len()]);
        }
        for &(gate, pin, source, source_pin) in rewires {
            let gate = GateId::from_raw((gate % nl.gate_count()) as u32);
            let source = GateId::from_raw((source % nl.gate_count()) as u32);
            let outs = nl.gate(source).outputs;
            let pins = nl.gate(gate).inputs.len();
            let old = nl.gate(gate).inputs[pin % pins];
            nl.gate_mut(gate).inputs[pin % pins] = outs[source_pin % outs.len()];
            if nl.topological_order().is_err() {
                nl.gate_mut(gate).inputs[pin % pins] = old;
            }
        }
        nl.validate().unwrap();
        nl
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_matches_two_passes_on_random_netlists(
            inputs in 1usize..=4,
            gates in proptest::collection::vec(
                (0usize..64, 0usize..4, [0usize..256, 0usize..256, 0usize..256], any::<bool>()),
                1..=40,
            ),
            outputs in proptest::collection::vec(0usize..256, 1..=6),
            rewires in proptest::collection::vec((0usize..64, 0usize..3, 0usize..64, 0usize..2), 0..=4),
        ) {
            let library = Arc::new(Library::nangate45_like());
            let nl = random_netlist(&library, inputs, &gates, &outputs, &rewires);
            assert_same(&crate::optimize(&nl).unwrap(), &nl, "random netlist");
        }
    }

    /// Every generation-zero seed and every neighbour of one, for each
    /// component kind at widths 4, 8 and 16.
    #[test]
    fn one_pass_matches_two_passes_on_explore_candidates() {
        let library = Arc::new(Library::nangate45_like());
        for kind in ComponentKind::ALL {
            for width in [4, 8, 16] {
                let mut seen = HashSet::new();
                for seed in seed_candidates(kind, width) {
                    for candidate in std::iter::once(seed).chain(seed.neighbors()) {
                        if seen.insert(candidate) {
                            let built = candidate.build(&library).unwrap();
                            let fast = crate::optimize(&built).unwrap();
                            assert_same(&fast, &built, &candidate.label());
                        }
                    }
                }
                assert!(seen.len() > 20, "{kind}-{width}: {} candidates", seen.len());
            }
        }
    }

    /// The candidates of [`one_pass_matches_two_passes_on_explore_candidates`],
    /// generated straight into the planner, against the two-pass optimizer
    /// on their built netlists.
    #[test]
    fn direct_path_matches_two_passes_on_explore_candidates() {
        let library = Arc::new(Library::nangate45_like());
        for kind in ComponentKind::ALL {
            for width in [4, 8, 16] {
                let mut seen = HashSet::new();
                for seed in seed_candidates(kind, width) {
                    for candidate in std::iter::once(seed).chain(seed.neighbors()) {
                        if seen.insert(candidate) {
                            let fast = candidate.build_optimized(&library).unwrap();
                            let built = candidate.build(&library).unwrap();
                            assert_same(&fast, &built, &candidate.label());
                        }
                    }
                }
                assert!(seen.len() > 20, "{kind}-{width}: {} candidates", seen.len());
            }
        }
    }

    /// The canonical components of every effort's architectures at every
    /// precision, planned as `Synthesizer` plans them, against the
    /// two-pass optimizer on `build_adder`, `build_multiplier` and
    /// `build_mac`.
    #[test]
    fn direct_path_matches_two_passes_on_canonical_components() {
        let library = Arc::new(Library::nangate45_like());
        for effort in Effort::ALL {
            for width in [8, 16] {
                for precision in 1..=width {
                    let spec = ComponentSpec::new(width, precision).unwrap();
                    let components = [
                        (
                            Canonical::Adder(effort.adder_kind(), spec),
                            build_adder(&library, effort.adder_kind(), spec),
                        ),
                        (
                            Canonical::Multiplier(effort.multiplier_kind(), spec),
                            build_multiplier(&library, effort.multiplier_kind(), spec),
                        ),
                        (Canonical::Mac(spec), build_mac(&library, spec)),
                    ];
                    for (component, built) in components {
                        let fast = Planner::plan(&component, &library)
                            .unwrap()
                            .finish()
                            .unwrap();
                        assert_same(&fast, &built.unwrap(), &component.name());
                    }
                }
            }
        }
    }
}
