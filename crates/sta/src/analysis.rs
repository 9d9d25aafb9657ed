//! Arrival-time propagation and critical-path extraction.

use crate::NetDelays;
use aix_netlist::{GateId, NetDriver, NetId, Netlist, NetlistError};

/// Result of a static timing analysis.
///
/// Arrival times are measured from the primary inputs (all launched at
/// `t = 0`); the maximum over primary outputs is the component delay the
/// paper's Eq. 1 and Eq. 2 reason about.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    arrival_ps: Vec<f64>,
    max_delay_ps: f64,
    critical_output: Option<usize>,
    per_output_ps: Vec<f64>,
}

impl TimingReport {
    /// Arrival time of net `net`, in picoseconds.
    pub fn arrival_ps(&self, net: NetId) -> f64 {
        self.arrival_ps[net.index()]
    }

    /// All per-net arrival times, indexed by net id.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrival_ps
    }

    /// The component's maximum (critical-path) delay in picoseconds.
    pub fn max_delay_ps(&self) -> f64 {
        self.max_delay_ps
    }

    /// Index (into the netlist's output ports) of the latest-arriving
    /// output.
    pub fn critical_output(&self) -> Option<usize> {
        self.critical_output
    }

    /// Arrival time of each primary output, in port order.
    pub fn per_output_ps(&self) -> &[f64] {
        &self.per_output_ps
    }
}

/// Runs STA: propagates arrival times in topological order and records the
/// critical (maximum) delay over all primary outputs.
///
/// The walk follows the netlist's cached levelized
/// [`Schedule`](aix_netlist::Schedule). Any topological order gives the same
/// arrivals bit for bit: a gate's arrival depends only on its own inputs,
/// whose arrivals are final before the gate is visited.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn analyze(netlist: &Netlist, delays: &NetDelays) -> Result<TimingReport, NetlistError> {
    let schedule = netlist.schedule()?;
    let mut arrival = vec![0.0f64; netlist.net_count()];
    for gate_id in schedule.gate_order() {
        retime_gate(netlist, gate_id, delays.as_slice(), &mut arrival);
    }
    Ok(TimingReport::from_arrivals(netlist, arrival))
}

/// Sets the arrival of each output of `gate_id`: the latest input arrival
/// plus the output's arc delay. Returns whether any output arrival changed
/// (bitwise). Shared by [`analyze`] and the incremental timer so both do
/// the same arithmetic.
pub(crate) fn retime_gate(
    netlist: &Netlist,
    gate_id: GateId,
    delays: &[f64],
    arrival: &mut [f64],
) -> bool {
    let gate = netlist.gate(gate_id);
    let input_arrival = gate
        .inputs
        .iter()
        .map(|n| arrival[n.index()])
        .fold(0.0f64, f64::max);
    let mut changed = false;
    for &out in &gate.outputs {
        let t = input_arrival + delays[out.index()];
        changed |= t.to_bits() != arrival[out.index()].to_bits();
        arrival[out.index()] = t;
    }
    changed
}

/// The latest-arriving primary output and its arrival time.
///
/// Seeded with the first output so a netlist whose outputs all arrive at
/// exactly 0 ps (pass-through or constant outputs) still reports a
/// critical output; ties keep the earliest port. An outputless netlist
/// reports `None` and a 0 ps delay.
pub(crate) fn latest_output(netlist: &Netlist, arrival: &[f64]) -> (Option<usize>, f64) {
    netlist
        .outputs()
        .iter()
        .enumerate()
        .fold((None, 0.0f64), |(best, max), (i, (_, net))| {
            let t = arrival[net.index()];
            if best.is_none() || t > max {
                (Some(i), t)
            } else {
                (best, max)
            }
        })
}

impl TimingReport {
    fn from_arrivals(netlist: &Netlist, arrival: Vec<f64>) -> Self {
        let per_output = netlist
            .outputs()
            .iter()
            .map(|(_, net)| arrival[net.index()])
            .collect();
        let (critical_output, max_delay) = latest_output(netlist, &arrival);
        Self {
            arrival_ps: arrival,
            max_delay_ps: max_delay,
            critical_output,
            per_output_ps: per_output,
        }
    }
}

/// Extracts the gates along the critical path, inputs first.
///
/// Walks back from the latest-arriving output through, at every gate, the
/// input whose arrival time dominates.
pub fn critical_path(netlist: &Netlist, report: &TimingReport) -> Vec<GateId> {
    walk_critical_path(netlist, &report.arrival_ps, report.critical_output)
}

/// The walk behind [`critical_path`], over raw arrivals so the
/// incremental timer shares it.
pub(crate) fn walk_critical_path(
    netlist: &Netlist,
    arrival: &[f64],
    critical_output: Option<usize>,
) -> Vec<GateId> {
    let Some(out_idx) = critical_output else {
        return Vec::new();
    };
    let mut path = Vec::new();
    let mut net = netlist.outputs()[out_idx].1;
    while let NetDriver::Gate { gate, .. } = netlist.net(net).driver {
        path.push(gate);
        let g = netlist.gate(gate);
        let Some(&next) = g.inputs.iter().max_by(|a, b| {
            arrival[a.index()]
                .partial_cmp(&arrival[b.index()])
                .expect("arrival times are finite")
        }) else {
            break;
        };
        net = next;
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StressSource;
    use aix_aging::{AgingModel, AgingScenario, Lifetime, StressPair};
    use aix_arith::{build_adder, build_multiplier, AdderKind, ComponentSpec, MultiplierKind};
    use aix_cells::{CellFunction, DriveStrength, Library};
    use std::sync::Arc;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    #[test]
    fn chain_delay_is_sum_of_gate_delays() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = aix_netlist::Netlist::new("chain", lib.clone());
        let a = nl.add_input("a");
        let mut prev = a;
        for _ in 0..5 {
            prev = nl.add_gate(inv, &[prev]).unwrap()[0];
        }
        nl.mark_output("y", prev);
        let delays = NetDelays::fresh(&nl);
        let report = analyze(&nl, &delays).unwrap();
        let expect: f64 = nl
            .nets()
            .filter(|(_, n)| matches!(n.driver, aix_netlist::NetDriver::Gate { .. }))
            .map(|(id, _)| delays.of(id.index()))
            .sum();
        assert!((report.max_delay_ps() - expect).abs() < 1e-9);
    }

    #[test]
    fn brute_force_longest_path_matches() {
        // Exhaustive DFS longest path on a small adder must equal STA.
        let lib = lib();
        let nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(4)).unwrap();
        let delays = NetDelays::fresh(&nl);
        let report = analyze(&nl, &delays).unwrap();

        fn longest(nl: &aix_netlist::Netlist, delays: &NetDelays, net: aix_netlist::NetId) -> f64 {
            match nl.net(net).driver {
                aix_netlist::NetDriver::Gate { gate, .. } => {
                    let g = nl.gate(gate);
                    let input_max = g
                        .inputs
                        .iter()
                        .map(|&i| longest(nl, delays, i))
                        .fold(0.0f64, f64::max);
                    input_max + delays.of(net.index())
                }
                _ => 0.0,
            }
        }
        let brute = nl
            .outputs()
            .iter()
            .map(|(_, net)| longest(&nl, &delays, *net))
            .fold(0.0f64, f64::max);
        assert!((report.max_delay_ps() - brute).abs() < 1e-9);
    }

    #[test]
    fn zero_delay_outputs_still_report_a_critical_output() {
        // Regression: a pass-through netlist (outputs arriving at exactly
        // 0 ps) used to report `critical_output = None`.
        let lib = lib();
        let mut nl = aix_netlist::Netlist::new("passthrough", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.mark_output("y0", a);
        nl.mark_output("y1", b);
        let delays = NetDelays::fresh(&nl);
        let report = analyze(&nl, &delays).unwrap();
        assert_eq!(report.max_delay_ps(), 0.0);
        assert_eq!(
            report.critical_output(),
            Some(0),
            "ties keep the first port"
        );
        // No gates on the path, but the output itself is identified.
        assert!(critical_path(&nl, &report).is_empty());
    }

    #[test]
    fn aging_increases_critical_path_uniformly() {
        let lib = lib();
        let nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let model = AgingModel::calibrated();
        let fresh = analyze(&nl, &NetDelays::fresh(&nl)).unwrap();
        let aged = analyze(
            &nl,
            &NetDelays::aged(&nl, &model, AgingScenario::worst_case(Lifetime::YEARS_10)),
        )
        .unwrap();
        let ratio = aged.max_delay_ps() / fresh.max_delay_ps();
        assert!(ratio > 1.13 && ratio < 1.25, "ratio {ratio}");
    }

    #[test]
    fn truncation_shortens_critical_path_after_optimization_is_not_required() {
        // Even without dead-logic removal, tying LSBs to constants cannot
        // lengthen the measured critical path.
        let lib = lib();
        let full = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(16)).unwrap();
        let cut = build_adder(
            &lib,
            AdderKind::RippleCarry,
            ComponentSpec::new(16, 8).unwrap(),
        )
        .unwrap();
        let d_full = analyze(&full, &NetDelays::fresh(&full)).unwrap();
        let d_cut = analyze(&cut, &NetDelays::fresh(&cut)).unwrap();
        assert!(d_cut.max_delay_ps() <= d_full.max_delay_ps() + 1e-9);
    }

    #[test]
    fn critical_path_is_connected_and_ends_at_output() {
        let lib = lib();
        let nl = build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(8)).unwrap();
        let delays = NetDelays::fresh(&nl);
        let report = analyze(&nl, &delays).unwrap();
        let path = critical_path(&nl, &report);
        assert!(!path.is_empty());
        // Each consecutive pair must be connected.
        for pair in path.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            let next_gate = nl.gate(next);
            let connected = next_gate.inputs.iter().any(|&inp| {
                matches!(nl.net(inp).driver,
                    aix_netlist::NetDriver::Gate { gate, .. } if gate == prev)
            });
            assert!(connected, "gates {prev} -> {next} not connected");
        }
        // Last gate drives the critical output.
        let out_net = nl.outputs()[report.critical_output().unwrap()].1;
        assert!(matches!(
            nl.net(out_net).driver,
            aix_netlist::NetDriver::Gate { gate, .. } if gate == *path.last().unwrap()
        ));
    }

    #[test]
    fn architectures_rank_as_expected() {
        let lib = lib();
        let spec = ComponentSpec::full(32);
        let delay = |kind| {
            let nl = build_adder(&lib, kind, spec).unwrap();
            analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps()
        };
        let rca = delay(AdderKind::RippleCarry);
        let csel = delay(AdderKind::CarrySelect);
        let ks = delay(AdderKind::KoggeStone);
        assert!(
            ks < csel,
            "Kogge-Stone {ks} should beat carry-select {csel}"
        );
        assert!(csel < rca, "carry-select {csel} should beat ripple {rca}");
    }

    #[test]
    fn per_gate_stress_moves_critical_path() {
        // Age only the gates on the fresh critical path heavily; the
        // reported delay must grow at least as much as a uniform balanced
        // condition on those gates would imply.
        let lib = lib();
        let nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap();
        let model = AgingModel::calibrated();
        let fresh_delays = NetDelays::fresh(&nl);
        let fresh = analyze(&nl, &fresh_delays).unwrap();
        let path = critical_path(&nl, &fresh);
        let mut pairs = vec![StressPair::default(); nl.gate_count()];
        for g in &path {
            pairs[g.index()] = StressPair::WORST;
        }
        let aged = analyze(
            &nl,
            &NetDelays::aged_with_stress(
                &nl,
                &model,
                &StressSource::PerGate(pairs),
                Lifetime::YEARS_10,
            ),
        )
        .unwrap();
        assert!(aged.max_delay_ps() > fresh.max_delay_ps() * 1.1);
    }
}
