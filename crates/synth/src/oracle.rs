//! The full-STA sizing passes that [`crate::sizing`] replaced, kept as
//! the test oracle: every trial move re-builds the annotation and re-runs
//! STA. The incremental passes must reproduce them gate for gate and bit
//! for bit.

use crate::{RecoveryOutcome, SizingOutcome};
use aix_netlist::{Netlist, NetlistError};
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
