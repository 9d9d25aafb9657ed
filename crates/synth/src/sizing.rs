//! Timing-driven drive-strength sizing.

use aix_netlist::{Netlist, NetlistError};
use aix_obs::names::synth as names;
use aix_sta::{IncrementalTimer, NetDelays};

/// Result of a sizing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingOutcome {
    /// Critical-path delay before sizing, in ps.
    pub initial_delay_ps: f64,
    /// Critical-path delay after sizing, in ps.
    pub final_delay_ps: f64,
    /// Number of gates whose drive strength was increased.
    pub upsized_gates: usize,
    /// Number of sizing iterations executed.
    pub iterations: usize,
}

impl SizingOutcome {
    /// Fractional delay improvement achieved.
    pub fn improvement(&self) -> f64 {
        1.0 - self.final_delay_ps / self.initial_delay_ps
    }
}

/// Greedily upsizes gates on the (fresh) critical path until no move
/// improves the critical-path delay.
///
/// This models the timing-driven optimization of a high-effort synthesis
/// run. A side effect — important for the paper's motivational study — is
/// the *slack wall*: once the longest paths have been squeezed, many paths
/// end up within a few percent of the critical delay, so aging-induced
/// violations are actually exercised by real stimuli.
///
/// `delay_fn` produces the delay annotation to optimize against (fresh for
/// ordinary synthesis, aged for the aging-aware baseline).
///
/// # Errors
///
/// Propagates STA errors (cyclic netlists), and
/// [`NetlistError::NotRetimeable`] when `delay_fn` returns an annotation
/// the incremental timer cannot re-time: only `NetDelays::fresh`, `aged`
/// and `aged_with_stress` can be. `delay_fn` is called once; every move
/// after that is timed incrementally, bit-identical to re-running it.
pub fn size_for_performance(
    netlist: &mut Netlist,
    delay_fn: impl Fn(&Netlist) -> NetDelays,
    max_iterations: usize,
) -> Result<SizingOutcome, NetlistError> {
    let _span = aix_obs::span!(
        names::SPAN_SIZING,
        gates = netlist.gate_count(),
        max_iterations = max_iterations,
    );
    let delays = delay_fn(netlist);
    let mut timer = IncrementalTimer::new(netlist, delays)?;
    let initial = timer.max_delay_ps();
    let mut current = initial;
    let mut upsized = 0usize;
    let mut iterations = 0usize;
    let mut rollbacks = 0usize;
    // Gates proven unhelpful to upsize (reverted moves).
    let mut locked = vec![false; timer.netlist().gate_count()];
    while iterations < max_iterations {
        iterations += 1;
        let netlist = timer.netlist();
        // Candidate: the path gate with the largest arc delay that can
        // still be upsized and is not locked.
        let mut candidate = None;
        let mut worst = 0.0f64;
        for gate_id in timer.critical_path() {
            if locked[gate_id.index()] {
                continue;
            }
            let gate = netlist.gate(gate_id);
            let arc: f64 = gate
                .outputs
                .iter()
                .map(|n| timer.delays()[n.index()])
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
        timer.set_cell(gate_id, new_cell);
        let new_delay = timer.max_delay_ps();
        if new_delay < current - 1e-9 {
            current = new_delay;
            upsized += 1;
        } else {
            // Revert: upsizing here hurt (input capacitance outweighed
            // drive) or did not help.
            timer.set_cell(gate_id, old_cell);
            locked[gate_id.index()] = true;
            rollbacks += 1;
        }
    }
    record_pass("sizing", upsized + rollbacks, upsized, rollbacks, &timer);
    Ok(SizingOutcome {
        initial_delay_ps: initial,
        final_delay_ps: current,
        upsized_gates: upsized,
        iterations,
    })
}

/// Emits a pass's tallies as `count_by` events (one relaxed load when no
/// recorder is installed).
fn record_pass(
    pass: &str,
    tried: usize,
    accepted: usize,
    rollbacks: usize,
    timer: &IncrementalTimer<'_>,
) {
    aix_obs::count_by!(names::MOVES_TRIED, tried, pass = pass);
    aix_obs::count_by!(names::MOVES_ACCEPTED, accepted, pass = pass);
    aix_obs::count_by!(names::ROLLBACKS, rollbacks, pass = pass);
    aix_obs::count_by!(names::GATES_RETIMED, timer.gates_retimed(), pass = pass);
}

/// Result of an area-recovery run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// Gates downsized.
    pub downsized_gates: usize,
    /// Area before recovery, in µm².
    pub area_before_um2: f64,
    /// Area after recovery, in µm².
    pub area_after_um2: f64,
    /// Critical-path delay after recovery, in ps (never exceeds the target).
    pub final_delay_ps: f64,
}

/// Downsizes gates with positive timing slack until every path sits close
/// to `target_ps` — commercial synthesis' *area recovery*, and the origin
/// of the "slack wall" in timing-closed netlists: after recovery, the
/// delays actually exercised by data hug the constraint, which is why
/// removing the aging guardband immediately produces errors (paper §II).
///
/// The pass runs in rounds: each round computes per-net slack against
/// `target_ps`, downsizes every gate whose arc slack safely covers the
/// delay increase, then verifies the critical path; a round that overshoots
/// is rolled back gate-by-gate.
///
/// # Errors
///
/// As for [`size_for_performance`].
pub fn recover_area(
    netlist: &mut Netlist,
    delay_fn: impl Fn(&Netlist) -> NetDelays,
    target_ps: f64,
    max_rounds: usize,
) -> Result<RecoveryOutcome, NetlistError> {
    let _span = aix_obs::span!(
        names::SPAN_AREA_RECOVERY,
        gates = netlist.gate_count(),
        target_ps = target_ps,
        max_rounds = max_rounds,
    );
    let area_before = netlist.stats().area_um2;
    let delays = delay_fn(netlist);
    let mut timer = IncrementalTimer::new(netlist, delays)?;
    let (mut downsized, mut tried, mut rollbacks) = (0usize, 0usize, 0usize);
    for _ in 0..max_rounds {
        if timer.max_delay_ps() > target_ps {
            break;
        }
        let slack = timer.slack_report(target_ps);
        let netlist = timer.netlist();
        let loads = timer.loads();
        // Candidate gates: every output arc has enough slack to absorb a
        // conservative estimate of the downsizing penalty.
        let mut moved = Vec::new();
        for (gate_id, gate) in netlist.gates() {
            let Some(weaker) = netlist.library().downsize(gate.cell) else {
                continue;
            };
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
        tried += moved.len();
        timer.set_cells(moved.iter().map(|&(gate_id, _, weaker)| (gate_id, weaker)));
        // Roll back overshoots one gate at a time (rare thanks to the
        // safety factor).
        while timer.max_delay_ps() > target_ps {
            let Some((gate_id, original, _)) = moved.pop() else {
                break;
            };
            timer.set_cell(gate_id, original);
            rollbacks += 1;
        }
        downsized += moved.len();
        if moved.is_empty() {
            break;
        }
    }
    record_pass("area_recovery", tried, downsized, rollbacks, &timer);
    let final_delay = timer.max_delay_ps();
    Ok(RecoveryOutcome {
        downsized_gates: downsized,
        area_before_um2: area_before,
        area_after_um2: timer.netlist().stats().area_um2,
        final_delay_ps: final_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sim::oracle;
    use aix_sta::analyze;
    use std::sync::Arc;

    #[test]
    fn sizing_improves_critical_path() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let outcome = size_for_performance(&mut nl, NetDelays::fresh, 200).unwrap();
        assert!(outcome.final_delay_ps <= outcome.initial_delay_ps);
        assert!(
            outcome.improvement() > 0.02,
            "expected some improvement, got {:.4}",
            outcome.improvement()
        );
        assert!(outcome.upsized_gates > 0);
    }

    #[test]
    fn sizing_preserves_function() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(12)).unwrap();
        size_for_performance(&mut nl, NetDelays::fresh, 100).unwrap();
        nl.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = u64::from(rng.gen::<u16>() & 0xFFF);
            let b = u64::from(rng.gen::<u16>() & 0xFFF);
            let mut inputs = bus_from_u64(a, 12);
            inputs.extend(bus_from_u64(b, 12));
            assert_eq!(bus_to_u64(&oracle::eval(&nl, &inputs).unwrap()), a + b);
        }
    }

    #[test]
    fn sizing_grows_area() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let before = nl.stats().area_um2;
        size_for_performance(&mut nl, NetDelays::fresh, 200).unwrap();
        assert!(nl.stats().area_um2 > before, "faster costs area");
    }

    #[test]
    fn area_recovery_shrinks_area_and_meets_target() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(16)).unwrap();
        size_for_performance(&mut nl, NetDelays::fresh, 200).unwrap();
        let target = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        let outcome = recover_area(&mut nl, NetDelays::fresh, target, 20).unwrap();
        assert!(outcome.downsized_gates > 0, "short paths must downsize");
        assert!(outcome.area_after_um2 < outcome.area_before_um2);
        assert!(outcome.final_delay_ps <= target + 1e-9);
    }

    #[test]
    fn area_recovery_preserves_function() {
        use aix_netlist::{bus_from_u64, bus_to_u64};
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(12)).unwrap();
        let target = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        recover_area(&mut nl, NetDelays::fresh, target, 20).unwrap();
        for (a, b) in [(0u64, 0u64), (4095, 1), (1234, 2345)] {
            let mut inputs = bus_from_u64(a, 12);
            inputs.extend(bus_from_u64(b, 12));
            assert_eq!(bus_to_u64(&oracle::eval(&nl, &inputs).unwrap()), a + b);
        }
    }

    #[test]
    fn zero_iterations_is_identity() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap();
        let before = nl.clone();
        let outcome = size_for_performance(&mut nl, NetDelays::fresh, 0).unwrap();
        assert_eq!(outcome.upsized_gates, 0);
        assert_eq!(outcome.initial_delay_ps, outcome.final_delay_ps);
        assert_eq!(before.gate_count(), nl.gate_count());
    }
}
