//! Scalar reference implementations of the simulation consumers.
//!
//! Every function here walks the netlist one stimulus vector at a time
//! through the scalar [`Evaluator`] or [`TimedSimulator`]. None has a
//! production caller: the crate's public entry points
//! ([`measure_errors`](crate::measure_errors),
//! [`Activity::collect`](crate::Activity::collect),
//! [`simulate_faults`](crate::simulate_faults),
//! [`reference_outputs`](crate::reference_outputs)) run only the packed
//! engines, and this module is built only for tests (`cfg(test)` or the
//! `oracle` feature). These loops exist so the differential suites and
//! the throughput tests have an independent, obviously-correct answer to
//! compare the packed engines against, bit for bit.
//! [`timed_activity`] has no packed twin: glitch-aware activity needs
//! every transition, and only the scalar engine records them.

use crate::errors::new_stats;
use crate::faults::{FaultCoverage, StuckAtFault};
use crate::golden::golden_word;
use crate::ticks::clock_ticks;
use crate::{Activity, ErrorStats, TimedSimulator};
use aix_netlist::{Evaluator, NetDriver, Netlist, NetlistError};
use aix_sta::NetDelays;

/// Scalar reference for [`measure_errors`](crate::measure_errors): one
/// timed step per vector.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidClock`] for a NaN or negative
/// `clock_ps`, even without stimuli; propagates simulator construction
/// and width errors.
pub fn measure_errors<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    stimuli: I,
) -> Result<ErrorStats, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    clock_ticks(clock_ps)?;
    let mut sim = TimedSimulator::new(netlist, delays)?;
    let (mut stats, mut total_abs_error) = new_stats();
    for vector in stimuli {
        let outcome = sim.step(&vector, clock_ps)?;
        stats.vectors += 1;
        if outcome.timing_error {
            stats.erroneous += 1;
            stats.wrong_bits += outcome
                .sampled
                .iter()
                .zip(&outcome.settled)
                .filter(|(s, g)| s != g)
                .count() as u64;
            let err = golden_word(&outcome.sampled).abs_diff(golden_word(&outcome.settled));
            total_abs_error += err as f64;
            stats.max_abs_error = stats.max_abs_error.max(err);
        }
    }
    if stats.vectors > 0 {
        stats.mean_abs_error = total_abs_error / stats.vectors as f64;
    }
    Ok(stats)
}

/// Scalar reference for [`Activity::collect`]: one zero-delay evaluation
/// per vector.
///
/// # Errors
///
/// Propagates evaluator errors (cyclic netlist, width mismatch).
pub fn activity<I>(netlist: &Netlist, stimuli: I) -> Result<Activity, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    let mut evaluator = Evaluator::new(netlist)?;
    let mut ones = vec![0u64; netlist.net_count()];
    let mut toggles = vec![0u64; netlist.net_count()];
    let mut previous: Option<Vec<bool>> = None;
    let mut vectors = 0u64;
    for vector in stimuli {
        evaluator.eval(&vector)?;
        let values = evaluator.net_values();
        for (i, &v) in values.iter().enumerate() {
            if v {
                ones[i] += 1;
            }
            if let Some(prev) = &previous {
                if prev[i] != v {
                    toggles[i] += 1;
                }
            }
        }
        match &mut previous {
            Some(prev) => prev.copy_from_slice(values),
            None => previous = Some(values.to_vec()),
        }
        vectors += 1;
    }
    Ok(Activity::from_parts(ones, toggles, vectors))
}

/// Glitch-aware activity: signal probabilities from the settled values
/// and toggle counts from every transition of the timed engine, hazards
/// included, one timed step per vector.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn timed_activity<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    stimuli: I,
) -> Result<Activity, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    let mut sim = TimedSimulator::new(netlist, delays)?;
    // A zero-delay evaluator supplies the settled per-net values for the
    // ones statistics; the timed simulator supplies true transition counts.
    let mut evaluator = Evaluator::new(netlist)?;
    let mut ones = vec![0u64; netlist.net_count()];
    let mut vectors = 0u64;
    for vector in stimuli {
        // A generous clock: only settled values and real transition counts
        // matter here, not sampling errors.
        sim.step(&vector, f64::MAX / 4.0)?;
        evaluator.eval(&vector)?;
        for (one, &value) in ones.iter_mut().zip(evaluator.net_values()) {
            *one += u64::from(value);
        }
        vectors += 1;
    }
    Ok(Activity::from_parts(
        ones,
        sim.transition_counts().to_vec(),
        vectors,
    ))
}

/// Scalar reference for [`simulate_faults`](crate::simulate_faults):
/// serial single-fault simulation, one vector per netlist walk.
///
/// # Errors
///
/// Propagates evaluator errors (cyclic netlist, width mismatch).
pub fn simulate_faults(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    stimuli: &[Vec<bool>],
) -> Result<FaultCoverage, NetlistError> {
    let references = reference_outputs(netlist, stimuli)?;
    let order = netlist.topological_order()?;
    let mut detected = Vec::new();
    let mut undetected = Vec::new();
    for &fault in faults {
        let mut caught = false;
        for (vector, reference) in stimuli.iter().zip(&references) {
            let response = eval_with_fault(netlist, &order, vector, fault);
            if &response != reference {
                caught = true;
                break;
            }
        }
        if caught {
            detected.push(fault);
        } else {
            undetected.push(fault);
        }
    }
    Ok(FaultCoverage {
        detected,
        undetected,
        vectors: stimuli.len(),
    })
}

/// Scalar reference for [`reference_outputs`](crate::reference_outputs):
/// the fault-free zero-delay outputs of every stimulus vector.
///
/// # Errors
///
/// Propagates evaluator errors (cyclic netlist, width mismatch).
pub fn reference_outputs(
    netlist: &Netlist,
    stimuli: &[Vec<bool>],
) -> Result<Vec<Vec<bool>>, NetlistError> {
    let mut evaluator = Evaluator::new(netlist)?;
    stimuli
        .iter()
        .map(|vector| Ok(evaluator.eval(vector)?.to_vec()))
        .collect()
}

/// Evaluates one vector with the fault folded in: a serial fault
/// simulation pass over the precomputed topological order, forcing the
/// faulty net's value wherever it would be driven.
fn eval_with_fault(
    netlist: &Netlist,
    order: &[aix_netlist::GateId],
    vector: &[bool],
    fault: StuckAtFault,
) -> Vec<bool> {
    let mut values = vec![false; netlist.net_count()];
    for (id, net) in netlist.nets() {
        if let NetDriver::Constant(v) = net.driver {
            values[id.index()] = v;
        }
    }
    for (&input, &value) in netlist.inputs().iter().zip(vector) {
        values[input.index()] = value;
    }
    values[fault.net.index()] = fault.value;
    let mut in_buf = [false; aix_cells::MAX_INPUTS];
    let mut out_buf = [false; aix_cells::MAX_OUTPUTS];
    for &gate_id in order {
        let gate = netlist.gate(gate_id);
        let function = netlist.library().cell(gate.cell).function;
        for (slot, &net) in in_buf.iter_mut().zip(&gate.inputs) {
            *slot = values[net.index()];
        }
        function.eval(&in_buf[..gate.inputs.len()], &mut out_buf);
        for (pin, &net) in gate.outputs.iter().enumerate() {
            values[net.index()] = if net == fault.net {
                fault.value
            } else {
                out_buf[pin]
            };
        }
    }
    netlist
        .outputs()
        .iter()
        .map(|(_, n)| values[n.index()])
        .collect()
}
