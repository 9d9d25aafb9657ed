//! Scalar reference implementations of the simulation consumers.
//!
//! Every function here walks the netlist one stimulus vector at a time
//! through the scalar [`Evaluator`] or [`TimedSimulator`]. None has a
//! production caller: the crate's public entry points
//! ([`measure_errors`](crate::measure_errors),
//! [`Activity::collect`](crate::Activity::collect),
//! [`reference_outputs`](crate::reference_outputs)) run only the packed
//! engines, and this module is built only for tests (`cfg(test)` or the
//! `oracle` feature). These loops exist so the differential suites and
//! the throughput tests have an independent, obviously-correct answer to
//! compare the packed engines against, bit for bit.
//! [`timed_activity`] has no packed twin: glitch-aware activity needs
//! every transition, and only the scalar engine records them.

use crate::errors::new_stats;
use crate::golden::golden_word;
use crate::ticks::clock_ticks;
use crate::{Activity, ErrorStats, Evaluator, TimedSimulator};
use aix_netlist::{Netlist, NetlistError};
use aix_sta::NetDelays;

/// The zero-delay outputs of one input vector, in port order: the
/// one-shot form of [`Evaluator::eval`].
///
/// # Errors
///
/// Propagates evaluator errors (cyclic netlist, width mismatch).
pub fn eval(netlist: &Netlist, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
    Ok(Evaluator::new(netlist)?.eval(inputs)?.to_vec())
}

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

/// Scalar reference for [`reference_outputs`](crate::reference_outputs):
/// the zero-delay outputs of every stimulus vector.
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
