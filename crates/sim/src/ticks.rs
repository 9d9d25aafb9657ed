//! The integer femtosecond tick grid every timed computation lives on.
//!
//! Delay annotations and the clock period are rounded to the nearest tick
//! on entry ([`TICKS_PER_PS`] ticks per picosecond), so two arrivals that
//! are arithmetically simultaneous always compare equal — accumulated
//! `f64` sums reached via different gate paths cannot fragment one instant
//! into several. The sampling program behind [`crate::measure_errors`] and
//! [`crate::TimedStreams`] and the scalar reference engine of the tests
//! share this grid, which is what makes lane-exact differential testing
//! possible.

use aix_netlist::{NetId, NetlistError};
use aix_sta::NetDelays;

/// Number of simulation ticks per picosecond: the tick quantum is one
/// femtosecond. Sub-femtosecond structure in a delay annotation is rounded
/// away when a timed simulation is compiled.
pub const TICKS_PER_PS: u64 = 1000;

/// Quantizes a picosecond instant to the integer tick grid (nearest tick).
///
/// The conversion is total: `NaN` and negative values map to tick 0 and
/// values beyond the grid saturate to `u64::MAX` (Rust float→int casts
/// saturate), so an "effectively infinite" clock like `f64::MAX / 4.0`
/// or `+∞` simply never samples. Timed entry points reject NaN and
/// negative clock periods before converting them, and NaN, negative or
/// non-finite delay annotations.
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
/// net. Shared by the sampling program and the scalar reference engine so
/// both reject the same inputs and agree on every event time.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
