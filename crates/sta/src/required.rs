//! Required-time propagation and per-net slack.

use crate::{NetDelays, TimingReport};
use aix_netlist::{NetId, Netlist, NetlistError, Schedule};

/// Per-net required times and slacks against a clock constraint.
///
/// Required times propagate backwards from the primary outputs (all
/// required at the clock period); `slack = required − arrival`. Nets that
/// reach no output have infinite required time and slack.
///
/// # Examples
///
/// ```
/// use aix_arith::{build_adder, AdderKind, ComponentSpec};
/// use aix_cells::Library;
/// use aix_sta::{analyze, NetDelays, SlackReport};
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let adder = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8))?;
/// let delays = NetDelays::fresh(&adder);
/// let timing = analyze(&adder, &delays)?;
/// let slack = SlackReport::compute(&adder, &delays, &timing, timing.max_delay_ps())?;
/// assert!(slack.worst_slack_ps() >= -1e-9, "clocked at its own delay");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlackReport {
    required_ps: Vec<f64>,
    slack_ps: Vec<f64>,
}

impl SlackReport {
    /// Computes required times and slacks for `netlist` against a required
    /// time of `clock_ps` at every primary output, given the arrival times
    /// in `report`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn compute(
        netlist: &Netlist,
        delays: &NetDelays,
        report: &TimingReport,
        clock_ps: f64,
    ) -> Result<Self, NetlistError> {
        let schedule = netlist.schedule()?;
        Ok(Self::from_parts(
            netlist,
            &schedule,
            delays.as_slice(),
            report.arrivals(),
            clock_ps,
        ))
    }

    /// The backward pass over raw per-net delays and arrivals, walking
    /// `schedule` in reverse. Shared with the incremental timer. Like the
    /// forward pass, any reverse topological order gives the same bits: a
    /// net's required time is a minimum over its readers, all of which are
    /// final before its driver is visited.
    pub(crate) fn from_parts(
        netlist: &Netlist,
        schedule: &Schedule,
        delays: &[f64],
        arrivals: &[f64],
        clock_ps: f64,
    ) -> Self {
        let mut required = vec![f64::INFINITY; netlist.net_count()];
        for (_, net) in netlist.outputs() {
            required[net.index()] = required[net.index()].min(clock_ps);
        }
        for gate_id in schedule.gate_order().rev() {
            let gate = netlist.gate(gate_id);
            // Required time at the gate's inputs: the tightest output
            // requirement minus that output's arc delay.
            let input_required = gate
                .outputs
                .iter()
                .map(|n| required[n.index()] - delays[n.index()])
                .fold(f64::INFINITY, f64::min);
            for &input in &gate.inputs {
                let r = &mut required[input.index()];
                *r = r.min(input_required);
            }
        }
        let slack = required
            .iter()
            .zip(arrivals)
            .map(|(&r, &arrival)| {
                if r.is_finite() {
                    r - arrival
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Self {
            required_ps: required,
            slack_ps: slack,
        }
    }

    /// Required time at a net (infinite if it reaches no output).
    pub fn required_ps(&self, net: NetId) -> f64 {
        self.required_ps[net.index()]
    }

    /// Slack at a net.
    pub fn slack_ps(&self, net: NetId) -> f64 {
        self.slack_ps[net.index()]
    }

    /// All per-net slacks, indexed by net id.
    pub fn slacks(&self) -> &[f64] {
        &self.slack_ps
    }

    /// The worst (most negative) finite slack in the design.
    pub fn worst_slack_ps(&self) -> f64 {
        self.slack_ps
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of nets with negative slack (timing violations).
    pub fn violation_count(&self) -> usize {
        self.slack_ps.iter().filter(|&&s| s < -1e-12).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use std::sync::Arc;

    fn setup() -> (aix_netlist::Netlist, NetDelays, TimingReport) {
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(8)).unwrap();
        let delays = NetDelays::fresh(&nl);
        let report = analyze(&nl, &delays).unwrap();
        (nl, delays, report)
    }

    #[test]
    fn clocked_at_critical_path_has_zero_worst_slack() {
        let (nl, delays, report) = setup();
        let slack = SlackReport::compute(&nl, &delays, &report, report.max_delay_ps()).unwrap();
        assert!(slack.worst_slack_ps().abs() < 1e-9);
        assert_eq!(slack.violation_count(), 0);
    }

    #[test]
    fn tight_clock_creates_violations() {
        let (nl, delays, report) = setup();
        let slack =
            SlackReport::compute(&nl, &delays, &report, report.max_delay_ps() * 0.8).unwrap();
        assert!(slack.worst_slack_ps() < 0.0);
        assert!(slack.violation_count() > 0);
    }

    #[test]
    fn loose_clock_gives_uniform_headroom() {
        let (nl, delays, report) = setup();
        let margin = 100.0;
        let slack =
            SlackReport::compute(&nl, &delays, &report, report.max_delay_ps() + margin).unwrap();
        assert!((slack.worst_slack_ps() - margin).abs() < 1e-9);
    }

    #[test]
    fn arrival_plus_slack_never_exceeds_required() {
        let (nl, delays, report) = setup();
        let clock = report.max_delay_ps();
        let slack = SlackReport::compute(&nl, &delays, &report, clock).unwrap();
        for (id, _) in nl.nets() {
            let r = slack.required_ps(id);
            if r.is_finite() {
                let recomputed = report.arrivals()[id.index()] + slack.slack_ps(id);
                assert!((recomputed - r).abs() < 1e-9);
                assert!(r <= clock + 1e-9, "requirements never exceed the clock");
            }
        }
    }
}
