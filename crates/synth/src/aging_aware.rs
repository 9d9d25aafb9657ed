//! The aging-aware synthesis baseline (Amrouch et al., DAC'16).
//!
//! That work re-synthesizes a circuit against the *degradation-aware* cell
//! library so that the aged netlist still meets the original timing
//! constraint — suppressing aging at the cost of stronger (larger, leakier)
//! cells. The paper under reproduction compares its guardband-free
//! approximation flow against exactly this baseline (Fig. 8c).

use crate::sizing::size_for_performance;
use aix_aging::{AgingModel, AgingScenario};
use aix_netlist::{Netlist, NetlistError};
use aix_sta::NetDelays;

/// Result of the aging-aware synthesis baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingAwareOutcome {
    /// Aged critical-path delay before resilience sizing, in ps.
    pub aged_delay_before_ps: f64,
    /// Aged critical-path delay after resilience sizing, in ps.
    pub aged_delay_after_ps: f64,
    /// The timing constraint targeted (the fresh critical path), in ps.
    pub target_ps: f64,
    /// Whether the aged netlist meets the fresh constraint after sizing.
    pub constraint_met: bool,
    /// Number of gates upsized.
    pub upsized_gates: usize,
}

/// Re-sizes `netlist` against aged timing until the aged critical path
/// meets `target_ps` (typically the fresh critical-path delay of the
/// original design) or no sizing move helps anymore.
///
/// # Errors
///
/// Propagates STA errors (cyclic netlists).
pub fn aging_aware_synthesize(
    netlist: &mut Netlist,
    model: &AgingModel,
    scenario: AgingScenario,
    target_ps: f64,
    max_iterations: usize,
) -> Result<AgingAwareOutcome, NetlistError> {
    let _span = aix_obs::span!(
        "aging_aware",
        gates = netlist.gate_count(),
        target_ps = target_ps,
        max_iterations = max_iterations,
    );
    // Sizing times the netlist exactly, so its initial and final delays
    // are the aged critical path before and after.
    let outcome = size_for_performance(
        netlist,
        |nl: &Netlist| NetDelays::aged(nl, model, scenario),
        max_iterations,
    )?;
    Ok(AgingAwareOutcome {
        aged_delay_before_ps: outcome.initial_delay_ps,
        aged_delay_after_ps: outcome.final_delay_ps,
        target_ps,
        constraint_met: outcome.final_delay_ps <= target_ps,
        upsized_gates: outcome.upsized_gates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::Lifetime;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_sim::oracle;
    use aix_sta::analyze;
    use std::sync::Arc;

    #[test]
    fn baseline_reduces_aged_delay_at_area_cost() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let model = AgingModel::calibrated();
        let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
        let fresh_cp = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        let area_before = nl.stats().area_um2;
        let outcome = aging_aware_synthesize(&mut nl, &model, scenario, fresh_cp, 300).unwrap();
        assert!(outcome.aged_delay_after_ps < outcome.aged_delay_before_ps);
        assert!(nl.stats().area_um2 > area_before, "resilience costs area");
        assert!(outcome.upsized_gates > 0);
    }

    #[test]
    fn baseline_preserves_function() {
        use aix_netlist::{bus_from_u64, bus_to_u64};
        let lib = Arc::new(Library::nangate45_like());
        let mut nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap();
        let model = AgingModel::calibrated();
        let fresh_cp = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        aging_aware_synthesize(
            &mut nl,
            &model,
            AgingScenario::worst_case(Lifetime::YEARS_10),
            fresh_cp,
            150,
        )
        .unwrap();
        for (a, b) in [(0u64, 0u64), (255, 255), (123, 45)] {
            let mut inputs = bus_from_u64(a, 8);
            inputs.extend(bus_from_u64(b, 8));
            assert_eq!(bus_to_u64(&oracle::eval(&nl, &inputs).unwrap()), a + b);
        }
    }
}
