//! Hot-carrier injection (HCI): the activity-driven second aging mechanism.
//!
//! BTI stress depends on *duty cycle* (how long inputs sit at a level);
//! HCI damage accrues on *transitions*, when carriers are accelerated
//! through the channel. The paper focuses on BTI; HCI is the standard
//! companion mechanism and slots naturally into this workspace because the
//! actual-case flow already extracts per-net toggle rates.

use crate::{AlphaPowerLaw, BtiModel, DeltaVth, Lifetime, StressPair};

/// Empirical HCI threshold-shift model:
/// `ΔVth = b · α^m · t^n`, with `α` the toggle rate (transitions per
/// cycle) and `t` the lifetime.
///
/// # Examples
///
/// ```
/// use aix_aging::{HciModel, Lifetime};
///
/// let hci = HciModel::calibrated();
/// let busy = hci.delta_vth(1.0, Lifetime::YEARS_10);
/// let idle = hci.delta_vth(0.0, Lifetime::YEARS_10);
/// assert!(busy.volts() > 0.0);
/// assert_eq!(idle.volts(), 0.0, "no switching, no hot carriers");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HciModel {
    /// Prefactor `b` in volts: the shift after one year at one transition
    /// per cycle.
    pub b: f64,
    /// Time exponent `n` (≈ 0.5 for HCI, faster than BTI's ≈ 1/6).
    pub time_exponent: f64,
    /// Activity exponent `m`.
    pub activity_exponent: f64,
}

impl HciModel {
    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or not finite.
    pub fn new(b: f64, time_exponent: f64, activity_exponent: f64) -> Self {
        for (name, v) in [
            ("b", b),
            ("time_exponent", time_exponent),
            ("activity_exponent", activity_exponent),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "HCI parameter {name} invalid: {v}"
            );
        }
        Self {
            b,
            time_exponent,
            activity_exponent,
        }
    }

    /// A calibration in which a continuously toggling gate accrues roughly
    /// one fifth of the worst-case BTI shift over ten years — HCI as a
    /// secondary but non-negligible mechanism.
    pub fn calibrated() -> Self {
        // ΔVth(10y, α=1) ≈ 10 mV  ⇒  b = 0.010 / 10^0.5.
        Self::new(0.010 / 10f64.powf(0.5), 0.5, 1.0)
    }

    /// Threshold shift for a transistor toggling `toggle_rate` times per
    /// cycle after `lifetime`.
    pub fn delta_vth(&self, toggle_rate: f64, lifetime: Lifetime) -> DeltaVth {
        let rate = toggle_rate.max(0.0);
        if lifetime.is_fresh() || rate == 0.0 {
            return DeltaVth::ZERO;
        }
        DeltaVth::from_volts(
            self.b * rate.powf(self.activity_exponent) * lifetime.years().powf(self.time_exponent),
        )
    }
}

impl Default for HciModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// BTI and HCI combined under one delay law: the threshold shifts add, and
/// the alpha-power law converts the sum into a delay factor.
///
/// # Examples
///
/// ```
/// use aix_aging::{CombinedAgingModel, Lifetime, StressPair};
///
/// let model = CombinedAgingModel::calibrated();
/// let bti_only = model.delay_factor(StressPair::WORST, 0.0, Lifetime::YEARS_10);
/// let both = model.delay_factor(StressPair::WORST, 1.0, Lifetime::YEARS_10);
/// assert!(both > bti_only, "switching activity adds HCI damage");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedAgingModel {
    bti: BtiModel,
    hci: HciModel,
    law: AlphaPowerLaw,
}

impl CombinedAgingModel {
    /// Combines explicit models.
    pub fn new(bti: BtiModel, hci: HciModel, law: AlphaPowerLaw) -> Self {
        Self { bti, hci, law }
    }

    /// The workspace-default calibration of both mechanisms.
    pub fn calibrated() -> Self {
        Self::new(
            BtiModel::calibrated(),
            HciModel::calibrated(),
            AlphaPowerLaw::nominal_45nm(),
        )
    }

    /// The HCI component.
    pub fn hci(&self) -> &HciModel {
        &self.hci
    }

    /// Delay factor for a gate whose networks carry `stress` duty cycles
    /// and whose output toggles `toggle_rate` times per cycle.
    pub fn delay_factor(&self, stress: StressPair, toggle_rate: f64, lifetime: Lifetime) -> f64 {
        let hci_shift = self.hci.delta_vth(toggle_rate, lifetime).volts();
        let factor_for = |s| {
            let bti_shift = self.bti.delta_vth(s, lifetime).volts();
            self.law
                .degradation_factor(DeltaVth::from_volts(bti_shift + hci_shift))
        };
        0.5 * (factor_for(stress.pmos) + factor_for(stress.nmos))
    }
}

impl Default for CombinedAgingModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgingModel, StressFactor};

    #[test]
    fn hci_monotone_in_activity_and_time() {
        let hci = HciModel::calibrated();
        let mut last = -1.0;
        for rate in [0.0, 0.1, 0.5, 1.0, 2.0] {
            let v = hci.delta_vth(rate, Lifetime::YEARS_10).volts();
            assert!(v >= last);
            last = v;
        }
        assert!(
            hci.delta_vth(1.0, Lifetime::YEARS_10).volts()
                > hci.delta_vth(1.0, Lifetime::YEARS_1).volts()
        );
    }

    #[test]
    fn zero_activity_reduces_to_pure_bti() {
        let combined = CombinedAgingModel::calibrated();
        let bti_only = AgingModel::calibrated();
        for s in [
            StressFactor::RECOVERY,
            StressFactor::BALANCED,
            StressFactor::WORST,
        ] {
            let pair = StressPair::uniform(s);
            let a = combined.delay_factor(pair, 0.0, Lifetime::YEARS_10);
            let b = bti_only.pair_delay_factor(pair, Lifetime::YEARS_10);
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn hci_is_secondary_to_worst_case_bti() {
        let combined = CombinedAgingModel::calibrated();
        let bti_part = combined.delay_factor(StressPair::WORST, 0.0, Lifetime::YEARS_10) - 1.0;
        let idle_pair = StressPair::uniform(StressFactor::RECOVERY);
        let hci_part = combined.delay_factor(idle_pair, 1.0, Lifetime::YEARS_10) - 1.0;
        assert!(hci_part > 0.0);
        assert!(
            hci_part < bti_part / 2.0,
            "HCI ({hci_part}) stays secondary to BTI ({bti_part})"
        );
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn rejects_negative_parameters() {
        let _ = HciModel::new(-1.0, 0.5, 1.0);
    }
}
