//! Reaction–diffusion BTI model of the threshold-voltage shift.

use crate::{Lifetime, StressFactor};
use std::fmt;

/// A threshold-voltage shift in volts, always non-negative.
///
/// # Examples
///
/// ```
/// use aix_aging::DeltaVth;
///
/// let dvth = DeltaVth::from_volts(0.05);
/// assert_eq!(dvth.millivolts(), 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DeltaVth(f64);

impl DeltaVth {
    /// No shift at all: a fresh transistor.
    pub const ZERO: DeltaVth = DeltaVth(0.0);

    /// Creates a shift of `volts` volts.
    ///
    /// # Panics
    ///
    /// Panics if `volts` is negative or not finite — BTI only ever increases
    /// the threshold voltage.
    pub fn from_volts(volts: f64) -> Self {
        assert!(
            volts.is_finite() && volts >= 0.0,
            "ΔVth must be finite and non-negative, got {volts}"
        );
        Self(volts)
    }

    /// The shift in volts.
    pub fn volts(self) -> f64 {
        self.0
    }

    /// The shift in millivolts.
    pub fn millivolts(self) -> f64 {
        self.0 * 1e3
    }
}

impl fmt::Display for DeltaVth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}mV", self.millivolts())
    }
}

/// Reaction–diffusion BTI threshold-shift model:
/// `ΔVth(t, S) = a · S^stress_exponent · t^time_exponent`.
///
/// The total number of interface defects — and hence the final impact on a
/// transistor's delay — is determined by the stress factor `S`, the ratio of
/// time under stress to time in recovery, exactly as the paper describes.
///
/// # Examples
///
/// ```
/// use aix_aging::{BtiModel, Lifetime, StressFactor};
///
/// let bti = BtiModel::calibrated();
/// let dvth = bti.delta_vth(StressFactor::WORST, Lifetime::YEARS_10);
/// assert!(dvth.millivolts() > 40.0 && dvth.millivolts() < 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BtiModel {
    /// Prefactor `a` in volts: the shift after one year at full stress.
    pub a: f64,
    /// Time exponent `n` of the power law (≈ 1/6 for reaction–diffusion).
    pub time_exponent: f64,
    /// Stress exponent `γ` relating duty-cycle to defect density.
    pub stress_exponent: f64,
}

impl BtiModel {
    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or not finite.
    pub fn new(a: f64, time_exponent: f64, stress_exponent: f64) -> Self {
        for (name, v) in [
            ("a", a),
            ("time_exponent", time_exponent),
            ("stress_exponent", stress_exponent),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "BTI parameter {name} invalid: {v}"
            );
        }
        Self {
            a,
            time_exponent,
            stress_exponent,
        }
    }

    /// The workspace-default calibration (see [`crate::Calibration`]).
    pub fn calibrated() -> Self {
        crate::Calibration::default().bti()
    }

    /// Threshold shift after `lifetime` under stress factor `stress`.
    ///
    /// Zero stress or zero lifetime produce [`DeltaVth::ZERO`] exactly.
    pub fn delta_vth(&self, stress: StressFactor, lifetime: Lifetime) -> DeltaVth {
        if lifetime.is_fresh() || stress.value() == 0.0 {
            return DeltaVth::ZERO;
        }
        let shift = self.a
            * stress.value().powf(self.stress_exponent)
            * lifetime.years().powf(self.time_exponent);
        DeltaVth::from_volts(shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_stress_means_zero_shift() {
        let bti = BtiModel::calibrated();
        assert_eq!(
            bti.delta_vth(StressFactor::RECOVERY, Lifetime::YEARS_10),
            DeltaVth::ZERO
        );
    }

    #[test]
    fn fresh_lifetime_means_zero_shift() {
        let bti = BtiModel::calibrated();
        assert_eq!(
            bti.delta_vth(StressFactor::WORST, Lifetime::FRESH),
            DeltaVth::ZERO
        );
    }

    #[test]
    fn power_law_in_time() {
        let bti = BtiModel::new(0.05, 0.16, 0.5);
        let y1 = bti
            .delta_vth(StressFactor::WORST, Lifetime::YEARS_1)
            .volts();
        let y10 = bti
            .delta_vth(StressFactor::WORST, Lifetime::YEARS_10)
            .volts();
        assert!((y10 / y1 - 10f64.powf(0.16)).abs() < 1e-9);
    }

    #[test]
    fn power_law_in_stress() {
        let bti = BtiModel::new(0.05, 0.16, 0.5);
        let half = bti
            .delta_vth(StressFactor::BALANCED, Lifetime::YEARS_1)
            .volts();
        let full = bti
            .delta_vth(StressFactor::WORST, Lifetime::YEARS_1)
            .volts();
        assert!((half / full - 0.5f64.powf(0.5)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn rejects_negative_parameters() {
        let _ = BtiModel::new(-0.1, 0.16, 0.5);
    }

    #[test]
    fn delta_vth_display() {
        assert_eq!(DeltaVth::from_volts(0.0513).to_string(), "51.3mV");
    }
}
