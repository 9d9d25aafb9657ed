//! Alpha-power delay law linking threshold shifts to gate-delay degradation.

use crate::DeltaVth;

/// First-order alpha-power delay law (the paper's Eq. 1):
///
/// ```text
/// t_gate ∝ 1 / (Vdd − Vth0 − ΔVth)^α
/// ```
///
/// The *degradation factor* is the ratio of aged to fresh delay,
/// `((Vdd − Vth0) / (Vdd − Vth0 − ΔVth))^α`, which is `1.0` for a fresh
/// transistor and grows monotonically with `ΔVth`.
///
/// # Examples
///
/// ```
/// use aix_aging::{AlphaPowerLaw, DeltaVth};
///
/// let law = AlphaPowerLaw::nominal_45nm();
/// assert_eq!(law.degradation_factor(DeltaVth::ZERO), 1.0);
/// assert!(law.degradation_factor(DeltaVth::from_volts(0.05)) > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaPowerLaw {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Fresh threshold voltage in volts.
    pub vth0: f64,
    /// Velocity-saturation exponent; the paper's first-order law uses 2.
    pub alpha: f64,
}

impl AlphaPowerLaw {
    /// Nominal parameters of a 45 nm-class technology
    /// (`Vdd = 1.1 V`, `Vth0 = 0.4 V`, `α = 2`), matching the NanGate-style
    /// library the degradation tables are generated for.
    pub fn nominal_45nm() -> Self {
        Self {
            vdd: crate::VDD_V,
            vth0: crate::VTH0_V,
            alpha: crate::ALPHA,
        }
    }

    /// Creates a law from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `vdd > vth0 > 0` and `alpha > 0`, i.e. the transistor
    /// has positive fresh overdrive.
    pub fn new(vdd: f64, vth0: f64, alpha: f64) -> Self {
        assert!(
            vdd.is_finite() && vth0.is_finite() && alpha.is_finite(),
            "alpha-power parameters must be finite"
        );
        assert!(vth0 > 0.0 && vdd > vth0, "need Vdd > Vth0 > 0");
        assert!(alpha > 0.0, "need alpha > 0");
        Self { vdd, vth0, alpha }
    }

    /// Fresh gate overdrive `Vdd − Vth0` in volts.
    pub fn overdrive(&self) -> f64 {
        self.vdd - self.vth0
    }

    /// Multiplicative delay degradation (≥ 1.0) caused by `delta_vth`.
    ///
    /// # Panics
    ///
    /// Panics if `delta_vth` consumes the entire overdrive — the transistor
    /// would no longer switch, which is outside the model's validity and
    /// far beyond any BTI shift the calibrated model produces.
    pub fn degradation_factor(&self, delta_vth: DeltaVth) -> f64 {
        let fresh = self.overdrive();
        let aged = fresh - delta_vth.volts();
        assert!(
            aged > 0.0,
            "ΔVth of {} exceeds the available overdrive of {:.3} V",
            delta_vth,
            fresh
        );
        (fresh / aged).powf(self.alpha)
    }

    /// Inverse query: the `ΔVth` that would produce the given degradation
    /// factor. Useful for calibration.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn delta_vth_for_factor(&self, factor: f64) -> DeltaVth {
        assert!(
            factor >= 1.0,
            "degradation factor must be ≥ 1, got {factor}"
        );
        let fresh = self.overdrive();
        DeltaVth::from_volts(fresh * (1.0 - factor.powf(-1.0 / self.alpha)))
    }
}

impl Default for AlphaPowerLaw {
    fn default() -> Self {
        Self::nominal_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shift_is_unity() {
        let law = AlphaPowerLaw::nominal_45nm();
        assert_eq!(law.degradation_factor(DeltaVth::ZERO), 1.0);
    }

    #[test]
    fn factor_grows_with_shift() {
        let law = AlphaPowerLaw::nominal_45nm();
        let small = law.degradation_factor(DeltaVth::from_volts(0.01));
        let large = law.degradation_factor(DeltaVth::from_volts(0.05));
        assert!(1.0 < small && small < large);
    }

    #[test]
    fn inverse_roundtrips() {
        let law = AlphaPowerLaw::nominal_45nm();
        for factor in [1.0, 1.05, 1.11, 1.16, 1.5] {
            let dvth = law.delta_vth_for_factor(factor);
            let back = law.degradation_factor(dvth);
            assert!((back - factor).abs() < 1e-12, "{factor} -> {back}");
        }
    }

    #[test]
    #[should_panic(expected = "Vdd > Vth0")]
    fn rejects_inverted_voltages() {
        let _ = AlphaPowerLaw::new(0.4, 1.1, 2.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the available overdrive")]
    fn rejects_shift_beyond_overdrive() {
        let law = AlphaPowerLaw::nominal_45nm();
        let _ = law.degradation_factor(DeltaVth::from_volts(1.0));
    }

    #[test]
    fn alpha_two_matches_closed_form() {
        let law = AlphaPowerLaw::new(1.1, 0.4, 2.0);
        let f = law.degradation_factor(DeltaVth::from_volts(0.05));
        let expect = (0.7f64 / 0.65).powi(2);
        assert!((f - expect).abs() < 1e-12);
    }
}
