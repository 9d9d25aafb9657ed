//! BTI transistor-aging model: threshold-voltage shift, stress factors and
//! the resulting gate-delay degradation.
//!
//! This crate is the physics substrate of the workspace. It implements the
//! first-order aging law used by the paper (Eq. 1):
//!
//! ```text
//! t_gate ∝ 1 / (Vdd − Vth − ΔVth)²
//! ```
//!
//! combined with a reaction–diffusion BTI model for the threshold shift,
//! `ΔVth(t, S) = A · S^γ · t^n`, where `S` is the *stress factor* — the
//! fraction of the lifetime a transistor spends under stress (pMOS stressed
//! while its gate input is low → NBTI; nMOS while high → PBTI).
//!
//! # Examples
//!
//! ```
//! use aix_aging::{AgingModel, Lifetime, StressFactor};
//!
//! let model = AgingModel::calibrated();
//! let worst = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_10);
//! let fresh = model.delay_factor(StressFactor::RECOVERY, Lifetime::YEARS_10);
//! assert!(worst > 1.10 && worst < 1.25, "10-year worst-case ≈ +16 % delay");
//! assert_eq!(fresh, 1.0, "a transistor never under stress does not age");
//! ```

mod calibration;
mod law;
mod lifetime;
mod scenario;
mod stress;
mod vth;

pub use calibration::{
    Calibration, ALPHA, CALIBRATION_VERSION, DELTA_VTH_10Y_WORST_V, STRESS_EXPONENT, TIME_EXPONENT,
    VDD_V, VTH0_V,
};
pub use law::AlphaPowerLaw;
pub use lifetime::{InvalidLifetimeError, Lifetime};
pub use scenario::{AgingScenario, StressCondition};
pub use stress::{InvalidStressError, StressFactor, StressPair};
pub use vth::{BtiModel, DeltaVth};

/// Complete aging model: BTI threshold shift composed with the alpha-power
/// delay law. This is the only type most downstream code needs.
///
/// # Examples
///
/// ```
/// use aix_aging::{AgingModel, Lifetime, StressFactor};
///
/// let model = AgingModel::calibrated();
/// // Delay degradation grows monotonically with lifetime.
/// let y1 = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_1);
/// let y10 = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_10);
/// assert!(1.0 < y1 && y1 < y10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgingModel {
    bti: BtiModel,
    law: AlphaPowerLaw,
}

impl AgingModel {
    /// Creates a model from explicit BTI and delay-law parameters.
    pub fn new(bti: BtiModel, law: AlphaPowerLaw) -> Self {
        Self { bti, law }
    }

    /// The workspace-default model calibrated against the paper's numbers
    /// (10-year worst-case aging ≈ +16 % gate delay; see [`Calibration`]).
    pub fn calibrated() -> Self {
        Calibration::default().into_model()
    }

    /// Threshold-voltage shift for a transistor with stress factor `stress`
    /// after `lifetime` of operation.
    pub fn delta_vth(&self, stress: StressFactor, lifetime: Lifetime) -> DeltaVth {
        self.bti.delta_vth(stress, lifetime)
    }

    /// Multiplicative gate-delay degradation (≥ 1.0) for a single stress
    /// factor applied to both transistor types.
    pub fn delay_factor(&self, stress: StressFactor, lifetime: Lifetime) -> f64 {
        self.law
            .degradation_factor(self.delta_vth(stress, lifetime))
    }

    /// Delay degradation for a (pMOS, nMOS) stress pair.
    ///
    /// The degradation of a timing arc depends on both networks: the pull-up
    /// (pMOS, NBTI) governs rising output transitions and the pull-down
    /// (nMOS, PBTI) falling ones. STA must cover both polarities of every arc
    /// over a full workload, so the arc degradation is modelled as the mean
    /// of the per-network factors — under worst-case stress both coincide
    /// with the maximum.
    pub fn pair_delay_factor(&self, pair: StressPair, lifetime: Lifetime) -> f64 {
        let fp = self.delay_factor(pair.pmos, lifetime);
        let fnn = self.delay_factor(pair.nmos, lifetime);
        0.5 * (fp + fnn)
    }

    /// Delay degradation under a uniform [`AgingScenario`].
    ///
    /// [`AgingScenario::Fresh`] always yields exactly `1.0`. Actual-case
    /// (per-gate) stress is resolved by the STA layer from extracted
    /// activity; this helper serves the uniform conditions.
    pub fn scenario_delay_factor(&self, scenario: AgingScenario) -> f64 {
        match scenario {
            AgingScenario::Fresh => 1.0,
            AgingScenario::Aged { stress, lifetime } => {
                self.pair_delay_factor(stress.stress_pair(), lifetime)
            }
        }
    }

    /// The underlying BTI threshold-shift model.
    pub fn bti(&self) -> &BtiModel {
        &self.bti
    }

    /// The underlying alpha-power delay law.
    pub fn law(&self) -> &AlphaPowerLaw {
        &self.law
    }
}

impl Default for AgingModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_ten_year_worst_case_matches_paper_guardband() {
        let model = AgingModel::calibrated();
        let factor = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_10);
        // Paper Fig. 4: ~16 % delay increase after 10 years of worst-case aging.
        assert!((factor - 1.16).abs() < 0.01, "got {factor}");
    }

    #[test]
    fn one_year_worst_case_is_about_eleven_percent() {
        let model = AgingModel::calibrated();
        let factor = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_1);
        assert!((factor - 1.11).abs() < 0.015, "got {factor}");
    }

    #[test]
    fn fresh_scenario_never_degrades() {
        let model = AgingModel::calibrated();
        assert_eq!(model.scenario_delay_factor(AgingScenario::Fresh), 1.0);
    }

    #[test]
    fn degradation_monotone_in_time() {
        let model = AgingModel::calibrated();
        let mut last = 1.0;
        for years in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0] {
            let f = model.delay_factor(StressFactor::WORST, Lifetime::from_years(years));
            assert!(f > last, "delay factor must grow with lifetime");
            last = f;
        }
    }

    #[test]
    fn degradation_monotone_in_stress() {
        let model = AgingModel::calibrated();
        let mut last = 0.0;
        for s in 0..=10 {
            let f = model.delay_factor(
                StressFactor::new(f64::from(s) / 10.0).unwrap(),
                Lifetime::YEARS_10,
            );
            assert!(f > last, "delay factor must grow with stress");
            last = f;
        }
    }

    #[test]
    fn balanced_stress_sits_between_fresh_and_worst() {
        let model = AgingModel::calibrated();
        let balanced = model.delay_factor(StressFactor::BALANCED, Lifetime::YEARS_10);
        let worst = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_10);
        assert!(balanced > 1.0 && balanced < worst);
    }

    #[test]
    fn pair_factor_symmetric_and_bounded() {
        let model = AgingModel::calibrated();
        let a = StressFactor::new(0.2).unwrap();
        let b = StressFactor::new(0.9).unwrap();
        let f_ab = model.pair_delay_factor(StressPair::new(a, b), Lifetime::YEARS_10);
        let f_ba = model.pair_delay_factor(StressPair::new(b, a), Lifetime::YEARS_10);
        assert!((f_ab - f_ba).abs() < 1e-12);
        let fa = model.delay_factor(a, Lifetime::YEARS_10);
        let fb = model.delay_factor(b, Lifetime::YEARS_10);
        assert!(f_ab >= fa.min(fb) && f_ab <= fa.max(fb));
    }
}
