//! Aging scenarios: fresh, worst-case, balanced and actual-case conditions.

use crate::{Lifetime, StressFactor, StressPair};
use std::fmt;

/// Uniform stress conditions an analysis can assume for every transistor.
///
/// The *actual case* — per-gate stress derived from simulated switching
/// activity — is not a uniform condition; it is represented by per-gate
/// [`StressPair`] annotations at the STA layer and therefore has no variant
/// here.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum StressCondition {
    /// Every transistor under 100 % stress: the conservative upper bound.
    /// Protecting against this guarantees no aging-induced timing error can
    /// ever occur during the projected lifetime.
    Worst,
    /// Every transistor under 50 % stress: the paper's "typical" case.
    Balanced,
    /// Every transistor under the same explicit stress factor.
    Uniform(StressFactor),
}

impl StressCondition {
    /// The per-gate stress pair implied by this condition.
    pub fn stress_pair(self) -> StressPair {
        match self {
            StressCondition::Worst => StressPair::WORST,
            StressCondition::Balanced => StressPair::BALANCED,
            StressCondition::Uniform(s) => StressPair::uniform(s),
        }
    }
}

impl fmt::Display for StressCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StressCondition::Worst => write!(f, "WC"),
            StressCondition::Balanced => write!(f, "Bal"),
            StressCondition::Uniform(s) => write!(f, "S={s}"),
        }
    }
}

/// A complete uniform aging scenario: either a fresh circuit, or a stress
/// condition sustained for a lifetime.
///
/// # Examples
///
/// ```
/// use aix_aging::AgingScenario;
///
/// let wc10 = AgingScenario::worst_case(aix_aging::Lifetime::YEARS_10);
/// assert_eq!(wc10.to_string(), "10y(WC)");
/// assert_eq!(AgingScenario::Fresh.to_string(), "noAging");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum AgingScenario {
    /// No aging at all — the design-time reference.
    Fresh,
    /// Aged under a uniform stress condition for a given lifetime.
    Aged {
        /// The stress condition assumed for every transistor.
        stress: StressCondition,
        /// The operational lifetime.
        lifetime: Lifetime,
    },
}

impl AgingScenario {
    /// Worst-case (100 % stress) aging for `lifetime`.
    pub fn worst_case(lifetime: Lifetime) -> Self {
        AgingScenario::Aged {
            stress: StressCondition::Worst,
            lifetime,
        }
    }

    /// Balanced (50 % stress) aging for `lifetime`.
    pub fn balanced(lifetime: Lifetime) -> Self {
        AgingScenario::Aged {
            stress: StressCondition::Balanced,
            lifetime,
        }
    }

    /// The scenario's lifetime ([`Lifetime::FRESH`] for [`AgingScenario::Fresh`]).
    pub fn lifetime(self) -> Lifetime {
        match self {
            AgingScenario::Fresh => Lifetime::FRESH,
            AgingScenario::Aged { lifetime, .. } => lifetime,
        }
    }

    /// Whether this scenario involves any aging at all.
    pub fn is_aged(self) -> bool {
        !matches!(self, AgingScenario::Fresh) && !self.lifetime().is_fresh()
    }
}

impl fmt::Display for AgingScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgingScenario::Fresh => write!(f, "noAging"),
            AgingScenario::Aged { stress, lifetime } => write!(f, "{lifetime}({stress})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_conditions() {
        let wc = AgingScenario::worst_case(Lifetime::YEARS_1);
        assert!(matches!(
            wc,
            AgingScenario::Aged {
                stress: StressCondition::Worst,
                ..
            }
        ));
        let bal = AgingScenario::balanced(Lifetime::YEARS_10);
        assert_eq!(bal.lifetime(), Lifetime::YEARS_10);
    }

    #[test]
    fn stress_pairs_match_conditions() {
        assert_eq!(StressCondition::Worst.stress_pair(), StressPair::WORST);
        assert_eq!(
            StressCondition::Balanced.stress_pair(),
            StressPair::BALANCED
        );
        let s = StressFactor::new(0.3).unwrap();
        assert_eq!(
            StressCondition::Uniform(s).stress_pair(),
            StressPair::uniform(s)
        );
    }

    #[test]
    fn aged_detection() {
        assert!(!AgingScenario::Fresh.is_aged());
        assert!(AgingScenario::worst_case(Lifetime::YEARS_1).is_aged());
        assert!(!AgingScenario::worst_case(Lifetime::FRESH).is_aged());
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(
            AgingScenario::worst_case(Lifetime::YEARS_1).to_string(),
            "1y(WC)"
        );
        assert_eq!(
            AgingScenario::balanced(Lifetime::YEARS_10).to_string(),
            "10y(Bal)"
        );
    }
}
