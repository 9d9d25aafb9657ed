//! Component characterization: relating precision to delay under aging
//! (paper Fig. 3, Fig. 4 and Fig. 7).

use crate::engine::{CharacterizationEngine, EngineOptions};
use crate::{AixError, ComponentKind};
use aix_aging::{AgingScenario, Lifetime};
use aix_cells::Library;
use aix_synth::Effort;
use std::fmt;
use std::sync::Arc;

/// The aging condition a characterization entry was evaluated under.
///
/// Uniform conditions (worst case, balanced) need no stimuli; the *actual
/// case* derives per-gate stress from switching activity under either
/// normally distributed operands or operands traced from a running IDCT —
/// the two stimulus sources the paper compares in Fig. 4/Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum CharacterizationScenario {
    /// A uniform condition ([`AgingScenario::Fresh`], worst case, balanced…).
    Uniform(AgingScenario),
    /// Actual-case aging under normally distributed operands.
    ActualNormal(Lifetime),
    /// Actual-case aging under operands traced from an IDCT decoding run.
    ActualIdct(Lifetime),
}

impl CharacterizationScenario {
    /// The design-time reference (no aging).
    pub const FRESH: CharacterizationScenario =
        CharacterizationScenario::Uniform(AgingScenario::Fresh);

    /// Worst-case aging for `lifetime`.
    pub fn worst_case(lifetime: Lifetime) -> Self {
        CharacterizationScenario::Uniform(AgingScenario::worst_case(lifetime))
    }
}

impl fmt::Display for CharacterizationScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharacterizationScenario::Uniform(s) => write!(f, "{s}"),
            CharacterizationScenario::ActualNormal(lt) => write!(f, "{lt}(AC,ND)"),
            CharacterizationScenario::ActualIdct(lt) => write!(f, "{lt}(AC,IDCT)"),
        }
    }
}

impl From<AgingScenario> for CharacterizationScenario {
    fn from(value: AgingScenario) -> Self {
        CharacterizationScenario::Uniform(value)
    }
}

/// What to characterize and under which conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationConfig {
    /// Component family.
    pub kind: ComponentKind,
    /// Full operand width in bits.
    pub width: usize,
    /// Precisions to synthesize, normally descending from `width`.
    pub precisions: Vec<usize>,
    /// Uniform aging scenarios to analyze each precision under.
    pub scenarios: Vec<AgingScenario>,
    /// Synthesis effort.
    pub effort: Effort,
}

impl CharacterizationConfig {
    /// The paper's setup: full width down to `width − 10`, fresh plus
    /// worst-case aging at every year of the 10-year projected lifetime
    /// and balanced aging at 1 and 10 years, highest synthesis effort.
    /// (Each extra scenario only costs one STA pass per precision; the
    /// synthesis runs are shared.)
    pub fn paper_default(kind: ComponentKind, width: usize) -> Self {
        let mut scenarios = vec![AgingScenario::Fresh];
        scenarios.extend(
            (1..=10).map(|y| AgingScenario::worst_case(Lifetime::from_years(f64::from(y)))),
        );
        scenarios.push(AgingScenario::balanced(Lifetime::YEARS_1));
        scenarios.push(AgingScenario::balanced(Lifetime::YEARS_10));
        Self {
            kind,
            width,
            precisions: (width.saturating_sub(10).max(1)..=width).rev().collect(),
            scenarios,
            effort: Effort::Ultra,
        }
    }

    /// A cheap configuration for tests and doctests: up to four precisions,
    /// two scenarios, medium effort. Precisions are clamped to at least one
    /// bit (like [`paper_default`](Self::paper_default)), so narrow widths
    /// simply characterize fewer points instead of underflowing.
    pub fn quick(kind: ComponentKind, width: usize) -> Self {
        let mut precisions: Vec<usize> = [0usize, 2, 4, 8]
            .iter()
            .map(|&cut| width.saturating_sub(cut).max(1))
            .collect();
        precisions.dedup();
        Self {
            kind,
            width,
            precisions,
            scenarios: vec![
                AgingScenario::Fresh,
                AgingScenario::worst_case(Lifetime::YEARS_10),
            ],
            effort: Effort::Medium,
        }
    }
}

/// One characterized operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizationEntry {
    /// Effective precision in bits.
    pub precision: usize,
    /// Aging condition.
    pub scenario: CharacterizationScenario,
    /// Critical-path delay of the synthesized component, in ps.
    pub delay_ps: f64,
}

/// The characterization of one RTL component: its delay at every
/// (precision, aging condition) pair, anchored by the fresh full-precision
/// delay that defines the timing constraint of Eq. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentCharacterization {
    kind: ComponentKind,
    width: usize,
    effort: Effort,
    entries: Vec<CharacterizationEntry>,
}

impl ComponentCharacterization {
    /// Creates an empty characterization (entries added incrementally).
    pub fn new(kind: ComponentKind, width: usize, effort: Effort) -> Self {
        Self {
            kind,
            width,
            effort,
            entries: Vec::new(),
        }
    }

    /// Component family.
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// Full operand width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Synthesis effort the netlists were produced at.
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// All entries.
    pub fn entries(&self) -> &[CharacterizationEntry] {
        &self.entries
    }

    /// Appends an entry (used by the actual-case flow, which computes
    /// delays from extracted stress).
    pub fn add_entry(&mut self, entry: CharacterizationEntry) {
        self.entries.push(entry);
    }

    /// Delay at an exact (precision, scenario) point.
    pub fn delay_ps(&self, precision: usize, scenario: CharacterizationScenario) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.precision == precision && scenario_eq(e.scenario, scenario))
            .map(|e| e.delay_ps)
    }

    /// The timing constraint of Eq. 2: the fresh, full-precision delay.
    ///
    /// # Panics
    ///
    /// Panics if the characterization lacks the fresh full-precision entry.
    pub fn fresh_full_delay_ps(&self) -> f64 {
        self.delay_ps(self.width, CharacterizationScenario::FRESH)
            .expect("characterization must include the fresh full-precision point")
    }

    /// Eq. 2: the *largest* precision `K < N` whose aged delay meets the
    /// fresh full-precision constraint, or `None` if even the smallest
    /// characterized precision cannot compensate.
    pub fn required_precision(
        &self,
        scenario: impl Into<CharacterizationScenario>,
    ) -> Option<usize> {
        self.precision_for_target(scenario.into(), self.fresh_full_delay_ps())
    }

    /// The precision required to absorb a block's *relative slack*
    /// (`slack / t_clock`, negative when timing is violated), per the
    /// paper's microarchitecture flow. Non-negative slack needs no
    /// approximation and returns the full width.
    pub fn precision_for_relative_slack(
        &self,
        scenario: impl Into<CharacterizationScenario>,
        relative_slack: f64,
    ) -> Option<usize> {
        if relative_slack >= 0.0 {
            return Some(self.width);
        }
        let scenario = scenario.into();
        // tB(aged, N) = t_clock · (1 − relSlack)  ⇒  the component meets the
        // clock when its aged delay shrinks by the factor 1/(1 − relSlack).
        let aged_full = self.delay_ps(self.width, scenario)?;
        let target = aged_full / (1.0 - relative_slack);
        self.precision_for_target(scenario, target)
    }

    fn precision_for_target(
        &self,
        scenario: CharacterizationScenario,
        target_ps: f64,
    ) -> Option<usize> {
        self.entries
            .iter()
            .filter(|e| scenario_eq(e.scenario, scenario) && e.delay_ps <= target_ps + 1e-9)
            .map(|e| e.precision)
            .max()
    }

    /// Remaining guardband at a precision: how much the aged delay still
    /// exceeds the fresh full-precision constraint (ps, clamped at zero).
    pub fn guardband_ps(
        &self,
        precision: usize,
        scenario: impl Into<CharacterizationScenario>,
    ) -> Option<f64> {
        let aged = self.delay_ps(precision, scenario.into())?;
        Some((aged - self.fresh_full_delay_ps()).max(0.0))
    }

    /// Enforces that delay never increases as precision drops, per
    /// scenario: a synthesis tool given a looser (lower-precision) spec can
    /// always reuse the higher-precision netlist with extra inputs tied
    /// off, so its reported delay is a running minimum over descending
    /// precision. This removes the noise of independent greedy sizing runs.
    pub fn enforce_synthesis_monotonicity(&mut self) {
        // Sort entry indices so entries of the same scenario become
        // adjacent (shape tag, then numeric stress/lifetime — the IEEE bit
        // pattern of a non-negative float sorts like its value) and ordered
        // by descending precision; a single linear pass then applies the
        // running minimum per group. Near-equal lifetimes land adjacent, so
        // seeding each group with its first scenario and extending it while
        // `scenario_eq` holds finds the same groups the old quadratic
        // membership scan did, in O(n log n).
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&self.entries[a], &self.entries[b]);
            scenario_sort_key(ea.scenario)
                .cmp(&scenario_sort_key(eb.scenario))
                .then(eb.precision.cmp(&ea.precision))
                .then(a.cmp(&b))
        });
        let mut group_seed: Option<CharacterizationScenario> = None;
        let mut best = f64::INFINITY;
        for &index in &order {
            let scenario = self.entries[index].scenario;
            if !group_seed.is_some_and(|seed| scenario_eq(seed, scenario)) {
                group_seed = Some(scenario);
                best = f64::INFINITY;
            }
            best = best.min(self.entries[index].delay_ps);
            self.entries[index].delay_ps = best;
        }
    }

    /// Fractional guardband narrowing achieved by reducing precision from
    /// full width to `precision` (the paper reports e.g. "2 bits narrow
    /// the guardband by 31 %").
    pub fn guardband_narrowing(
        &self,
        precision: usize,
        scenario: impl Into<CharacterizationScenario>,
    ) -> Option<f64> {
        let scenario = scenario.into();
        let full = self.guardband_ps(self.width, scenario)?;
        let cut = self.guardband_ps(precision, scenario)?;
        if full <= 0.0 {
            return Some(0.0);
        }
        Some(1.0 - cut / full)
    }
}

/// Tolerance under which two floating-point lifetimes denote the same
/// aging condition, in hours. One hour is far below any lifetime step the
/// characterization sweeps (full years) yet far above accumulated
/// round-off from serializing lifetimes through the library text format.
pub const SCENARIO_LIFETIME_TOLERANCE_HOURS: f64 = 1.0;

/// Hours per (365.25-day) year, matching [`Lifetime::seconds`].
const HOURS_PER_YEAR: f64 = 365.25 * 24.0;

/// A totally ordered key that clusters scenarios of the same shape and
/// sorts them by numeric stress/lifetime, used to group entries in
/// [`ComponentCharacterization::enforce_synthesis_monotonicity`]. Non-
/// negative floats order the same as their IEEE-754 bit patterns.
fn scenario_sort_key(scenario: CharacterizationScenario) -> (u8, u64, u64) {
    use aix_aging::StressCondition;
    use CharacterizationScenario as C;
    match scenario {
        C::Uniform(AgingScenario::Fresh) => (0, 0, 0),
        C::Uniform(AgingScenario::Aged { stress, lifetime }) => match stress {
            StressCondition::Worst => (1, 0, lifetime.years().to_bits()),
            StressCondition::Balanced => (2, 0, lifetime.years().to_bits()),
            StressCondition::Uniform(s) => (3, s.value().to_bits(), lifetime.years().to_bits()),
        },
        C::ActualNormal(lt) => (4, 0, lt.years().to_bits()),
        C::ActualIdct(lt) => (5, 0, lt.years().to_bits()),
    }
}

/// Whether two scenarios denote the same condition (floating-point
/// lifetimes compare within [`SCENARIO_LIFETIME_TOLERANCE_HOURS`]).
fn scenario_eq(a: CharacterizationScenario, b: CharacterizationScenario) -> bool {
    use CharacterizationScenario as C;
    let close = |x: Lifetime, y: Lifetime| {
        (x.years() - y.years()).abs() * HOURS_PER_YEAR < SCENARIO_LIFETIME_TOLERANCE_HOURS
    };
    match (a, b) {
        (C::Uniform(x), C::Uniform(y)) => match (x, y) {
            (AgingScenario::Fresh, AgingScenario::Fresh) => true,
            (
                AgingScenario::Aged {
                    stress: sx,
                    lifetime: lx,
                },
                AgingScenario::Aged {
                    stress: sy,
                    lifetime: ly,
                },
            ) => sx == sy && close(lx, ly),
            _ => false,
        },
        (C::ActualNormal(x), C::ActualNormal(y)) | (C::ActualIdct(x), C::ActualIdct(y)) => {
            close(x, y)
        }
        _ => false,
    }
}

/// Characterizes a component under every configured (precision, uniform
/// scenario) pair: synthesize once per precision, then run aging-aware STA
/// per scenario — no gate-level simulation required (the heart of Fig. 3).
///
/// This is a convenience wrapper around [`CharacterizationEngine`] running
/// single-threaded and without the persistent cache; use the engine
/// directly for parallel or cached characterization.
///
/// # Errors
///
/// Propagates synthesis/STA errors and invalid precision specs as
/// [`AixError`].
pub fn characterize_component(
    library: &Arc<Library>,
    config: &CharacterizationConfig,
) -> Result<ComponentCharacterization, AixError> {
    let engine = CharacterizationEngine::new(Arc::clone(library), EngineOptions::sequential());
    engine
        .characterize(config)
        .map(|(characterization, _)| characterization)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn quick_adder() -> ComponentCharacterization {
        characterize_component(
            &lib(),
            &CharacterizationConfig::quick(ComponentKind::Adder, 16),
        )
        .unwrap()
    }

    #[test]
    fn fresh_full_anchor_exists_and_delays_are_ordered() {
        let c = quick_adder();
        let fresh = c.fresh_full_delay_ps();
        assert!(fresh > 0.0);
        let aged = c
            .delay_ps(16, CharacterizationScenario::worst_case(Lifetime::YEARS_10))
            .unwrap();
        assert!(aged > fresh * 1.1, "aged {aged} vs fresh {fresh}");
    }

    #[test]
    fn delay_decreases_with_precision() {
        let c = quick_adder();
        let wc = CharacterizationScenario::worst_case(Lifetime::YEARS_10);
        let mut last = f64::INFINITY;
        for p in [16usize, 14, 12, 8] {
            let d = c.delay_ps(p, wc).unwrap();
            assert!(d <= last + 1e-9, "delay must not grow as precision drops");
            last = d;
        }
    }

    #[test]
    fn eq2_finds_a_compensating_precision() {
        let c = quick_adder();
        let k = c
            .required_precision(AgingScenario::worst_case(Lifetime::YEARS_10))
            .expect("ripple-style delay scaling compensates 16 % aging");
        assert!(k < 16, "full precision cannot meet Eq. 2 under aging");
        // The selected precision really meets the constraint.
        let aged = c
            .delay_ps(k, CharacterizationScenario::worst_case(Lifetime::YEARS_10))
            .unwrap();
        assert!(aged <= c.fresh_full_delay_ps() + 1e-9);
    }

    #[test]
    fn nonnegative_slack_keeps_full_precision() {
        let c = quick_adder();
        assert_eq!(
            c.precision_for_relative_slack(AgingScenario::worst_case(Lifetime::YEARS_10), 0.05),
            Some(16)
        );
    }

    #[test]
    fn negative_slack_requires_less_precision_than_eq2_when_mild() {
        let c = quick_adder();
        let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
        let eq2 = c.required_precision(scenario).unwrap();
        // A mild violation needs the same or fewer truncated bits.
        let mild = c.precision_for_relative_slack(scenario, -0.02).unwrap();
        assert!(mild >= eq2, "mild slack {mild} vs full compensation {eq2}");
    }

    #[test]
    fn guardband_narrowing_monotone() {
        let c = quick_adder();
        let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
        let n2 = c.guardband_narrowing(14, scenario).unwrap();
        let n8 = c.guardband_narrowing(8, scenario).unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&n2));
        assert!(n8 >= n2, "more truncation narrows the guardband more");
    }

    #[test]
    fn paper_default_never_generates_zero_precision() {
        for width in [1usize, 4, 8, 10, 11, 32] {
            let config = CharacterizationConfig::paper_default(ComponentKind::Adder, width);
            assert!(config.precisions.iter().all(|&p| p >= 1 && p <= width));
            assert_eq!(config.precisions[0], width, "sweep starts at full width");
        }
    }

    #[test]
    fn quick_clamps_narrow_widths() {
        // Regression: `quick(Adder, 4)` used to underflow `width - 8`.
        let config = CharacterizationConfig::quick(ComponentKind::Adder, 4);
        assert_eq!(config.precisions, vec![4, 2, 1]);
        let c = characterize_component(&lib(), &config).expect("narrow widths characterize");
        assert!(c.fresh_full_delay_ps() > 0.0);
        for width in 1..=9 {
            let config = CharacterizationConfig::quick(ComponentKind::Adder, width);
            assert!(
                config.precisions.iter().all(|&p| (1..=width).contains(&p)),
                "width {width} produced {:?}",
                config.precisions
            );
            assert_eq!(config.precisions[0], width, "sweep starts at full width");
        }
    }

    #[test]
    fn monotonicity_enforcement_scales_to_large_characterizations() {
        // 10k entries (100 scenarios × 100 precisions) must normalize in
        // well under a second — the old per-group membership scan was
        // quadratic and took tens of seconds at this size.
        let mut c = ComponentCharacterization::new(ComponentKind::Adder, 128, Effort::Medium);
        for s in 0..100u64 {
            let scenario =
                CharacterizationScenario::worst_case(Lifetime::from_years(1.0 + s as f64));
            for p in 0..100usize {
                c.add_entry(CharacterizationEntry {
                    precision: 128 - p,
                    scenario,
                    delay_ps: 1000.0 - (p as f64 * 7.0) % 90.0,
                });
            }
        }
        let start = std::time::Instant::now();
        c.enforce_synthesis_monotonicity();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "monotonicity took {:?} for 10k entries",
            start.elapsed()
        );
        // Still a per-scenario running minimum.
        let wc = CharacterizationScenario::worst_case(Lifetime::from_years(1.0));
        let mut last = f64::INFINITY;
        for p in (29..=128).rev() {
            let d = c.delay_ps(p, wc).unwrap();
            assert!(d <= last + 1e-12);
            last = d;
        }
    }

    #[test]
    fn monotonicity_enforcement_is_a_running_min() {
        let mut c = ComponentCharacterization::new(ComponentKind::Adder, 8, Effort::Medium);
        let wc = CharacterizationScenario::worst_case(Lifetime::YEARS_10);
        for (precision, delay) in [(8, 100.0), (7, 110.0), (6, 90.0), (5, 95.0)] {
            c.add_entry(CharacterizationEntry {
                precision,
                scenario: wc,
                delay_ps: delay,
            });
        }
        c.enforce_synthesis_monotonicity();
        assert_eq!(c.delay_ps(8, wc), Some(100.0));
        assert_eq!(c.delay_ps(7, wc), Some(100.0), "reuses the 8b netlist");
        assert_eq!(c.delay_ps(6, wc), Some(90.0));
        assert_eq!(c.delay_ps(5, wc), Some(90.0), "reuses the 6b netlist");
    }

    #[test]
    fn scenario_display_matches_paper_labels() {
        assert_eq!(
            CharacterizationScenario::worst_case(Lifetime::YEARS_10).to_string(),
            "10y(WC)"
        );
        assert_eq!(
            CharacterizationScenario::ActualNormal(Lifetime::YEARS_10).to_string(),
            "10y(AC,ND)"
        );
        assert_eq!(
            CharacterizationScenario::ActualIdct(Lifetime::YEARS_1).to_string(),
            "1y(AC,IDCT)"
        );
    }
}
