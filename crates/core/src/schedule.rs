//! Graceful-degradation schedules — the future the paper's conclusion
//! envisions: "by applying approximations adaptively we can envision
//! future systems that gradually degrade in quality as they age over
//! time."
//!
//! A [`DegradationSchedule`] plans, for a sequence of lifetime
//! checkpoints, the per-block precision a design needs *at that age*: a
//! young circuit runs at (nearly) full precision and sheds bits only as
//! its transistors actually slow down, instead of paying the end-of-life
//! approximation from day one.

use crate::microarch::FlowError;
use crate::{apply_aging_approximations, ApproxLibrary, ApproximationPlan, MicroarchDesign};
use aix_aging::{AgingModel, AgingScenario, Lifetime, StressCondition};

/// One checkpoint of a degradation schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStep {
    /// Circuit age this step takes effect at.
    pub lifetime: Lifetime,
    /// The approximation plan protecting operation up to this age.
    pub plan: ApproximationPlan,
}

/// A lifetime-indexed sequence of approximation plans.
///
/// # Examples
///
/// See [`plan_degradation_schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSchedule {
    steps: Vec<ScheduleStep>,
}

impl DegradationSchedule {
    /// The checkpoints, youngest first.
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps
    }

    /// The precision block `name` runs at when the circuit is `age` old:
    /// the plan of the earliest checkpoint at or beyond `age` (a deployed
    /// schedule must protect until its *next* reconfiguration point).
    pub fn precision_at(&self, name: &str, age: Lifetime) -> Option<usize> {
        self.steps
            .iter()
            .find(|step| step.lifetime.years() >= age.years() - 1e-12)
            .or_else(|| self.steps.last())
            .and_then(|step| step.plan.block(name))
            .map(|block| block.precision)
    }

    /// Whether every block's precision is non-increasing over the
    /// schedule — the defining property of graceful degradation.
    pub fn is_monotone(&self) -> bool {
        let Some(first) = self.steps.first() else {
            return true;
        };
        for block_index in 0..first.plan.blocks.len() {
            let mut last = usize::MAX;
            for step in &self.steps {
                let precision = step.plan.blocks[block_index].precision;
                if precision > last {
                    return false;
                }
                last = precision;
            }
        }
        true
    }
}

/// Plans precision over a whole lifetime: runs the Fig. 6 flow once per
/// checkpoint under the given stress condition and collects the plans.
///
/// # Errors
///
/// Propagates [`FlowError`] from any checkpoint's flow run.
///
/// # Examples
///
/// ```no_run
/// use aix_aging::{AgingModel, Lifetime, StressCondition};
/// use aix_cells::Library;
/// use aix_core::{idct_design, plan_degradation_schedule, ApproxLibrary};
/// use aix_synth::Effort;
/// use std::sync::Arc;
///
/// let cells = Arc::new(Library::nangate45_like());
/// let design = idct_design(&cells, Effort::Ultra)?;
/// let library = ApproxLibrary::new(); // characterized elsewhere
/// let schedule = plan_degradation_schedule(
///     &design,
///     &library,
///     &AgingModel::calibrated(),
///     StressCondition::Worst,
///     &[Lifetime::YEARS_1, Lifetime::from_years(3.0), Lifetime::YEARS_10],
/// )?;
/// assert!(schedule.is_monotone());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn plan_degradation_schedule(
    design: &MicroarchDesign,
    library: &ApproxLibrary,
    model: &AgingModel,
    stress: StressCondition,
    checkpoints: &[Lifetime],
) -> Result<DegradationSchedule, FlowError> {
    let mut steps = Vec::with_capacity(checkpoints.len());
    for &lifetime in checkpoints {
        let scenario = if lifetime.is_fresh() {
            AgingScenario::Fresh
        } else {
            AgingScenario::Aged { stress, lifetime }
        };
        let plan = apply_aging_approximations(design, library, model, scenario)?;
        steps.push(ScheduleStep { lifetime, plan });
    }
    steps.sort_by(|a, b| {
        a.lifetime
            .years()
            .partial_cmp(&b.lifetime.years())
            .expect("lifetimes are finite")
    });
    Ok(DegradationSchedule { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{characterize_component, CharacterizationConfig, ComponentKind};
    use aix_cells::Library;
    use aix_synth::Effort;
    use std::sync::Arc;

    fn setup() -> (Arc<Library>, MicroarchDesign, ApproxLibrary) {
        let cells = Arc::new(Library::nangate45_like());
        let effort = Effort::Medium;
        let mut design = MicroarchDesign::new("sched", effort);
        design
            .add_block(&cells, "multiplier", ComponentKind::Multiplier, 12)
            .expect("synthesis");
        let mut library = ApproxLibrary::new();
        let config = CharacterizationConfig {
            kind: ComponentKind::Multiplier,
            width: 12,
            precisions: (4..=12).rev().collect(),
            scenarios: [0.5, 1.0, 3.0, 10.0]
                .iter()
                .map(|&y| AgingScenario::worst_case(Lifetime::from_years(y)))
                .chain([AgingScenario::Fresh])
                .collect(),
            effort,
        };
        library.insert(characterize_component(&cells, &config).expect("characterization"));
        (cells, design, library)
    }

    #[test]
    fn schedule_is_monotone_and_ends_truncated() {
        let (_cells, design, library) = setup();
        let model = AgingModel::calibrated();
        let schedule = plan_degradation_schedule(
            &design,
            &library,
            &model,
            StressCondition::Worst,
            &[
                Lifetime::from_years(0.5),
                Lifetime::YEARS_1,
                Lifetime::from_years(3.0),
                Lifetime::YEARS_10,
            ],
        )
        .expect("schedule");
        assert!(schedule.is_monotone(), "{schedule:?}");
        let young = schedule
            .precision_at("multiplier", Lifetime::from_years(0.5))
            .expect("planned block");
        let old = schedule
            .precision_at("multiplier", Lifetime::YEARS_10)
            .expect("planned block");
        assert!(
            young >= old,
            "a young circuit keeps more precision: {young} vs {old}"
        );
        assert!(old < 12, "end of life requires truncation");
    }

    #[test]
    fn precision_lookup_uses_the_protecting_checkpoint() {
        let (_cells, design, library) = setup();
        let model = AgingModel::calibrated();
        let schedule = plan_degradation_schedule(
            &design,
            &library,
            &model,
            StressCondition::Worst,
            &[Lifetime::YEARS_1, Lifetime::YEARS_10],
        )
        .expect("schedule");
        // An age between checkpoints is protected by the later plan.
        let mid = schedule
            .precision_at("multiplier", Lifetime::from_years(5.0))
            .expect("planned block");
        let ten = schedule
            .precision_at("multiplier", Lifetime::YEARS_10)
            .expect("planned block");
        assert_eq!(mid, ten);
        // Unknown blocks yield None.
        assert_eq!(schedule.precision_at("nope", Lifetime::YEARS_1), None);
    }

    #[test]
    fn empty_schedule_is_trivially_monotone() {
        let schedule = DegradationSchedule { steps: Vec::new() };
        assert!(schedule.is_monotone());
        assert_eq!(schedule.precision_at("x", Lifetime::YEARS_1), None);
    }
}
