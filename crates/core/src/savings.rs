//! Efficiency comparison against the aging-aware synthesis baseline
//! (paper Fig. 8c).
//!
//! The baseline [DAC'16] keeps full precision and suppresses aging by
//! re-sizing cells against degradation-aware timing — paying area, leakage
//! and dynamic power, and still clocking at its (residual) aged critical
//! path. Converting the guardband into approximations instead lets the
//! design clock at its fresh critical path with a *smaller* netlist.

use crate::{ApproximationPlan, MicroarchDesign};
use aix_aging::{AgingModel, AgingScenario};
use aix_arith::ComponentSpec;
use aix_cells::Library;
use aix_netlist::Netlist;
use aix_obs::names::core as names;
use aix_power::{analyze_power, PowerConfig};
use aix_sim::{Activity, NormalOperands, OperandSource};
use aix_sta::{analyze, NetDelays};
use aix_synth::aging_aware_synthesize;
#[cfg(test)]
use aix_synth::Effort;
use std::sync::Arc;

use crate::microarch::FlowError;

/// Area/power/timing metrics of one complete design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignMetrics {
    /// Clock period the design runs at, in ps.
    pub clock_ps: f64,
    /// Total area over all blocks, in µm².
    pub area_um2: f64,
    /// Total leakage, in µW.
    pub leakage_uw: f64,
    /// Total dynamic power at the design's clock, in µW.
    pub dynamic_uw: f64,
}

impl DesignMetrics {
    /// Clock frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        1000.0 / self.clock_ps
    }

    /// Energy per clock cycle, in fJ.
    pub fn energy_per_cycle_fj(&self) -> f64 {
        (self.leakage_uw + self.dynamic_uw) / self.frequency_ghz()
    }
}

/// The Fig. 8c comparison: our aging-induced approximations versus
/// aging-aware synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsReport {
    /// Metrics of the approximated design (ours).
    pub ours: DesignMetrics,
    /// Metrics of the aging-aware-synthesis baseline.
    pub baseline: DesignMetrics,
}

impl SavingsReport {
    /// Relative frequency gain of ours over the baseline (positive = faster).
    pub fn frequency_gain(&self) -> f64 {
        self.ours.frequency_ghz() / self.baseline.frequency_ghz() - 1.0
    }

    /// Relative area saving (positive = smaller).
    pub fn area_saving(&self) -> f64 {
        1.0 - self.ours.area_um2 / self.baseline.area_um2
    }

    /// Relative leakage saving.
    pub fn leakage_saving(&self) -> f64 {
        1.0 - self.ours.leakage_uw / self.baseline.leakage_uw
    }

    /// Relative dynamic-power saving.
    pub fn dynamic_saving(&self) -> f64 {
        1.0 - self.ours.dynamic_uw / self.baseline.dynamic_uw
    }

    /// Relative energy-per-cycle saving.
    pub fn energy_saving(&self) -> f64 {
        1.0 - self.ours.energy_per_cycle_fj() / self.baseline.energy_per_cycle_fj()
    }
}

/// Collects area/leakage/dynamic metrics of a set of block netlists at a
/// given clock, using normally distributed stimuli for activity.
fn design_metrics(
    blocks: &[(usize, Netlist)],
    clock_ps: f64,
    activity_vectors: usize,
) -> Result<DesignMetrics, FlowError> {
    let _span = aix_obs::span!(
        names::SPAN_DESIGN_METRICS,
        blocks = blocks.len(),
        vectors = activity_vectors,
    );
    let config = PowerConfig::at_period_ps(clock_ps);
    let mut area = 0.0;
    let mut leakage = 0.0;
    let mut dynamic = 0.0;
    for (seed, (operand_width, netlist)) in blocks.iter().enumerate() {
        let padding = netlist.inputs().len() - 2 * operand_width;
        let stimuli = NormalOperands::new(*operand_width, seed as u64 + 1)
            .vectors_with_zeros(activity_vectors, padding);
        let activity = Activity::collect(netlist, stimuli)?;
        let report = analyze_power(netlist, &activity, &config);
        area += report.area_um2;
        leakage += report.leakage_uw;
        dynamic += report.dynamic_uw;
    }
    Ok(DesignMetrics {
        clock_ps,
        area_um2: area,
        leakage_uw: leakage,
        dynamic_uw: dynamic,
    })
}

/// Builds both designs and compares them (Fig. 8c):
///
/// * **ours** — every block re-synthesized at its planned precision,
///   clocked at the fresh constraint (no guardband; aging is absorbed by
///   the approximations).
/// * **baseline** — full-precision blocks re-sized by aging-aware synthesis
///   against `scenario`, clocked at the slowest block's residual aged
///   delay.
///
/// # Errors
///
/// Propagates synthesis/STA failures.
pub fn compare_against_aging_aware(
    design: &MicroarchDesign,
    plan: &ApproximationPlan,
    library: &Arc<Library>,
    model: &AgingModel,
    scenario: AgingScenario,
    activity_vectors: usize,
) -> Result<SavingsReport, FlowError> {
    let _span = aix_obs::span!(names::SPAN_SAVINGS_COMPARE, blocks = plan.blocks.len());
    // Ours: planned precisions at the fresh constraint.
    let mut ours_blocks = Vec::new();
    for block in &plan.blocks {
        let spec =
            ComponentSpec::new(block.width, block.precision).expect("plan precisions are valid");
        let netlist = block
            .kind
            .synthesize(library, spec, design.effort())
            .map_err(FlowError::Netlist)?;
        ours_blocks.push((block.width, netlist));
    }
    let ours = design_metrics(&ours_blocks, plan.constraint_ps, activity_vectors)?;

    // Baseline: aging-aware re-sizing of the full-precision blocks.
    let mut baseline_clock = 0.0f64;
    let mut baseline_blocks = Vec::new();
    for block in design.blocks() {
        let mut netlist = block.netlist.clone();
        let iterations = netlist.gate_count().min(400);
        aging_aware_synthesize(
            &mut netlist,
            model,
            scenario,
            plan.constraint_ps,
            iterations,
        )?;
        let aged = analyze(&netlist, &NetDelays::aged(&netlist, model, scenario))?;
        baseline_clock = baseline_clock.max(aged.max_delay_ps());
        baseline_blocks.push((block.width, netlist));
    }
    let baseline = design_metrics(&baseline_blocks, baseline_clock, activity_vectors)?;

    Ok(SavingsReport { ours, baseline })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        apply_aging_approximations, characterize_component, ApproxLibrary, CharacterizationConfig,
        ComponentKind,
    };
    use aix_aging::Lifetime;

    #[test]
    fn approximations_beat_the_baseline_on_every_axis() {
        let cells = Arc::new(Library::nangate45_like());
        let effort = Effort::Medium;
        let mut design = MicroarchDesign::new("mini", effort);
        design
            .add_block(&cells, "multiplier", ComponentKind::Multiplier, 12)
            .unwrap();
        design
            .add_block(&cells, "accumulator", ComponentKind::Adder, 12)
            .unwrap();

        let mut library = ApproxLibrary::new();
        let config = CharacterizationConfig {
            kind: ComponentKind::Multiplier,
            width: 12,
            precisions: (3..=12).rev().collect(),
            scenarios: vec![
                AgingScenario::Fresh,
                AgingScenario::worst_case(Lifetime::YEARS_10),
            ],
            effort,
        };
        library.insert(characterize_component(&cells, &config).unwrap());

        let model = AgingModel::calibrated();
        let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
        let plan = apply_aging_approximations(&design, &library, &model, scenario).unwrap();
        let report =
            compare_against_aging_aware(&design, &plan, &cells, &model, scenario, 100).unwrap();

        assert!(
            report.frequency_gain() > 0.0,
            "removing the guardband must be faster: {:+.1}%",
            report.frequency_gain() * 100.0
        );
        assert!(report.area_saving() > 0.0, "truncation saves area");
        assert!(report.leakage_saving() > 0.0, "fewer gates leak less");
        assert!(report.energy_saving() > 0.0, "net energy saving");
    }
}
