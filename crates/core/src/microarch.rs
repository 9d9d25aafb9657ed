//! The microarchitecture-level flow (paper Fig. 6): convert per-block aged
//! slack into per-component precision reductions, then validate.

use crate::{ApproxLibrary, ComponentKind};
use aix_aging::{AgingModel, AgingScenario};
use aix_arith::ComponentSpec;
use aix_cells::Library;
use aix_netlist::{Netlist, NetlistError};
use aix_sta::{analyze, ClockConstraint, NetDelays};
use aix_synth::Effort;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// One register-transfer block of a microarchitecture: a named datapath
/// component with its synthesized netlist.
#[derive(Debug, Clone)]
pub struct MicroarchBlock {
    /// Block name (e.g. `"multiplier"`).
    pub name: String,
    /// The RTL component family inside the block.
    pub kind: ComponentKind,
    /// Full operand width.
    pub width: usize,
    /// The block's synthesized full-precision netlist.
    pub netlist: Netlist,
}

/// A whole microarchitecture: a set of combinational blocks between
/// register stages, all clocked with one period.
#[derive(Debug, Clone)]
pub struct MicroarchDesign {
    name: String,
    effort: Effort,
    blocks: Vec<MicroarchBlock>,
}

impl MicroarchDesign {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>, effort: Effort) -> Self {
        Self {
            name: name.into(),
            effort,
            blocks: Vec::new(),
        }
    }

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Synthesis effort used for the blocks.
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// The design's blocks.
    pub fn blocks(&self) -> &[MicroarchBlock] {
        &self.blocks
    }

    /// Synthesizes and appends a block.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn add_block(
        &mut self,
        library: &Arc<Library>,
        name: impl Into<String>,
        kind: ComponentKind,
        width: usize,
    ) -> Result<(), NetlistError> {
        let netlist = kind.synthesize(library, ComponentSpec::full(width), self.effort)?;
        self.blocks.push(MicroarchBlock {
            name: name.into(),
            kind,
            width,
            netlist,
        });
        Ok(())
    }

    /// The design-time timing constraint `t_CP(noAging)`: the largest fresh
    /// critical-path delay over all blocks — the clock the design must keep
    /// meeting for its whole lifetime once the guardband is removed.
    ///
    /// # Errors
    ///
    /// Propagates STA errors.
    pub fn timing_constraint(&self) -> Result<ClockConstraint, NetlistError> {
        let mut worst = 0.0f64;
        for block in &self.blocks {
            let delay = analyze(&block.netlist, &NetDelays::fresh(&block.netlist))?.max_delay_ps();
            worst = worst.max(delay);
        }
        Ok(ClockConstraint::from_period_ps(worst))
    }
}

/// The flow's decision for one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Block name.
    pub name: String,
    /// Component family.
    pub kind: ComponentKind,
    /// Full operand width.
    pub width: usize,
    /// Fresh critical-path delay, in ps.
    pub fresh_delay_ps: f64,
    /// Aged critical-path delay at full precision, in ps.
    pub aged_delay_ps: f64,
    /// Absolute slack against the design constraint, in ps.
    pub slack_ps: f64,
    /// Relative slack (`slack / t_clock`) — the paper's library index.
    pub relative_slack: f64,
    /// The precision the flow selected (equals `width` when no
    /// approximation is needed).
    pub precision: usize,
}

impl BlockPlan {
    /// Number of truncated bits the plan assigns to this block.
    pub fn truncated_bits(&self) -> usize {
        self.width - self.precision
    }
}

/// The complete approximation plan for a design under one aging scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximationPlan {
    /// Scenario the plan protects against.
    pub scenario: AgingScenario,
    /// The design constraint, in ps.
    pub constraint_ps: f64,
    /// Per-block decisions, in design order.
    pub blocks: Vec<BlockPlan>,
}

impl ApproximationPlan {
    /// The plan entry for a named block.
    pub fn block(&self, name: &str) -> Option<&BlockPlan> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Whether any block was approximated at all.
    pub fn has_approximations(&self) -> bool {
        self.blocks.iter().any(|b| b.truncated_bits() > 0)
    }
}

/// Errors produced by the microarchitecture flow.
#[derive(Debug)]
pub enum FlowError {
    /// The approximation library holds no characterization for a block.
    MissingCharacterization {
        /// Component family of the block.
        kind: ComponentKind,
        /// Operand width of the block.
        width: usize,
    },
    /// The library's characterized precisions cannot compensate the slack.
    Uncompensable {
        /// Block name.
        block: String,
        /// The relative slack that could not be absorbed.
        relative_slack: f64,
    },
    /// A netlist-level failure.
    Netlist(NetlistError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::MissingCharacterization { kind, width } => write!(
                f,
                "approximation library lacks a characterization for {width}-bit {kind}"
            ),
            FlowError::Uncompensable {
                block,
                relative_slack,
            } => write!(
                f,
                "block `{block}` slack of {:.1}% cannot be compensated by any characterized precision",
                relative_slack * 100.0
            ),
            FlowError::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for FlowError {
    fn from(value: NetlistError) -> Self {
        FlowError::Netlist(value)
    }
}

/// Runs the paper's Fig. 6 flow:
///
/// 1. obtain the timing constraint `t_CP(noAging)`,
/// 2. aging-aware STA per block → slack,
/// 3. for blocks with negative slack, look the required precision up in
///    the pre-built [`ApproxLibrary`] via the relative slack,
/// 4. blocks with non-negative slack keep full precision.
///
/// No gate-level simulation is involved anywhere.
///
/// # Errors
///
/// Returns [`FlowError::MissingCharacterization`] for uncharacterized
/// blocks, [`FlowError::Uncompensable`] when the library cannot absorb a
/// block's slack, and propagates STA failures.
pub fn apply_aging_approximations(
    design: &MicroarchDesign,
    library: &ApproxLibrary,
    model: &AgingModel,
    scenario: AgingScenario,
) -> Result<ApproximationPlan, FlowError> {
    let constraint = design.timing_constraint()?;
    let mut blocks = Vec::with_capacity(design.blocks().len());
    for block in design.blocks() {
        let fresh = analyze(&block.netlist, &NetDelays::fresh(&block.netlist))?;
        let aged = analyze(
            &block.netlist,
            &NetDelays::aged(&block.netlist, model, scenario),
        )?;
        let slack_ps = constraint.slack_ps(&aged);
        let relative_slack = constraint.relative_slack(&aged);
        let precision = if slack_ps >= 0.0 {
            block.width
        } else {
            let characterization =
                library
                    .get(block.kind, block.width)
                    .ok_or(FlowError::MissingCharacterization {
                        kind: block.kind,
                        width: block.width,
                    })?;
            characterization
                .precision_for_relative_slack(scenario, relative_slack)
                .ok_or_else(|| FlowError::Uncompensable {
                    block: block.name.clone(),
                    relative_slack,
                })?
        };
        blocks.push(BlockPlan {
            name: block.name.clone(),
            kind: block.kind,
            width: block.width,
            fresh_delay_ps: fresh.max_delay_ps(),
            aged_delay_ps: aged.max_delay_ps(),
            slack_ps,
            relative_slack,
            precision,
        });
    }
    Ok(ApproximationPlan {
        scenario,
        constraint_ps: constraint.period_ps(),
        blocks,
    })
}

/// Result of validating an [`ApproximationPlan`] (the final step of
/// Fig. 6): every approximated block is re-synthesized at its selected
/// precision and checked against the constraint under aging.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// The design constraint, in ps.
    pub constraint_ps: f64,
    /// Aged delay of every re-synthesized block, in plan order.
    pub aged_delays_ps: Vec<(String, f64)>,
    /// Whether every block meets the constraint under aging.
    pub timing_met: bool,
}

impl ApproximationPlan {
    /// Re-synthesizes every block at its planned precision and verifies
    /// `∀k: t_Bk(Aging) ≤ t_CP(noAging)`.
    ///
    /// # Errors
    ///
    /// Propagates synthesis/STA failures.
    pub fn validate(
        &self,
        library: &Arc<Library>,
        effort: Effort,
        model: &AgingModel,
    ) -> Result<ValidationReport, FlowError> {
        let mut aged_delays = Vec::with_capacity(self.blocks.len());
        let mut timing_met = true;
        for block in &self.blocks {
            let spec = ComponentSpec::new(block.width, block.precision)
                .expect("plan precisions are valid by construction");
            let netlist = block
                .kind
                .synthesize(library, spec, effort)
                .map_err(FlowError::Netlist)?;
            let aged = analyze(&netlist, &NetDelays::aged(&netlist, model, self.scenario))?;
            if aged.max_delay_ps() > self.constraint_ps + 1e-9 {
                timing_met = false;
            }
            aged_delays.push((block.name.clone(), aged.max_delay_ps()));
        }
        Ok(ValidationReport {
            constraint_ps: self.constraint_ps,
            aged_delays_ps: aged_delays,
            timing_met,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{characterize_component, CharacterizationConfig};
    use aix_aging::Lifetime;

    fn cells() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn full_library(cells: &Arc<Library>, effort: Effort) -> ApproxLibrary {
        let mut lib = ApproxLibrary::new();
        for kind in [ComponentKind::Adder, ComponentKind::Multiplier] {
            let config = CharacterizationConfig {
                kind,
                width: 16,
                precisions: (4..=16).rev().collect(),
                scenarios: vec![
                    AgingScenario::Fresh,
                    AgingScenario::worst_case(Lifetime::YEARS_10),
                ],
                effort,
            };
            lib.insert(characterize_component(cells, &config).unwrap());
        }
        lib
    }

    fn demo_design(cells: &Arc<Library>, effort: Effort) -> MicroarchDesign {
        let mut design = MicroarchDesign::new("demo", effort);
        design
            .add_block(cells, "multiplier", ComponentKind::Multiplier, 16)
            .unwrap();
        design
            .add_block(cells, "accumulator", ComponentKind::Adder, 16)
            .unwrap();
        design
    }

    #[test]
    fn constraint_is_worst_block() {
        let cells = cells();
        let design = demo_design(&cells, Effort::Medium);
        let constraint = design.timing_constraint().unwrap();
        // The multiplier dominates a 16-bit adder by a wide margin.
        let mult_delay = analyze(
            &design.blocks()[0].netlist,
            &NetDelays::fresh(&design.blocks()[0].netlist),
        )
        .unwrap()
        .max_delay_ps();
        assert!((constraint.period_ps() - mult_delay).abs() < 1e-9);
    }

    #[test]
    fn flow_approximates_critical_block_only() {
        let cells = cells();
        let effort = Effort::Medium;
        let design = demo_design(&cells, effort);
        let library = full_library(&cells, effort);
        let model = AgingModel::calibrated();
        let plan = apply_aging_approximations(
            &design,
            &library,
            &model,
            AgingScenario::worst_case(Lifetime::YEARS_10),
        )
        .unwrap();
        let mult = plan.block("multiplier").unwrap();
        let adder = plan.block("accumulator").unwrap();
        assert!(
            mult.truncated_bits() > 0,
            "the critical multiplier must be approximated"
        );
        assert_eq!(
            adder.truncated_bits(),
            0,
            "the adder has ample slack and stays exact"
        );
        assert!(mult.relative_slack < 0.0);
        assert!(adder.relative_slack > 0.0);
        assert!(plan.has_approximations());
    }

    #[test]
    fn validation_confirms_timing() {
        let cells = cells();
        let effort = Effort::Medium;
        let design = demo_design(&cells, effort);
        let library = full_library(&cells, effort);
        let model = AgingModel::calibrated();
        let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
        let plan = apply_aging_approximations(&design, &library, &model, scenario).unwrap();
        let report = plan.validate(&cells, effort, &model).unwrap();
        assert!(
            report.timing_met,
            "approximated design must meet timing under aging: {report:?}"
        );
        assert_eq!(report.aged_delays_ps.len(), 2);
    }

    #[test]
    fn missing_characterization_is_reported() {
        let cells = cells();
        let design = demo_design(&cells, Effort::Medium);
        let empty = ApproxLibrary::new();
        let model = AgingModel::calibrated();
        let err = apply_aging_approximations(
            &design,
            &empty,
            &model,
            AgingScenario::worst_case(Lifetime::YEARS_10),
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::MissingCharacterization { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn fresh_scenario_needs_no_approximation() {
        let cells = cells();
        let effort = Effort::Medium;
        let design = demo_design(&cells, effort);
        let library = full_library(&cells, effort);
        let model = AgingModel::calibrated();
        let plan =
            apply_aging_approximations(&design, &library, &model, AgingScenario::Fresh).unwrap();
        assert!(!plan.has_approximations());
    }
}
