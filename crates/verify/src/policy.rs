//! Verification policies gating the microarchitecture flow.
//!
//! [`aix_core::apply_aging_approximations`] trusts the approximation
//! library. This module wraps it with a configurable trust level: after
//! planning, every block is re-synthesized at its planned precision and
//! its Eq. 2 guarantee re-checked under Monte-Carlo perturbation. On
//! failure the policy decides: warn, abort, or *degrade gracefully* — drop
//! one more LSB and re-verify, bounded, until the measured aged delay
//! really meets the fresh full-precision constraint.

use crate::campaign::{measure_margins, MarginStats, VerifyConfig};
use aix_aging::AgingModel;
use aix_arith::ComponentSpec;
use aix_cells::Library;
use aix_core::{
    apply_aging_approximations, AixError, ApproxLibrary, ApproximationPlan, MicroarchDesign,
};
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// How strictly the flow treats verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// Trust the library; no re-verification (the seed behaviour).
    Off,
    /// Verify and report failures, but keep the planned precisions.
    WarnOnly,
    /// Verify and, on failure, truncate one more LSB and re-verify
    /// (bounded by [`VerifyConfig::max_degrade_steps`]).
    #[default]
    Degrade,
    /// Verify and abort on the first failure.
    FailFast,
}

impl fmt::Display for VerifyPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VerifyPolicy::Off => "off",
            VerifyPolicy::WarnOnly => "warn",
            VerifyPolicy::Degrade => "degrade",
            VerifyPolicy::FailFast => "failfast",
        })
    }
}

/// Error returned when parsing a [`VerifyPolicy`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown verify policy `{}`: expected off|warn|degrade|failfast",
            self.0
        )
    }
}

impl Error for ParsePolicyError {}

impl FromStr for VerifyPolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyPolicy::Off),
            "warn" | "warnonly" | "warn-only" => Ok(VerifyPolicy::WarnOnly),
            "degrade" => Ok(VerifyPolicy::Degrade),
            "failfast" | "fail-fast" => Ok(VerifyPolicy::FailFast),
            other => Err(ParsePolicyError(other.to_owned())),
        }
    }
}

/// Errors produced by the verified flow.
#[derive(Debug)]
pub enum VerifyError {
    /// An underlying flow, synthesis or STA failure.
    Aix(AixError),
    /// `FailFast`: a block's guarantee did not survive verification.
    GuaranteeViolated {
        /// Block name.
        block: String,
        /// Planned precision that failed.
        precision: usize,
        /// Worst margin observed, in ps (negative: violation amount).
        min_margin_ps: f64,
    },
    /// `Degrade`: the retry budget (or the precision floor) was exhausted
    /// without reaching the margin target.
    Unrepairable {
        /// Block name.
        block: String,
        /// Last precision tried.
        precision: usize,
        /// Degradation steps spent.
        steps: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Aix(e) => write!(f, "{e}"),
            VerifyError::GuaranteeViolated {
                block,
                precision,
                min_margin_ps,
            } => write!(
                f,
                "block `{block}` violates its guarantee at precision {precision} (worst margin {min_margin_ps:.1} ps)"
            ),
            VerifyError::Unrepairable {
                block,
                precision,
                steps,
            } => write!(
                f,
                "block `{block}` still fails after {steps} degradation steps (down to precision {precision})"
            ),
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::Aix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AixError> for VerifyError {
    fn from(value: AixError) -> Self {
        VerifyError::Aix(value)
    }
}

impl From<aix_core::FlowError> for VerifyError {
    fn from(value: aix_core::FlowError) -> Self {
        VerifyError::Aix(value.into())
    }
}

impl From<aix_netlist::NetlistError> for VerifyError {
    fn from(value: aix_netlist::NetlistError) -> Self {
        VerifyError::Aix(value.into())
    }
}

impl From<aix_arith::InvalidSpecError> for VerifyError {
    fn from(value: aix_arith::InvalidSpecError) -> Self {
        VerifyError::Aix(value.into())
    }
}

/// What verification did to one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVerification {
    /// Block name.
    pub name: String,
    /// Precision the unverified flow planned.
    pub planned_precision: usize,
    /// Precision after verification (differs only under `Degrade`).
    pub final_precision: usize,
    /// Margin statistics at the final precision.
    pub stats: MarginStats,
    /// Whether the final precision meets the margin target on every sample.
    pub passed: bool,
}

impl BlockVerification {
    /// Extra LSBs the `Degrade` policy dropped beyond the plan.
    pub fn degraded_bits(&self) -> usize {
        self.planned_precision - self.final_precision
    }
}

/// An [`ApproximationPlan`] that survived verification, with the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedPlan {
    /// The (possibly degraded) plan.
    pub plan: ApproximationPlan,
    /// The policy that produced it.
    pub policy: VerifyPolicy,
    /// Per-block verification outcomes, in plan order (empty for
    /// [`VerifyPolicy::Off`]).
    pub blocks: Vec<BlockVerification>,
}

impl VerifiedPlan {
    /// Blocks whose final precision still misses the margin target
    /// (non-empty only under `WarnOnly`).
    pub fn warnings(&self) -> impl Iterator<Item = &BlockVerification> {
        self.blocks.iter().filter(|b| !b.passed)
    }
}

/// Runs the paper's Fig. 6 flow with verification layered on top: plan via
/// [`apply_aging_approximations`], then re-synthesize every block at its
/// planned precision and re-check the constraint under Monte-Carlo
/// perturbation, applying `policy` to failures.
///
/// Under [`VerifyPolicy::Degrade`] the returned plan's precisions may be
/// lower than planned, and are guaranteed to have *measured* aged delays
/// within the design's fresh full-precision constraint (Eq. 2) on every
/// sample drawn.
///
/// # Errors
///
/// Propagates flow errors, [`VerifyError::GuaranteeViolated`] under
/// `FailFast`, and [`VerifyError::Unrepairable`] when degradation cannot
/// repair a block.
pub fn apply_aging_approximations_verified(
    cells: &Arc<Library>,
    design: &MicroarchDesign,
    library: &ApproxLibrary,
    model: &AgingModel,
    scenario: aix_aging::AgingScenario,
    policy: VerifyPolicy,
    config: &VerifyConfig,
) -> Result<VerifiedPlan, VerifyError> {
    let mut plan = apply_aging_approximations(design, library, model, scenario)?;
    if policy == VerifyPolicy::Off {
        return Ok(VerifiedPlan {
            plan,
            policy,
            blocks: Vec::new(),
        });
    }

    let mut verifications = Vec::with_capacity(plan.blocks.len());
    for block in &mut plan.blocks {
        let planned = block.precision;
        let mut precision = planned;
        let mut steps = 0usize;
        let stats = loop {
            let spec = ComponentSpec::new(block.width, precision)?;
            let netlist = block.kind.synthesize(cells, spec, design.effort())?;
            let label = format!("{}-K{}@{}", block.name, precision, scenario);
            let (_, margins) = measure_margins(
                &netlist,
                model,
                scenario,
                plan.constraint_ps,
                config,
                &label,
            )?;
            let stats = MarginStats::from_margins(&margins, config.margin_target_ps);
            if stats.first_failure.is_none() {
                break stats;
            }
            match policy {
                VerifyPolicy::Off => unreachable!("handled above"),
                VerifyPolicy::WarnOnly => break stats,
                VerifyPolicy::FailFast => {
                    return Err(VerifyError::GuaranteeViolated {
                        block: block.name.clone(),
                        precision,
                        min_margin_ps: stats.min_ps,
                    });
                }
                VerifyPolicy::Degrade => {
                    if precision <= 1 || steps >= config.max_degrade_steps {
                        return Err(VerifyError::Unrepairable {
                            block: block.name.clone(),
                            precision,
                            steps,
                        });
                    }
                    precision -= 1;
                    steps += 1;
                }
            }
        };
        let passed = stats.first_failure.is_none();
        block.precision = precision;
        verifications.push(BlockVerification {
            name: block.name.clone(),
            planned_precision: planned,
            final_precision: precision,
            stats,
            passed,
        });
    }

    Ok(VerifiedPlan {
        plan,
        policy,
        blocks: verifications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_tokens_roundtrip() {
        for policy in [
            VerifyPolicy::Off,
            VerifyPolicy::WarnOnly,
            VerifyPolicy::Degrade,
            VerifyPolicy::FailFast,
        ] {
            assert_eq!(policy.to_string().parse::<VerifyPolicy>().unwrap(), policy);
        }
        assert!("sometimes".parse::<VerifyPolicy>().is_err());
        assert_eq!(
            "warn-only".parse::<VerifyPolicy>().unwrap(),
            VerifyPolicy::WarnOnly
        );
        assert_eq!(VerifyPolicy::default(), VerifyPolicy::Degrade);
    }

    #[test]
    fn verify_error_displays_name_the_block() {
        let violated = VerifyError::GuaranteeViolated {
            block: "multiplier".into(),
            precision: 12,
            min_margin_ps: -3.5,
        };
        assert!(violated.to_string().contains("multiplier"));
        assert!(violated.to_string().contains("-3.5"));
        let unrepairable = VerifyError::Unrepairable {
            block: "mac".into(),
            precision: 4,
            steps: 8,
        };
        assert!(unrepairable.to_string().contains("8 degradation steps"));
    }
}
