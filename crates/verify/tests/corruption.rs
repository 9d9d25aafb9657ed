//! Adversarial end-to-end tests: a deliberately corrupted approximation
//! library must be caught by verification, and the `Degrade` policy must
//! repair the flow so Eq. 2 measurably holds again.

use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::ComponentSpec;
use aix_cells::Library;
use aix_core::{
    characterize_component, ApproxLibrary, CharacterizationConfig, ComponentKind, MicroarchDesign,
};
use aix_sta::{analyze, NetDelays};
use aix_synth::Effort;
use aix_verify::{
    apply_aging_approximations_verified, verify_library, VerifyConfig, VerifyError, VerifyPolicy,
};
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

const SCENARIO: fn() -> AgingScenario = || AgingScenario::worst_case(Lifetime::YEARS_10);

/// Characterizes an honest 16-bit adder library, then corrupts it through
/// the text format: the first characterized precision *above* the genuine
/// Eq. 2 answer gets its aged delay edited down to just inside the
/// constraint, so the library now promises a precision that does not meet
/// its guarantee. Returns `(corrupted, honest_k, lying_k)`.
fn corrupted_library(cells: &Arc<Library>) -> (ApproxLibrary, usize, usize) {
    let mut honest = ApproxLibrary::new();
    honest.insert(
        characterize_component(
            cells,
            &CharacterizationConfig::quick(ComponentKind::Adder, 16),
        )
        .expect("characterize"),
    );
    let characterization = honest.get(ComponentKind::Adder, 16).unwrap();
    let honest_k = characterization
        .required_precision(SCENARIO())
        .expect("compensable");
    let lying_k = characterization
        .entries()
        .iter()
        .map(|e| e.precision)
        .filter(|&p| p > honest_k)
        .min()
        .expect("a precision above the honest answer exists");
    let constraint = characterization.fresh_full_delay_ps();

    // Tamper with the serialized artifact, then reload it through the
    // parser — the same path a hand-edited library file would take.
    let corrupted_text: String = honest
        .to_text()
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let is_target = fields.next() == Some("entry")
                && fields.next() == Some(&lying_k.to_string())
                && fields.next().is_some_and(|s| s.starts_with("wc:"));
            if is_target {
                format!("entry {} wc:10 {:.6}\n", lying_k, constraint - 1.0)
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let corrupted = ApproxLibrary::from_text(&corrupted_text).expect("tampered text still parses");
    let lied_to = corrupted
        .get(ComponentKind::Adder, 16)
        .unwrap()
        .required_precision(SCENARIO())
        .unwrap();
    assert_eq!(
        lied_to, lying_k,
        "corruption must raise the claimed Eq. 2 precision"
    );
    (corrupted, honest_k, lying_k)
}

fn single_adder_design(cells: &Arc<Library>) -> MicroarchDesign {
    let mut design = MicroarchDesign::new("corrupted-demo", Effort::Medium);
    design
        .add_block(cells, "adder", ComponentKind::Adder, 16)
        .expect("synthesize block");
    design
}

#[test]
fn campaign_catches_corrupted_entry() {
    let cells = cells();
    let (corrupted, _, lying_k) = corrupted_library(&cells);
    let report = verify_library(
        &cells,
        &corrupted,
        &AgingModel::calibrated(),
        &VerifyConfig::nominal(),
    )
    .expect("campaign runs");
    assert!(
        !report.all_passed(),
        "the lie must be detected:\n{}",
        report.render()
    );
    let failure = report.failures().next().expect("a failing entry");
    assert_eq!(failure.precision, Some(lying_k));
    let stats = failure.stats.expect("mc stats");
    assert!(stats.min_ps < 0.0, "measured margin must be negative");
    assert_eq!(stats.first_failure, Some(0));
    assert!(report.render().contains("FAIL"));
}

#[test]
fn failfast_rejects_corrupted_library() {
    let cells = cells();
    let (corrupted, _, lying_k) = corrupted_library(&cells);
    let design = single_adder_design(&cells);
    let err = apply_aging_approximations_verified(
        &cells,
        &design,
        &corrupted,
        &AgingModel::calibrated(),
        SCENARIO(),
        VerifyPolicy::FailFast,
        &VerifyConfig::nominal(),
    )
    .expect_err("failfast must abort");
    match err {
        VerifyError::GuaranteeViolated {
            block, precision, ..
        } => {
            assert_eq!(block, "adder");
            assert_eq!(precision, lying_k);
        }
        other => panic!("expected GuaranteeViolated, got {other}"),
    }
}

#[test]
fn degrade_repairs_corrupted_library_and_eq2_holds_measurably() {
    let cells = cells();
    let (corrupted, honest_k, lying_k) = corrupted_library(&cells);
    let design = single_adder_design(&cells);
    let model = AgingModel::calibrated();
    let verified = apply_aging_approximations_verified(
        &cells,
        &design,
        &corrupted,
        &model,
        SCENARIO(),
        VerifyPolicy::Degrade,
        &VerifyConfig::nominal(),
    )
    .expect("degrade must repair the plan");

    let block = &verified.blocks[0];
    assert_eq!(block.planned_precision, lying_k, "the flow was lied to");
    assert!(
        block.degraded_bits() >= 1,
        "repair must drop at least one more LSB"
    );
    assert!(
        block.final_precision < lying_k && block.final_precision >= honest_k,
        "degraded precision {} must land in [{honest_k}, {lying_k})",
        block.final_precision
    );
    assert!(block.passed);
    assert_eq!(verified.plan.blocks[0].precision, block.final_precision);

    // Eq. 2, asserted on silicon-level measurement rather than library
    // claims: the verified aged delay at the degraded precision never
    // exceeds the no-aging full-precision delay.
    let full = ComponentKind::Adder
        .synthesize(&cells, ComponentSpec::full(16), design.effort())
        .unwrap();
    let constraint = analyze(&full, &NetDelays::fresh(&full))
        .unwrap()
        .max_delay_ps();
    let repaired = ComponentKind::Adder
        .synthesize(
            &cells,
            ComponentSpec::new(16, block.final_precision).unwrap(),
            design.effort(),
        )
        .unwrap();
    let aged = analyze(&repaired, &NetDelays::aged(&repaired, &model, SCENARIO()))
        .unwrap()
        .max_delay_ps();
    assert!(
        aged <= constraint + 1e-9,
        "t_C(Aging, {}) = {aged:.1} ps must be <= t_C(noAging, 16) = {constraint:.1} ps",
        block.final_precision
    );
}

#[test]
fn degrade_exhaustion_surfaces_unrepairable_naming_the_block() {
    let cells = cells();
    let (corrupted, _, lying_k) = corrupted_library(&cells);
    let design = single_adder_design(&cells);
    // No retry budget at all: the first failed re-verification must give
    // up instead of silently stopping mid-repair.
    let mut config = VerifyConfig::nominal();
    config.max_degrade_steps = 0;
    let err = apply_aging_approximations_verified(
        &cells,
        &design,
        &corrupted,
        &AgingModel::calibrated(),
        SCENARIO(),
        VerifyPolicy::Degrade,
        &config,
    )
    .expect_err("an exhausted degrade budget must abort");
    // The rendered error — what the CLI shows — must name the block.
    assert!(err.to_string().contains("adder"), "{err}");
    match err {
        VerifyError::Unrepairable {
            block,
            precision,
            steps,
        } => {
            assert_eq!(block, "adder", "the violation names the block");
            assert_eq!(precision, lying_k, "and the precision that failed");
            assert_eq!(steps, 0, "no steps were available to spend");
        }
        other => panic!("expected Unrepairable, got {other}"),
    }
}

#[test]
fn warn_only_keeps_the_lying_precision_but_reports_it() {
    let cells = cells();
    let (corrupted, _, lying_k) = corrupted_library(&cells);
    let design = single_adder_design(&cells);
    let verified = apply_aging_approximations_verified(
        &cells,
        &design,
        &corrupted,
        &AgingModel::calibrated(),
        SCENARIO(),
        VerifyPolicy::WarnOnly,
        &VerifyConfig::nominal(),
    )
    .expect("warn-only never aborts");
    assert_eq!(verified.plan.blocks[0].precision, lying_k);
    let warnings: Vec<_> = verified.warnings().collect();
    assert_eq!(warnings.len(), 1);
    assert!(!warnings[0].passed);
}

#[test]
fn honest_library_passes_under_every_policy() {
    let cells = cells();
    let mut honest = ApproxLibrary::new();
    honest.insert(
        characterize_component(
            &cells,
            &CharacterizationConfig::quick(ComponentKind::Adder, 16),
        )
        .unwrap(),
    );
    let design = single_adder_design(&cells);
    let model = AgingModel::calibrated();
    for policy in [
        VerifyPolicy::WarnOnly,
        VerifyPolicy::Degrade,
        VerifyPolicy::FailFast,
    ] {
        let verified = apply_aging_approximations_verified(
            &cells,
            &design,
            &honest,
            &model,
            SCENARIO(),
            policy,
            &VerifyConfig::nominal(),
        )
        .unwrap_or_else(|e| panic!("honest library must pass under {policy}: {e}"));
        assert!(verified
            .blocks
            .iter()
            .all(|b| b.passed && b.degraded_bits() == 0));
    }
}
