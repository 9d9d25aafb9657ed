//! Shape-level assertions of the paper's key claims, at test-friendly
//! scale. Each test pins the *direction and rough factor* of one reported
//! result; the full-scale numbers live in the `exp-*` binaries and
//! EXPERIMENTS.md.

use aix::aging::{AgingModel, AgingScenario, Lifetime, StressFactor};
use aix::cells::Library;
use aix::core::{
    apply_aging_approximations, average_psnr_db, characterize_component,
    compare_against_aging_aware, evaluate_sequences, ApproxLibrary, CharacterizationConfig,
    ComponentKind, MicroarchDesign,
};
use aix::dct::DatapathPrecision;
use aix::image::Sequence;
use aix::synth::Effort;
use std::sync::Arc;

/// §I / Eq. 1 — aging demands a double-digit guardband over ten years.
#[test]
fn guardband_magnitude_matches_paper() {
    let model = AgingModel::calibrated();
    let wc10 = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_10);
    let wc1 = model.delay_factor(StressFactor::WORST, Lifetime::YEARS_1);
    assert!((0.15..0.18).contains(&(wc10 - 1.0)), "10y: {wc10}");
    assert!((0.09..0.13).contains(&(wc1 - 1.0)), "1y: {wc1}");
}

/// §VI headline — a handful of truncated bits absorbs worst-case aging on
/// the critical multiplier, and only there.
#[test]
fn idct_flow_headline_shape() {
    let cells = Arc::new(Library::nangate45_like());
    let effort = Effort::Medium;
    let width = 16;
    let mut library = ApproxLibrary::new();
    library.insert(
        characterize_component(
            &cells,
            &CharacterizationConfig {
                kind: ComponentKind::Multiplier,
                width,
                precisions: (4..=width).rev().collect(),
                scenarios: vec![
                    AgingScenario::Fresh,
                    AgingScenario::worst_case(Lifetime::YEARS_10),
                ],
                effort,
            },
        )
        .expect("characterization"),
    );
    let mut design = MicroarchDesign::new("mini-idct", effort);
    design
        .add_block(&cells, "multiplier", ComponentKind::Multiplier, width)
        .expect("synthesis");
    design
        .add_block(&cells, "accumulator", ComponentKind::Adder, width)
        .expect("synthesis");
    let model = AgingModel::calibrated();
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
    let plan = apply_aging_approximations(&design, &library, &model, scenario).expect("flow");

    let mult = plan.block("multiplier").expect("plan entry");
    let adder = plan.block("accumulator").expect("plan entry");
    assert!(
        (1..=8).contains(&mult.truncated_bits()),
        "a handful of bits absorbs aging, got {}",
        mult.truncated_bits()
    );
    assert_eq!(adder.truncated_bits(), 0, "non-critical blocks stay exact");
    assert!(
        (-0.25..0.0).contains(&mult.relative_slack),
        "negative relative slack of the right magnitude: {}",
        mult.relative_slack
    );
    assert!(
        plan.validate(&cells, effort, &model)
            .expect("validation")
            .timing_met
    );
}

/// Fig. 8(b) — the quality cost of the headline truncation is mild: the
/// average PSNR drop is single-digit dB and `mobile` is the worst content.
#[test]
fn quality_shape_matches_fig8b() {
    let precision = DatapathPrecision::new(9, 0);
    let results = evaluate_sequences(precision, 88, 72);
    let average = average_psnr_db(&results);
    let exact: f64 = results.iter().map(|r| r.exact_psnr_db).sum::<f64>() / results.len() as f64;
    let drop = exact - average;
    assert!(
        (0.1..12.0).contains(&drop),
        "average drop should be mild, got {drop:.1} dB"
    );
    let worst = results
        .iter()
        .min_by(|a, b| a.psnr_db.partial_cmp(&b.psnr_db).expect("finite"))
        .expect("nine sequences");
    assert_eq!(
        worst.sequence,
        Sequence::Mobile,
        "mobile is the hardest content"
    );
    assert!(average > 25.0, "average stays usable: {average:.1} dB");
}

/// Fig. 8(c) — converting guardbands into approximations beats aging-aware
/// synthesis on frequency, area, leakage and energy simultaneously.
#[test]
fn savings_shape_matches_fig8c() {
    let cells = Arc::new(Library::nangate45_like());
    let effort = Effort::Medium;
    let width = 12;
    let mut library = ApproxLibrary::new();
    library.insert(
        characterize_component(
            &cells,
            &CharacterizationConfig {
                kind: ComponentKind::Multiplier,
                width,
                precisions: (4..=width).rev().collect(),
                scenarios: vec![
                    AgingScenario::Fresh,
                    AgingScenario::worst_case(Lifetime::YEARS_10),
                ],
                effort,
            },
        )
        .expect("characterization"),
    );
    let mut design = MicroarchDesign::new("mini", effort);
    design
        .add_block(&cells, "multiplier", ComponentKind::Multiplier, width)
        .expect("synthesis");
    let model = AgingModel::calibrated();
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
    let plan = apply_aging_approximations(&design, &library, &model, scenario).expect("flow");
    let savings = compare_against_aging_aware(&design, &plan, &cells, &model, scenario, 150)
        .expect("comparison");
    assert!(savings.frequency_gain() > 0.0, "faster than the baseline");
    assert!(savings.area_saving() > 0.0, "smaller than the baseline");
    assert!(
        savings.leakage_saving() > 0.0,
        "leaks less than the baseline"
    );
    assert!(
        savings.energy_saving() > 0.0,
        "more efficient than the baseline"
    );
    // Rough factor: the paper reports low-double-digit percentages.
    assert!(
        savings.area_saving() < 0.8,
        "sanity: savings are percentages, not collapse"
    );
}
