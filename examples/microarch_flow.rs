//! The complete Fig. 6 flow on a small microarchitecture: build a library
//! of aging-induced approximations, compute per-block slacks under aging,
//! select precisions, validate, and compare against the aging-aware
//! synthesis baseline.
//!
//! Run with `cargo run --release --example microarch_flow`.

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::cells::Library;
use aix::core::{
    apply_aging_approximations, characterize_component, compare_against_aging_aware, ApproxLibrary,
    CharacterizationConfig, ComponentKind, MicroarchDesign,
};
use aix::synth::Effort;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cells = Arc::new(Library::nangate45_like());
    let effort = Effort::Medium;
    let model = AgingModel::calibrated();
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);

    // 1. A small video-filter-like design: one multiplier, one adder.
    let mut design = MicroarchDesign::new("filter", effort);
    design.add_block(&cells, "coeff-multiplier", ComponentKind::Multiplier, 16)?;
    design.add_block(&cells, "accumulator", ComponentKind::Adder, 16)?;
    let constraint = design.timing_constraint()?;
    println!("design `{}`: timing constraint {constraint}", design.name());

    // 2. Pre-characterize the components (one-time effort, reusable).
    let mut library = ApproxLibrary::new();
    for kind in [ComponentKind::Multiplier, ComponentKind::Adder] {
        let config = CharacterizationConfig {
            kind,
            width: 16,
            precisions: (6..=16).rev().collect(),
            scenarios: vec![AgingScenario::Fresh, scenario],
            effort,
        };
        library.insert(characterize_component(&cells, &config)?);
    }
    println!(
        "approximation library built ({} components)\n",
        library.len()
    );

    // 3. The Fig. 6 flow: slack -> precision per block.
    let plan = apply_aging_approximations(&design, &library, &model, scenario)?;
    for block in &plan.blocks {
        println!(
            "block {:<17} aged {:>6.1} ps, rel. slack {:>+6.1}% -> precision {}b (-{} bits)",
            block.name,
            block.aged_delay_ps,
            block.relative_slack * 100.0,
            block.precision,
            block.truncated_bits()
        );
    }

    // 4. Validate: re-synthesize at the chosen precisions, aged STA.
    let validation = plan.validate(&cells, effort, &model)?;
    println!(
        "\nvalidation: timing under {scenario} {}",
        if validation.timing_met {
            "MET"
        } else {
            "VIOLATED"
        }
    );

    // 5. Compare with the aging-aware synthesis baseline (Fig. 8c).
    let savings = compare_against_aging_aware(&design, &plan, &cells, &model, scenario, 200)?;
    println!(
        "vs aging-aware synthesis: {:+.1}% frequency, {:+.1}% area, {:+.1}% leakage, {:+.1}% energy",
        savings.frequency_gain() * 100.0,
        savings.area_saving() * 100.0,
        savings.leakage_saving() * 100.0,
        savings.energy_saving() * 100.0
    );
    Ok(())
}
