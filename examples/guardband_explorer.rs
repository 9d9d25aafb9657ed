//! Guardband explorer: sweep lifetime and stress and report, for each RTL
//! component, the timing guardband aging would require and the precision
//! reduction that removes it.
//!
//! Run with `cargo run --release --example guardband_explorer`.

use aix::aging::{AgingScenario, Lifetime};
use aix::cells::Library;
use aix::core::{characterize_component, CharacterizationConfig, ComponentKind};
use aix::synth::Effort;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cells = Arc::new(Library::nangate45_like());
    let width = 16;
    println!("{width}-bit components, medium synthesis effort\n");
    for kind in ComponentKind::ALL {
        let config = CharacterizationConfig {
            kind,
            width,
            precisions: (width / 2..=width).rev().collect(),
            scenarios: lifetimes_and_stresses(),
            effort: Effort::Medium,
        };
        let characterization = characterize_component(&cells, &config)?;
        let constraint = characterization.fresh_full_delay_ps();
        println!("{kind}-{width}  (fresh critical path {constraint:.0} ps)");
        println!(
            "  {:<14} {:>14} {:>22}",
            "scenario", "guardband", "Eq. 2 precision"
        );
        for scenario in lifetimes_and_stresses().into_iter().skip(1) {
            let guardband = characterization
                .guardband_ps(width, scenario)
                .expect("characterized");
            let precision = characterization.required_precision(scenario);
            println!(
                "  {:<14} {:>10.1} ps {:>22}",
                scenario.to_string(),
                guardband,
                match precision {
                    Some(p) => format!("{p}b (-{} bits)", width - p),
                    None => "not compensable".into(),
                }
            );
        }
        println!();
    }
    println!(
        "reading: the guardband grows with lifetime and stress; every listed\n\
         scenario can instead be absorbed by truncating the listed number of bits."
    );
    Ok(())
}

fn lifetimes_and_stresses() -> Vec<AgingScenario> {
    let mut scenarios = vec![AgingScenario::Fresh];
    for years in [1.0, 3.0, 10.0] {
        scenarios.push(AgingScenario::balanced(Lifetime::from_years(years)));
        scenarios.push(AgingScenario::worst_case(Lifetime::from_years(years)));
    }
    scenarios
}
