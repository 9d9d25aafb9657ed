//! Artifact export: write the cell library (Liberty), the degradation-aware
//! stress tables, a synthesized netlist (structural Verilog + DOT) and the
//! characterization library to `out/` — everything a downstream EDA flow or
//! a curious reviewer would want to inspect.
//!
//! Run with `cargo run --release --example export_artifacts`.

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::arith::ComponentSpec;
use aix::cells::{degradation_to_text, to_liberty, DegradationAwareLibrary, Library};
use aix::core::{characterize_component, ApproxLibrary, CharacterizationConfig, ComponentKind};
use aix::netlist::{to_dot, to_verilog};
use aix::synth::{Effort, Synthesizer};
use std::fs;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    fs::create_dir_all("out")?;
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();

    // 1. The fresh cell library, Liberty-style.
    fs::write("out/aix_45nm.lib", to_liberty(&cells))?;
    println!(
        "out/aix_45nm.lib            fresh cell library ({} cells)",
        cells.len()
    );

    // 2. The degradation-aware tables (the DAC'16-style artifact).
    let aged = DegradationAwareLibrary::generate(&cells, &model, Lifetime::YEARS_10);
    fs::write(
        "out/aix_45nm_aged10y.tbl",
        degradation_to_text(&cells, &aged),
    )?;
    println!("out/aix_45nm_aged10y.tbl    11x11 stress-indexed delay factors");

    // 3. A synthesized component as structural Verilog and Graphviz DOT.
    let synth = Synthesizer::new(cells.clone(), Effort::Ultra);
    let adder = synth.adder(ComponentSpec::full(16))?;
    fs::write("out/adder16_ultra.v", to_verilog(&adder))?;
    fs::write("out/adder16_ultra.dot", to_dot(&adder))?;
    println!(
        "out/adder16_ultra.v/.dot    synthesized 16-bit adder ({} gates)",
        adder.gate_count()
    );

    // 4. A characterization library row, in its persistent text format.
    let mut library = ApproxLibrary::new();
    library.insert(characterize_component(
        &cells,
        &CharacterizationConfig::quick(ComponentKind::Adder, 16),
    )?);
    fs::write("out/example-approx-library.txt", library.to_text())?;
    let characterization = library
        .get(ComponentKind::Adder, 16)
        .expect("just inserted");
    println!(
        "out/example-approx-library.txt  Eq. 2 gives {:?} bits for 10y worst case",
        characterization
            .required_precision(AgingScenario::worst_case(Lifetime::YEARS_10))
            .map(|p| 16 - p)
    );
    Ok(())
}
