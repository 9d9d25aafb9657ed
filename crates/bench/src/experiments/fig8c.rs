//! Fig. 8(c) — efficiency of aging-induced approximations normalized to
//! the aging-aware synthesis baseline (DAC'16).
//!
//! Paper reference: +11 % frequency, −14 % leakage, −4 % dynamic power,
//! −13 % energy, −13 % area.

use crate::{build_library, Options, Table};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_cells::Library;
use aix_core::{apply_aging_approximations, compare_against_aging_aware, idct_design};
use aix_synth::Effort;
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs the Fig. 8(c) experiment.
pub fn run(options: &Options) -> String {
    let vectors = options.scaled("vectors", 300, 5000);
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
    let library = build_library(&cells).expect("characterization");
    let design = idct_design(&cells, Effort::Ultra).expect("IDCT synthesis");
    let plan = apply_aging_approximations(&design, &library, &model, scenario).expect("flow");
    let report = compare_against_aging_aware(&design, &plan, &cells, &model, scenario, vectors)
        .expect("comparison");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8(c) — IDCT savings vs aging-aware synthesis (10y worst case)\n"
    );
    let mut table = Table::new(&["metric", "ours", "baseline [DAC'16]", "saving", "paper"]);
    table.row_owned(vec![
        "clock [ps]".into(),
        format!("{:.1}", report.ours.clock_ps),
        format!("{:.1}", report.baseline.clock_ps),
        format!("{:+.1}% frequency", report.frequency_gain() * 100.0),
        "+11% frequency".into(),
    ]);
    table.row_owned(vec![
        "area [um2]".into(),
        format!("{:.0}", report.ours.area_um2),
        format!("{:.0}", report.baseline.area_um2),
        format!("{:+.1}%", report.area_saving() * 100.0),
        "13%".into(),
    ]);
    table.row_owned(vec![
        "leakage [uW]".into(),
        format!("{:.1}", report.ours.leakage_uw),
        format!("{:.1}", report.baseline.leakage_uw),
        format!("{:+.1}%", report.leakage_saving() * 100.0),
        "14%".into(),
    ]);
    table.row_owned(vec![
        "dynamic [uW]".into(),
        format!("{:.1}", report.ours.dynamic_uw),
        format!("{:.1}", report.baseline.dynamic_uw),
        format!("{:+.1}%", report.dynamic_saving() * 100.0),
        "4%".into(),
    ]);
    table.row_owned(vec![
        "energy [fJ/cycle]".into(),
        format!("{:.1}", report.ours.energy_per_cycle_fj()),
        format!("{:.1}", report.baseline.energy_per_cycle_fj()),
        format!("{:+.1}%", report.energy_saving() * 100.0),
        "13%".into(),
    ]);
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nshape target: converting the guardband into approximations wins on every\n\
         axis simultaneously — faster, smaller, less leaky and more energy-efficient\n\
         than hardening the netlist against aging."
    );
    out
}
