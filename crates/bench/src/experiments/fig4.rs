//! Fig. 4 — characterization of the 32-bit adder: delay versus precision
//! under no aging, 1- and 10-year worst case, and 10-year actual case
//! (normal-distribution and IDCT stimuli).
//!
//! Paper reference: a 2-bit reduction narrows the guardband by 31 %;
//! 24 bits suffice for 1 year and 22 bits for 10 years of worst-case
//! aging; the actual case needs a smaller reduction.

use crate::{build_library, Options, Table, STUDY_WIDTH};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::ComponentSpec;
use aix_cells::Library;
use aix_core::{
    actual_case_delays, ActualCaseStress, CharacterizationEntry, CharacterizationScenario,
    ComponentKind, StimulusKind,
};
use aix_image::Sequence;
use aix_sta::analyze;
use aix_synth::Effort;
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs the Fig. 4 experiment.
pub fn run(options: &Options) -> String {
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let vectors = options.scaled("vectors", 400, 10_000);
    let library = build_library(&cells).expect("characterization");
    let mut characterization = library
        .get(ComponentKind::Adder, STUDY_WIDTH)
        .expect("library covers the 32-bit adder")
        .clone();

    // Extend with actual-case entries (10 years) under both stimuli.
    for precision in (STUDY_WIDTH - 10..=STUDY_WIDTH).rev() {
        let spec = ComponentSpec::new(STUDY_WIDTH, precision).expect("valid spec");
        let netlist = ComponentKind::Adder
            .synthesize(&cells, spec, Effort::Ultra)
            .expect("synthesis");
        for (kind, scenario) in [
            (
                StimulusKind::NormalDistribution,
                CharacterizationScenario::ActualNormal(Lifetime::YEARS_10),
            ),
            (
                StimulusKind::IdctTrace(Sequence::Foreman),
                CharacterizationScenario::ActualIdct(Lifetime::YEARS_10),
            ),
        ] {
            let stress = ActualCaseStress::extract(&netlist, kind, STUDY_WIDTH, vectors, 7)
                .expect("activity extraction");
            let delays = actual_case_delays(&netlist, &stress, &model, Lifetime::YEARS_10);
            let delay_ps = analyze(&netlist, &delays).expect("STA").max_delay_ps();
            characterization.add_entry(CharacterizationEntry {
                precision,
                scenario,
                delay_ps,
            });
        }
    }

    characterization.enforce_synthesis_monotonicity();

    let scenarios: Vec<(String, CharacterizationScenario)> = vec![
        ("noAging".into(), CharacterizationScenario::FRESH),
        (
            "1y WC".into(),
            CharacterizationScenario::worst_case(Lifetime::YEARS_1),
        ),
        (
            "10y WC".into(),
            CharacterizationScenario::worst_case(Lifetime::YEARS_10),
        ),
        (
            "10y AC,ND".into(),
            CharacterizationScenario::ActualNormal(Lifetime::YEARS_10),
        ),
        (
            "10y AC,IDCT".into(),
            CharacterizationScenario::ActualIdct(Lifetime::YEARS_10),
        ),
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4 — 32-bit adder characterization [delay in ps]\n"
    );
    let headers: Vec<&str> = std::iter::once("precision")
        .chain(scenarios.iter().map(|(l, _)| l.as_str()))
        .collect();
    let mut table = Table::new(&headers);
    let constraint = characterization.fresh_full_delay_ps();
    for precision in (STUDY_WIDTH - 10..=STUDY_WIDTH).rev() {
        let mut row = vec![format!("{precision}b")];
        for (_, scenario) in &scenarios {
            match characterization.delay_ps(precision, *scenario) {
                Some(d) => {
                    let marker = if d <= constraint + 1e-9 { " ok" } else { " !" };
                    row.push(format!("{d:.1}{marker}"));
                }
                None => row.push("-".into()),
            }
        }
        table.row_owned(row);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\ntiming constraint t(noAging, 32b) = {constraint:.1} ps; `ok` = Eq. 2 satisfied"
    );

    let wc1 = AgingScenario::worst_case(Lifetime::YEARS_1);
    let wc10 = AgingScenario::worst_case(Lifetime::YEARS_10);
    for bits in [2usize, 4, 6] {
        if let Some(n) = characterization.guardband_narrowing(STUDY_WIDTH - bits, wc10) {
            let _ = writeln!(
                out,
                "{bits}-bit reduction narrows the 10y guardband by {:.0}% (paper: 31% at 2 bits)",
                n * 100.0
            );
        }
    }
    for (label, scenario, paper) in [
        ("1y worst case", CharacterizationScenario::from(wc1), "24b"),
        (
            "10y worst case",
            CharacterizationScenario::from(wc10),
            "22b",
        ),
        (
            "10y actual case (ND)",
            CharacterizationScenario::ActualNormal(Lifetime::YEARS_10),
            "24b",
        ),
        (
            "10y actual case (IDCT)",
            CharacterizationScenario::ActualIdct(Lifetime::YEARS_10),
            "24b",
        ),
    ] {
        match characterization.required_precision(scenario) {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "full compensation of {label}: precision {p}b (paper: {paper})"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "full compensation of {label}: not reachable within 10 truncated bits"
                );
            }
        }
    }
    out
}
