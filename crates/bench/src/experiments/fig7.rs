//! Fig. 7 — characterization of the 32-bit multiplier and MAC: delay versus
//! precision under no aging and 1-/10-year worst-case aging.
//!
//! Paper reference: a 1-bit reduction narrows the 10-year guardband by
//! 29 % (multiplier) and 80 % (MAC); 2 and 3 bits fully compensate 1 and
//! 10 years respectively.

use crate::{build_library, Options, Table, STUDY_WIDTH};
use aix_aging::{AgingScenario, Lifetime};
use aix_cells::Library;
use aix_core::{CharacterizationScenario, ComponentCharacterization, ComponentKind};
use std::fmt::Write as _;
use std::sync::Arc;

fn component_section(out: &mut String, characterization: &ComponentCharacterization) {
    let kind = characterization.kind();
    let _ = writeln!(out, "{kind}-32 characterization [delay in ps]");
    let mut table = Table::new(&["precision", "noAging", "1y WC", "10y WC"]);
    let constraint = characterization.fresh_full_delay_ps();
    let scenarios = [
        CharacterizationScenario::FRESH,
        CharacterizationScenario::worst_case(Lifetime::YEARS_1),
        CharacterizationScenario::worst_case(Lifetime::YEARS_10),
    ];
    for precision in (STUDY_WIDTH - 10..=STUDY_WIDTH).rev() {
        let mut row = vec![format!("{precision}b")];
        for scenario in scenarios {
            match characterization.delay_ps(precision, scenario) {
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

    let wc10 = AgingScenario::worst_case(Lifetime::YEARS_10);
    let wc1 = AgingScenario::worst_case(Lifetime::YEARS_1);
    for bits in [1usize, 2, 3] {
        if let Some(n) = characterization.guardband_narrowing(STUDY_WIDTH - bits, wc10) {
            let _ = writeln!(
                out,
                "  {bits}-bit reduction narrows the 10y guardband by {:.0}%",
                n * 100.0
            );
        }
    }
    for (label, scenario) in [("1y", wc1), ("10y", wc10)] {
        match characterization.required_precision(scenario) {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  full compensation of {label} worst case at {p}b ({} bits truncated)",
                    STUDY_WIDTH - p
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  full compensation of {label} worst case not reachable within 10 bits"
                );
            }
        }
    }
    out.push('\n');
}

/// Runs the Fig. 7 experiment.
pub fn run(_options: &Options) -> String {
    let cells = Arc::new(Library::nangate45_like());
    let library = build_library(&cells).expect("characterization");
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 7 — multiplier and MAC characterization\n");
    for kind in [ComponentKind::Mac, ComponentKind::Multiplier] {
        let characterization = library
            .get(kind, STUDY_WIDTH)
            .expect("library covers the study components");
        component_section(&mut out, characterization);
    }
    let _ = writeln!(
        out,
        "paper reference: 1 bit narrows the 10y guardband by 29% (multiplier) and 80% (MAC);\n\
         2 and 3 truncated bits fully compensate 1 and 10 years of worst-case aging.\n\
         shape target: the MAC responds much more strongly per truncated bit than the\n\
         multiplier, and a handful of bits buys full compensation."
    );
    out
}
