//! Fig. 8(a) — applying the full microarchitecture flow (Fig. 6) to the
//! IDCT: per-block aged delays before and after aging-induced
//! approximations, against the design's fresh timing constraint.
//!
//! Paper reference: the multiplier is the critical block with a relative
//! slack of −8.3 % after 10 years of worst-case aging; a 3-bit precision
//! reduction restores timing, all other blocks stay exact.

use crate::{build_library, Options, Table};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_cells::Library;
use aix_core::{apply_aging_approximations, idct_design};
use aix_synth::Effort;
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs the Fig. 8(a) experiment. The downstream Fig. 8(b)/(c) experiments
/// derive their precision from the same flow via
/// [`super::fig8b::planned_precision`].
pub fn run(_options: &Options) -> String {
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let library = build_library(&cells).expect("characterization");
    let design = idct_design(&cells, Effort::Ultra).expect("IDCT synthesis");
    let constraint = design.timing_constraint().expect("STA").period_ps();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8(a) — IDCT under the Fig. 6 flow (constraint {constraint:.1} ps)\n"
    );
    for (label, scenario) in [
        (
            "1y worst case",
            AgingScenario::worst_case(Lifetime::YEARS_1),
        ),
        (
            "10y worst case",
            AgingScenario::worst_case(Lifetime::YEARS_10),
        ),
        ("10y balance", AgingScenario::balanced(Lifetime::YEARS_10)),
    ] {
        let plan = apply_aging_approximations(&design, &library, &model, scenario)
            .expect("the characterized library compensates the IDCT blocks");
        let validation = plan
            .validate(&cells, design.effort(), &model)
            .expect("validation synthesis");
        let _ = writeln!(out, "{label}:");
        let mut table = Table::new(&[
            "block",
            "fresh [ps]",
            "aged full [ps]",
            "rel. slack",
            "precision",
            "aged approx [ps]",
            "meets clock",
        ]);
        for (block, (name, aged_after)) in plan.blocks.iter().zip(&validation.aged_delays_ps) {
            debug_assert_eq!(&block.name, name);
            table.row_owned(vec![
                block.name.clone(),
                format!("{:.1}", block.fresh_delay_ps),
                format!("{:.1}", block.aged_delay_ps),
                format!("{:+.1}%", block.relative_slack * 100.0),
                format!("{}b (-{} bits)", block.precision, block.truncated_bits()),
                format!("{aged_after:.1}"),
                if *aged_after <= constraint + 1e-9 {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        out.push_str(&table.render());
        let _ = writeln!(
            out,
            "timing and quality constraints fulfilled: {}\n",
            if validation.timing_met { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "paper reference: multiplier rel. slack -8.3% @10y WC, 3-bit reduction restores\n\
         timing; other blocks keep full precision. shape target: only the critical\n\
         multiplier is approximated and the validated design meets the fresh clock."
    );
    out
}
