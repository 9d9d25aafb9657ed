//! Extension experiment — the graceful-degradation schedule the paper's
//! conclusion envisions: precision (and hence quality) planned year by
//! year over the projected lifetime instead of paying the end-of-life
//! approximation from day one.

use crate::{build_library, Options, Table};
use aix_aging::{AgingModel, Lifetime, StressCondition};
use aix_cells::Library;
use aix_core::{average_psnr_db, evaluate_sequences, idct_design, plan_degradation_schedule};
use aix_dct::DatapathPrecision;
use aix_synth::Effort;
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs the degradation-schedule extension experiment.
pub fn run(options: &Options) -> String {
    let width = options.scaled("width", 88, 176);
    let height = options.scaled("height", 72, 144);
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let library = build_library(&cells).expect("characterization");
    let design = idct_design(&cells, Effort::Ultra).expect("IDCT synthesis");
    let checkpoints: Vec<Lifetime> = (1..=10)
        .map(|y| Lifetime::from_years(f64::from(y)))
        .collect();
    let schedule = plan_degradation_schedule(
        &design,
        &library,
        &model,
        StressCondition::Worst,
        &checkpoints,
    )
    .expect("schedule");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension — graceful degradation over the projected lifetime (worst-case stress)\n"
    );
    let mut table = Table::new(&[
        "age",
        "multiplier precision",
        "truncated bits",
        "avg PSNR [dB]",
    ]);
    let mut last_truncation = u32::MAX;
    let mut last_avg = f64::NAN;
    for step in schedule.steps() {
        let block = step.plan.block("multiplier").expect("multiplier block");
        let truncation = block.truncated_bits() as u32;
        // Quality only needs re-evaluating when the precision changes.
        let avg = if truncation == last_truncation {
            last_avg
        } else {
            let results = evaluate_sequences(DatapathPrecision::new(truncation, 0), width, height);
            average_psnr_db(&results)
        };
        last_truncation = truncation;
        last_avg = avg;
        table.row_owned(vec![
            step.lifetime.to_string(),
            format!("{}b", block.precision),
            format!("-{truncation}"),
            format!("{avg:.1}"),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nmonotone (precision never recovers with age): {}",
        if schedule.is_monotone() { "yes" } else { "NO" }
    );
    let _ = writeln!(
        out,
        "paper §VII: \"by applying approximations adaptively we can envision future\n\
         systems that gradually degrade in quality as they age over time.\" The\n\
         schedule realizes that vision: early years run at (nearly) full precision\n\
         and quality; bits are shed only as the transistors actually slow down."
    );
    out
}
