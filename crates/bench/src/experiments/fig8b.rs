//! Fig. 8(b)/Fig. 9 — PSNR of the nine test sequences when the IDCT runs
//! with the aging-induced approximations selected for 10 years of
//! worst-case aging.
//!
//! Paper reference: average PSNR drop ≈ 8 dB; every sequence stays at or
//! above 30 dB except `mobile` (≈ 28 dB), which is still visually good.

use crate::{build_library, Options, Table};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_cells::Library;
use aix_core::{apply_aging_approximations, average_psnr_db, evaluate_sequences, idct_design};
use aix_dct::DatapathPrecision;
use aix_synth::Effort;
use std::fmt::Write as _;
use std::sync::Arc;

/// Selects the 10-year worst-case datapath precision via the Fig. 6 flow.
pub fn planned_precision(cells: &Arc<Library>) -> DatapathPrecision {
    let model = AgingModel::calibrated();
    let library = build_library(cells).expect("characterization");
    let design = idct_design(cells, Effort::Ultra).expect("IDCT synthesis");
    let plan = apply_aging_approximations(
        &design,
        &library,
        &model,
        AgingScenario::worst_case(Lifetime::YEARS_10),
    )
    .expect("flow");
    let mult = plan.block("multiplier").expect("multiplier block");
    let acc = plan.block("accumulator").expect("accumulator block");
    DatapathPrecision::new(mult.truncated_bits() as u32, acc.truncated_bits() as u32)
}

/// Runs the Fig. 8(b) experiment.
pub fn run(options: &Options) -> String {
    let width = options.scaled("width", 176, 176);
    let height = options.scaled("height", 144, 144);
    let cells = Arc::new(Library::nangate45_like());
    let precision = planned_precision(&cells);

    let results = evaluate_sequences(precision, width, height);
    let average = average_psnr_db(&results);
    let exact_average: f64 =
        results.iter().map(|r| r.exact_psnr_db).sum::<f64>() / results.len() as f64;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8(b) — sequence quality with aging-induced approximations ({precision}, {width}x{height})\n"
    );
    let mut table = Table::new(&["sequence", "PSNR [dB]", "exact [dB]", "drop [dB]", "SSIM"]);
    for r in &results {
        table.row_owned(vec![
            r.sequence.label().to_owned(),
            format!("{:.1}", r.psnr_db),
            format!("{:.1}", r.exact_psnr_db),
            format!("{:.1}", r.drop_db()),
            format!("{:.3}", r.ssim),
        ]);
    }
    table.row_owned(vec![
        "average".into(),
        format!("{average:.1}"),
        format!("{exact_average:.1}"),
        format!("{:.1}", exact_average - average),
    ]);
    out.push_str(&table.render());
    let worst = results
        .iter()
        .min_by(|a, b| a.psnr_db.partial_cmp(&b.psnr_db).expect("finite PSNR"))
        .expect("nine sequences");
    let _ = writeln!(
        out,
        "\nworst sequence: {} at {:.1} dB",
        worst.sequence, worst.psnr_db
    );
    let _ = writeln!(
        out,
        "paper reference: average drop ~8 dB; all sequences >= 30 dB except mobile (~28 dB).\n\
         shape target: mild average drop, smooth portrait content on top, `mobile` worst."
    );
    out
}
