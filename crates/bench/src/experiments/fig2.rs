//! Fig. 2 — image quality collapse when the DCT–IDCT chain runs at its
//! fresh clock while aging: PSNR 45 dB (fresh) → 18.5 dB (1 y balance) →
//! 8.4 dB (10 y balance) in the paper.
//!
//! The whole chain executes at gate level: every MAC of both transforms
//! runs through timed simulation with aged delays, its outputs latched at
//! the fresh clock edge (`aix_sim::TimedStreams`, one lane per block).

use crate::Options;
use aix_aging::{AgingScenario, Lifetime};
use aix_cells::Library;
use aix_dct::{GateLevelConfig, GateLevelPipeline, Quantizer};
use aix_image::{psnr, write_pgm, Sequence};
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs the Fig. 2 experiment.
pub fn run(options: &Options) -> String {
    let width = options.scaled("width", 64, 176);
    let height = options.scaled("height", 48, 144);
    let cells = Arc::new(Library::nangate45_like());
    let frame = Sequence::Akiyo.frame(width, height, 0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 2 — gate-level DCT-IDCT chain at the fresh clock ({width}x{height} frame)\n"
    );
    let mut table = crate::Table::new(&["condition", "PSNR [dB]", "MAC error rate", "paper PSNR"]);
    let conditions = [
        ("0y (no aging)", AgingScenario::Fresh, "45.0"),
        (
            "1y balance",
            AgingScenario::balanced(Lifetime::YEARS_1),
            "18.5",
        ),
        (
            "10y balance",
            AgingScenario::balanced(Lifetime::YEARS_10),
            "8.4",
        ),
    ];
    // The three conditions are independent full gate-level runs; execute
    // them on the characterization engine's work pool (honours AIX_JOBS).
    let jobs = aix_core::EngineOptions::from_env().resolved_jobs();
    let results: Vec<_> = aix_core::parallel_map(
        jobs,
        conditions.to_vec(),
        |(label, scenario, paper)| {
            let pipeline = GateLevelPipeline::new(&cells, GateLevelConfig::aged(scenario))
                .expect("pipeline synthesis");
            let quantizer = Quantizer::jpeg_quality(aix_core::PIPELINE_JPEG_QUALITY);
            let (decoded, stats) = pipeline
                .roundtrip_image(&frame, Some(&quantizer))
                .expect("gate-level round trip");
            (label, paper, decoded, stats)
        },
    );
    let mut measured = Vec::new();
    for (label, paper, decoded, stats) in results {
        let quality = psnr(&frame, &decoded);
        measured.push(quality);
        table.row_owned(vec![
            label.to_owned(),
            format!("{quality:.1}"),
            format!("{:.2}%", stats.error_rate() * 100.0),
            paper.to_owned(),
        ]);
        let file = format!("out/fig2_{}.pgm", label.replace([' ', '(', ')'], "_"));
        let _ = std::fs::create_dir_all("out");
        if let Ok(f) = std::fs::File::create(&file) {
            let _ = write_pgm(f, &decoded);
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\ndecoded frames written to out/fig2_*.pgm; shape target: monotone collapse\n\
         from transparent quality to an unusable image as the chain ages."
    );
    if measured.len() == 3 {
        let _ = writeln!(
            out,
            "monotone collapse: {}",
            if measured[0] >= measured[1] && measured[1] >= measured[2] && measured[0] > measured[2] {
                "yes"
            } else {
                "NO - investigate"
            }
        );
        let _ = writeln!(
            out,
            "note: in this substrate the collapse sets in between 1 and 10 years of\n\
             balanced stress (the paper's netlists already fail within the first year);\n\
             the 10-year image matches the paper's unusable result."
        );
    }
    out
}
