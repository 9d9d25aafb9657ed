//! Fig. 2 — image quality collapse when the DCT–IDCT chain runs at its
//! fresh clock while aging: PSNR 45 dB (fresh) → 18.5 dB (1 y balance) →
//! 8.4 dB (10 y balance) in the paper.
//!
//! The whole chain executes at gate level: every MAC of both transforms
//! runs through timed simulation with aged delays, its outputs latched at
//! the fresh clock edge (`aix_sim::TimedStreams`, one lane per block).
//!
//! The same run backs the paper's §III runtime claim (about 4 days of
//! gate-level simulation against minutes of RTL simulation per 1920×1080
//! image): it times the fresh gate-level round trip of the frame and the
//! RTL model's round trip of the same frame, and prints both wall times
//! and their ratio.

use crate::Options;
use aix_aging::{AgingScenario, Lifetime};
use aix_cells::Library;
use aix_dct::{
    decode_image, encode_image_quantized, FixedPointTransform, GateLevelConfig, GateLevelPipeline,
    Quantizer,
};
use aix_image::{psnr, write_pgm, Sequence};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// PSNR below which a decoded frame counts as unusable. The paper's aged
/// frames read 18.5 and 8.4 dB; its fresh one reads 45 dB.
const UNUSABLE_PSNR_DB: f64 = 20.0;

/// Whether the fresh, 1 y and 10 y PSNRs show the paper's collapse: no
/// step improves the image, the 10 y frame is strictly worse than the
/// fresh one, and it is unusable (below [`UNUSABLE_PSNR_DB`]).
fn is_collapse([fresh, one_year, ten_years]: [f64; 3]) -> bool {
    fresh >= one_year && one_year >= ten_years && fresh > ten_years && ten_years < UNUSABLE_PSNR_DB
}

/// A rate as a percentage with at least three significant digits, so a
/// small nonzero rate never prints as zero.
fn percent(rate: f64) -> String {
    let percent = rate * 100.0;
    let decimals = if percent > 0.0 {
        (2 - percent.log10().floor() as i32).clamp(2, 12) as usize
    } else {
        2
    };
    format!("{percent:.decimals$}%")
}

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
    let jobs = crate::engine_options()
        .unwrap_or_else(|error| panic!("{error}"))
        .resolved_jobs();
    let results: Vec<_> =
        aix_core::parallel_map(jobs, conditions.to_vec(), |(label, scenario, paper)| {
            let pipeline = GateLevelPipeline::new(&cells, GateLevelConfig::aged(scenario))
                .expect("pipeline synthesis");
            let quantizer = Quantizer::jpeg_quality(aix_core::PIPELINE_JPEG_QUALITY);
            let start = Instant::now();
            let (decoded, stats) = pipeline
                .roundtrip_image(&frame, Some(&quantizer))
                .expect("gate-level round trip");
            (label, paper, decoded, stats, start.elapsed().as_secs_f64())
        });
    // The fresh condition's round trip is the gate-level time of §III.
    let gate_level_s = results[0].4;
    let mut measured = Vec::new();
    for (label, paper, decoded, stats, _) in results {
        let quality = psnr(&frame, &decoded);
        measured.push(quality);
        table.row_owned(vec![
            label.to_owned(),
            format!("{quality:.1}"),
            percent(stats.error_rate()),
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
    if let Ok(psnrs) = <[f64; 3]>::try_from(measured) {
        let collapse = is_collapse(psnrs);
        let _ = writeln!(
            out,
            "monotone collapse: {} (a drop to below {UNUSABLE_PSNR_DB:.0} dB at 10 y is required)",
            if collapse { "yes" } else { "NO - investigate" }
        );
        if collapse {
            let _ = writeln!(
                out,
                "note: in this substrate the collapse sets in between 1 and 10 years of\n\
                 balanced stress (the paper's netlists already fail within the first year);\n\
                 the 10-year image matches the paper's unusable result."
            );
        }
    }
    let rtl_s = rtl_roundtrip_seconds(&frame);
    let _ = writeln!(
        out,
        "\n§III runtime, one {width}x{height} round trip: gate level {gate_level_s:.3} s \
         (0y, timed), RTL model {:.1} us; gate level / RTL = {:.0}x",
        rtl_s * 1e6,
        gate_level_s / rtl_s.max(1e-9),
    );
    out
}

/// Wall time of one round trip of `frame` through the RTL model: the
/// exact fixed-point DCT, the same codec quantizer, and the exact IDCT.
fn rtl_roundtrip_seconds(frame: &aix_image::Image) -> f64 {
    let exact = FixedPointTransform::exact();
    let quantizer = Quantizer::jpeg_quality(aix_core::PIPELINE_JPEG_QUALITY);
    let start = Instant::now();
    let coefficients = encode_image_quantized(frame, &exact, &quantizer);
    black_box(decode_image(&coefficients, &exact));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_needs_a_drop_to_an_unusable_image() {
        // `--full` before this verdict: a strict drop, but 32.7 dB is usable.
        assert!(!is_collapse([47.9, 47.9, 32.7]));
        // Quick mode: no drop at all.
        assert!(!is_collapse([47.6, 47.6, 47.6]));
        // The paper's own numbers.
        assert!(is_collapse([45.0, 18.5, 8.4]));
    }

    #[test]
    fn small_rates_keep_their_significant_digits() {
        assert_eq!(percent(0.0), "0.00%");
        assert_eq!(percent(0.0000123), "0.00123%");
        assert_eq!(percent(0.025), "2.50%");
        assert_eq!(percent(0.47), "47.00%");
    }
}
