//! Quality evaluation of an approximated IDCT over the test sequences
//! (paper Fig. 8b / Fig. 9).

use aix_dct::{
    decode_image, encode_image_quantized, DatapathPrecision, FixedPointTransform, Quantizer,
};
use aix_image::{psnr, ssim, Image, Sequence};

/// The codec quality factor of the evaluation pipeline. Chosen so the
/// exact (fresh) chain reports the codec-grade ≈45 dB of the paper's
/// Fig. 2 reference frame.
pub const PIPELINE_JPEG_QUALITY: u8 = 85;

/// PSNR of one sequence decoded by the approximated IDCT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceQuality {
    /// The sequence evaluated.
    pub sequence: Sequence,
    /// Reconstruction PSNR in dB.
    pub psnr_db: f64,
    /// PSNR of the exact pipeline on the same frame, for reference.
    pub exact_psnr_db: f64,
    /// Structural similarity of the reconstruction, in `(0, 1]`.
    pub ssim: f64,
}

impl SequenceQuality {
    /// Quality drop versus the exact pipeline, in dB.
    pub fn drop_db(&self) -> f64 {
        self.exact_psnr_db - self.psnr_db
    }
}

/// Decodes one frame of every test sequence with an IDCT whose datapath
/// carries `precision`, via fast RTL simulation (the paper's validation
/// path: seconds per image instead of days of gate-level simulation).
///
/// Frames are rendered at `width × height`; QCIF (176×144) matches the
/// original traces.
pub fn evaluate_sequences(
    precision: DatapathPrecision,
    width: usize,
    height: usize,
) -> Vec<SequenceQuality> {
    let encoder = FixedPointTransform::exact();
    let decoder = FixedPointTransform::new(precision);
    let quantizer = Quantizer::jpeg_quality(PIPELINE_JPEG_QUALITY);
    Sequence::ALL
        .iter()
        .map(|&sequence| {
            let frame: Image = sequence.frame(width, height, 0);
            let encoded = encode_image_quantized(&frame, &encoder, &quantizer);
            let exact = decode_image(&encoded, &encoder);
            let approx = decode_image(&encoded, &decoder);
            SequenceQuality {
                sequence,
                psnr_db: psnr(&frame, &approx),
                exact_psnr_db: psnr(&frame, &exact),
                ssim: ssim(&frame, &approx),
            }
        })
        .collect()
}

/// Per-frame PSNR trajectory of one sequence decoded by the approximated
/// IDCT — the video view of Fig. 8(b): quality must stay stable across
/// frames, not just on a lucky still.
pub fn evaluate_video(
    sequence: Sequence,
    precision: DatapathPrecision,
    width: usize,
    height: usize,
    frames: usize,
) -> Vec<f64> {
    let encoder = FixedPointTransform::exact();
    let decoder = FixedPointTransform::new(precision);
    let quantizer = Quantizer::jpeg_quality(PIPELINE_JPEG_QUALITY);
    (0..frames)
        .map(|index| {
            let frame = sequence.frame(width, height, index);
            let encoded = encode_image_quantized(&frame, &encoder, &quantizer);
            psnr(&frame, &decode_image(&encoded, &decoder))
        })
        .collect()
}

/// Mean PSNR over a set of sequence results, ignoring infinities.
pub fn average_psnr_db(results: &[SequenceQuality]) -> f64 {
    let finite: Vec<f64> = results
        .iter()
        .map(|r| r.psnr_db)
        .filter(|q| q.is_finite())
        .collect();
    if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_precision_is_transparent() {
        let results = evaluate_sequences(DatapathPrecision::exact(), 64, 48);
        assert_eq!(results.len(), 9);
        for r in &results {
            assert!(
                r.drop_db().abs() < 1e-9,
                "{}: exact decoder must equal reference",
                r.sequence
            );
        }
    }

    #[test]
    fn truncation_drops_quality_and_mobile_is_worst() {
        let results = evaluate_sequences(DatapathPrecision::new(12, 0), 64, 48);
        let avg = average_psnr_db(&results);
        assert!(avg.is_finite() && avg > 10.0);
        let mobile = results
            .iter()
            .find(|r| r.sequence == Sequence::Mobile)
            .unwrap();
        for r in &results {
            assert!(
                r.psnr_db >= mobile.psnr_db - 1.0,
                "{} should not be much worse than mobile",
                r.sequence
            );
            assert!(r.drop_db() > 0.0, "{} must lose quality", r.sequence);
            assert!(
                r.ssim > 0.0 && r.ssim < 1.0,
                "{}: ssim {}",
                r.sequence,
                r.ssim
            );
        }
    }

    #[test]
    fn video_quality_is_stable_across_frames() {
        let trajectory =
            evaluate_video(Sequence::Carphone, DatapathPrecision::new(9, 0), 64, 48, 5);
        assert_eq!(trajectory.len(), 5);
        let min = trajectory.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = trajectory.iter().cloned().fold(0.0f64, f64::max);
        assert!(min > 20.0, "every frame stays usable: {trajectory:?}");
        assert!(
            max - min < 3.0,
            "frame-to-frame quality is stable: {trajectory:?}"
        );
    }

    #[test]
    fn average_ignores_infinite_entries() {
        let results = vec![
            SequenceQuality {
                sequence: Sequence::Akiyo,
                psnr_db: f64::INFINITY,
                exact_psnr_db: f64::INFINITY,
                ssim: 1.0,
            },
            SequenceQuality {
                sequence: Sequence::Mobile,
                psnr_db: 30.0,
                exact_psnr_db: 40.0,
                ssim: 0.9,
            },
        ];
        assert_eq!(average_psnr_db(&results), 30.0);
    }
}
