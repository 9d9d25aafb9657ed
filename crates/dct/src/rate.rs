//! Bit-rate estimation: zigzag scan plus a JPEG-flavoured entropy estimate,
//! adding the *rate* axis to the quality studies (an approximated IDCT is
//! only interesting if the encoded stream it decodes is realistic).

use crate::{encode_image_quantized, FixedPointTransform, Quantizer};
use aix_image::Image;

/// The JPEG zigzag scan order over an 8×8 block in raster indexing.
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Bits needed for the magnitude category of a level (JPEG "size").
fn magnitude_bits(level: i32) -> u32 {
    32 - level.unsigned_abs().leading_zeros()
}

/// Estimates the coded size of one *quantized-level* block in bits, using a
/// JPEG-like cost model: per nonzero coefficient, a run/size token (~4
/// bits) plus the magnitude bits; one end-of-block token.
///
/// # Examples
///
/// ```
/// use aix_dct::estimate_block_bits;
///
/// let empty = [0i32; 64];
/// let mut busy = [0i32; 64];
/// for (i, c) in busy.iter_mut().enumerate() {
///     *c = i as i32 - 32;
/// }
/// assert!(estimate_block_bits(&busy) > estimate_block_bits(&empty));
/// ```
pub fn estimate_block_bits(levels: &[i32; 64]) -> f64 {
    const TOKEN_BITS: f64 = 4.0;
    const EOB_BITS: f64 = 4.0;
    let mut bits = EOB_BITS;
    for &index in &ZIGZAG {
        let level = levels[index];
        if level != 0 {
            bits += TOKEN_BITS + f64::from(magnitude_bits(level));
        }
    }
    bits
}

/// Estimates the coded bit rate of `image` through the quantized pipeline,
/// in bits per pixel.
pub fn estimate_bits_per_pixel(
    image: &Image,
    transform: &FixedPointTransform,
    quantizer: &Quantizer,
) -> f64 {
    let encoded = encode_image_quantized(image, transform, quantizer);
    let total: f64 = encoded
        .blocks()
        .iter()
        .map(|block| estimate_block_bits(&quantizer.quantize(block)))
        .sum();
    total / (image.width() * image.height()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_image::Sequence;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // The scan starts at DC and walks the first anti-diagonal.
        assert_eq!(&ZIGZAG[..4], &[0, 1, 8, 16]);
    }

    #[test]
    fn magnitude_bits_match_jpeg_categories() {
        assert_eq!(magnitude_bits(0), 0);
        assert_eq!(magnitude_bits(1), 1);
        assert_eq!(magnitude_bits(-1), 1);
        assert_eq!(magnitude_bits(2), 2);
        assert_eq!(magnitude_bits(3), 2);
        assert_eq!(magnitude_bits(255), 8);
        assert_eq!(magnitude_bits(-256), 9);
    }

    #[test]
    fn coarser_quantization_costs_fewer_bits() {
        let frame = Sequence::Foreman.frame(64, 48, 0);
        let t = FixedPointTransform::exact();
        let fine = estimate_bits_per_pixel(&frame, &t, &Quantizer::jpeg_quality(90));
        let coarse = estimate_bits_per_pixel(&frame, &t, &Quantizer::jpeg_quality(25));
        assert!(
            coarse < fine,
            "coarse {coarse:.2} bpp must undercut fine {fine:.2} bpp"
        );
        assert!(coarse > 0.0 && fine < 16.0, "sane bpp range");
    }

    #[test]
    fn busy_content_costs_more_bits() {
        let t = FixedPointTransform::exact();
        let q = Quantizer::jpeg_quality(75);
        let smooth = estimate_bits_per_pixel(&Sequence::MissAmerica.frame(64, 48, 0), &t, &q);
        let busy = estimate_bits_per_pixel(&Sequence::Mobile.frame(64, 48, 0), &t, &q);
        assert!(busy > smooth, "mobile {busy:.2} vs miss {smooth:.2}");
    }
}
