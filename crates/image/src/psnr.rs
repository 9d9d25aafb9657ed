//! Image quality metrics: mean squared error and PSNR.

use crate::Image;

/// Mean squared error between two images of identical dimensions.
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn mse(reference: &Image, distorted: &Image) -> f64 {
    assert_eq!(
        (reference.width(), reference.height()),
        (distorted.width(), distorted.height()),
        "images must have identical dimensions"
    );
    let sum: f64 = reference
        .pixels()
        .iter()
        .zip(distorted.pixels())
        .map(|(&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            d * d
        })
        .sum();
    sum / reference.pixels().len() as f64
}

/// Peak signal-to-noise ratio in decibels for 8-bit images:
/// `10 · log10(255² / MSE)`.
///
/// Identical images yield `f64::INFINITY`. The paper treats 30 dB as the
/// commonly accepted threshold for acceptable image quality.
///
/// # Panics
///
/// Panics if the dimensions differ.
///
/// # Examples
///
/// ```
/// use aix_image::{psnr, Image};
///
/// let a = Image::filled(8, 8, 100);
/// let mut b = a.clone();
/// b.set_pixel(0, 0, 110);
/// let q = psnr(&a, &b);
/// assert!(q > 40.0 && q.is_finite());
/// ```
pub fn psnr(reference: &Image, distorted: &Image) -> f64 {
    let error = mse(reference, distorted);
    if error == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / error).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_are_infinite() {
        let img = Image::filled(4, 4, 77);
        assert!(psnr(&img, &img).is_infinite());
        assert_eq!(mse(&img, &img), 0.0);
    }

    #[test]
    fn known_mse() {
        let a = Image::filled(2, 2, 10);
        let b = Image::filled(2, 2, 20);
        assert_eq!(mse(&a, &b), 100.0);
        let expect = 10.0 * (255.0f64 * 255.0 / 100.0).log10();
        assert!((psnr(&a, &b) - expect).abs() < 1e-12);
    }

    #[test]
    fn psnr_decreases_with_distortion() {
        let reference = Image::from_fn(16, 16, |x, y| ((x * 16 + y) % 256) as u8);
        let mild = Image::from_fn(16, 16, |x, y| reference.pixel(x, y).saturating_add(2));
        let severe = Image::from_fn(16, 16, |x, y| reference.pixel(x, y).saturating_add(50));
        assert!(psnr(&reference, &mild) > psnr(&reference, &severe));
    }

    #[test]
    fn worst_case_psnr_is_about_zero() {
        let black = Image::filled(4, 4, 0);
        let white = Image::filled(4, 4, 255);
        let q = psnr(&black, &white);
        assert!((q - 0.0).abs() < 1e-9, "255^2 MSE gives 0 dB, got {q}");
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn dimension_mismatch_panics() {
        let a = Image::filled(2, 2, 0);
        let b = Image::filled(3, 2, 0);
        let _ = mse(&a, &b);
    }
}
