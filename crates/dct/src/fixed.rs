//! Bit-accurate fixed-point RTL model of the 8×8 DCT/IDCT datapath.

use crate::engine;
use crate::DatapathPrecision;

/// Fixed-point row–column 2-D DCT/IDCT with per-component precision
/// reduction.
///
/// Each 1-D transform is a matrix–vector product executed as 64
/// multiply-accumulate steps on a 32-bit datapath with Q12 coefficients.
/// The [`DatapathPrecision`] truncations are applied to every multiplier
/// and adder operand — a bit-accurate model of the approximated RTL, which
/// is what the paper simulates ("a few seconds" per image) instead of
/// gate-level netlists once approximations have replaced timing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointTransform {
    precision: DatapathPrecision,
}

impl FixedPointTransform {
    /// A transform with the given datapath precision.
    pub fn new(precision: DatapathPrecision) -> Self {
        Self { precision }
    }

    /// A full-precision transform.
    pub fn exact() -> Self {
        Self::new(DatapathPrecision::exact())
    }

    /// The configured precision.
    pub fn precision(&self) -> DatapathPrecision {
        self.precision
    }

    /// The truncated multiply-accumulate step as a reusable closure.
    fn mac_unit(&self) -> impl FnMut(i64, i64, i64) -> i64 {
        let precision = self.precision;
        move |acc, coeff, sample| {
            let a = precision.truncate_multiplier_operand(coeff);
            let b = precision.truncate_multiplier_operand(sample);
            precision.truncate_adder_operand(acc) + precision.truncate_adder_operand(a * b)
        }
    }

    /// 2-D forward DCT of one 8×8 pixel block (level-shifted by −128).
    pub fn forward_block(&self, block: &[u8; 64]) -> [i32; 64] {
        engine::forward_block(&mut self.mac_unit(), block)
    }

    /// 2-D inverse DCT of one 8×8 coefficient block back to pixels.
    pub fn inverse_block(&self, coeffs: &[i32; 64]) -> [u8; 64] {
        engine::inverse_block(&mut self.mac_unit(), coeffs)
    }
}

impl Default for FixedPointTransform {
    fn default() -> Self {
        Self::exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_block(v: u8) -> [u8; 64] {
        [v; 64]
    }

    #[test]
    fn flat_block_has_only_dc() {
        let t = FixedPointTransform::exact();
        let coeffs = t.forward_block(&flat_block(200));
        assert!(coeffs[0] > 500 && coeffs[0] < 650, "DC {}", coeffs[0]);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() <= 2, "AC coefficient {i} = {c}");
        }
    }

    #[test]
    fn exact_roundtrip_is_near_lossless() {
        let t = FixedPointTransform::exact();
        let mut block = [0u8; 64];
        for (i, slot) in block.iter_mut().enumerate() {
            *slot = ((i * 37 + 11) % 256) as u8;
        }
        let back = t.inverse_block(&t.forward_block(&block));
        for (i, (&a, &b)) in block.iter().zip(&back).enumerate() {
            assert!(
                (i32::from(a) - i32::from(b)).abs() <= 2,
                "pixel {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn truncation_degrades_gracefully() {
        let mut block = [0u8; 64];
        for (i, slot) in block.iter_mut().enumerate() {
            *slot = ((i * 53) % 256) as u8;
        }
        let exact = FixedPointTransform::exact();
        let coeffs = exact.forward_block(&block);
        let err = |mult_trunc: u32| -> f64 {
            let t = FixedPointTransform::new(DatapathPrecision::new(mult_trunc, 0));
            let back = t.inverse_block(&coeffs);
            block
                .iter()
                .zip(&back)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum::<f64>()
                / 64.0
        };
        let e0 = err(0);
        let e9 = err(9);
        let e14 = err(14);
        assert!(e0 <= e9 + 1e-9 && e9 <= e14 + 1e-9, "{e0} {e9} {e14}");
        assert!(
            e9 < 80.0,
            "truncation just past the guard bits stays mild: MSE {e9}"
        );
        assert!(e14 > e9, "heavy truncation hurts");
    }

    #[test]
    fn dc_only_block_reconstructs_flat() {
        let t = FixedPointTransform::exact();
        let mut coeffs = [0i32; 64];
        coeffs[0] = 576;
        let back = t.inverse_block(&coeffs);
        for &p in &back {
            assert!((i32::from(p) - 200).abs() <= 2, "pixel {p}");
        }
    }

    #[test]
    fn adder_truncation_also_degrades() {
        let mut block = [0u8; 64];
        for (i, slot) in block.iter_mut().enumerate() {
            *slot = ((i * 29 + 5) % 256) as u8;
        }
        let exact = FixedPointTransform::exact();
        let coeffs = exact.forward_block(&block);
        // The datapath carries OPERAND_SHIFT guard bits, so only truncation
        // beyond them perturbs the result.
        let adder_cut = FixedPointTransform::new(DatapathPrecision::new(0, 16));
        let back = adder_cut.inverse_block(&coeffs);
        assert_ne!(back, exact.inverse_block(&coeffs));
    }

    #[test]
    fn truncation_error_stays_within_deterministic_bound() {
        // The defining property of the paper's approach: approximation
        // errors are bounded, unlike timing errors.
        let precision = DatapathPrecision::new(4, 0);
        let t = FixedPointTransform::new(precision);
        let exact = FixedPointTransform::exact();
        let mut block = [0u8; 64];
        for (i, slot) in block.iter_mut().enumerate() {
            *slot = ((i * 97 + 13) % 256) as u8;
        }
        let coeffs = exact.forward_block(&block);
        let approx = t.inverse_block(&coeffs);
        let reference = exact.inverse_block(&coeffs);
        // 64 MACs per output (two 1-D passes of 8 each, compounded),
        // each bounded; the pixel-domain bound after the Q12 shift.
        let per_mac = precision.mac_error_bound(1 << 12);
        let bound = (16 * per_mac) >> 12;
        for (&a, &r) in approx.iter().zip(&reference) {
            let err = (i64::from(a) - i64::from(r)).abs();
            assert!(err <= bound + 2, "error {err} exceeds bound {bound}");
        }
    }
}
