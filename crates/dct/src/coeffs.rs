//! Fixed-point 8-point DCT-II basis coefficients.

use std::sync::OnceLock;

/// Fractional bits of the Q-format coefficients (Q12, the precision typical
/// of hardware DCT implementations).
pub const COEFF_FRACTION_BITS: u32 = 12;

/// Scale factor `2^COEFF_FRACTION_BITS` as a float, for coefficient
/// quantization.
const SCALE: f64 = (1 << COEFF_FRACTION_BITS) as f64;

/// Normalization `c(u)`: `1/√2` for the DC basis, `1` otherwise.
fn normalization(u: usize) -> f64 {
    if u == 0 {
        std::f64::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// Forward-DCT coefficient `C[u][x]` in Q12:
/// `(c(u)/2) · cos((2x+1)uπ/16)`.
///
/// # Panics
///
/// Panics if `u` or `x` exceed 7.
///
/// # Examples
///
/// ```
/// use aix_dct::{dct_coefficient, COEFF_FRACTION_BITS};
///
/// // The DC row is flat: c(0)/2 = 1/(2√2).
/// let dc = dct_coefficient(0, 0);
/// assert_eq!(dc, dct_coefficient(0, 7));
/// let expect = (1.0 / (2.0 * 2f64.sqrt()) * f64::from(1 << COEFF_FRACTION_BITS)).round();
/// assert_eq!(f64::from(dc), expect);
/// ```
pub fn dct_coefficient(u: usize, x: usize) -> i32 {
    assert!(u < 8 && x < 8, "8-point basis indices");
    // Every MAC of every encode and decode reads the basis: build the
    // table once instead of calling `cos` per read.
    static BASIS: OnceLock<[[i32; 8]; 8]> = OnceLock::new();
    let basis =
        BASIS.get_or_init(|| std::array::from_fn(|u| std::array::from_fn(|x| basis_entry(u, x))));
    basis[u][x]
}

/// `C[u][x]` in Q12, computed from its defining expression.
fn basis_entry(u: usize, x: usize) -> i32 {
    let angle = (2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0;
    (normalization(u) / 2.0 * angle.cos() * SCALE).round() as i32
}

/// Inverse-DCT coefficient in Q12: the transpose of the forward basis,
/// `(c(u)/2) · cos((2x+1)uπ/16)` read as a function of output sample `x`.
///
/// # Panics
///
/// Panics if `x` or `u` exceed 7.
pub fn idct_coefficient(x: usize, u: usize) -> i32 {
    dct_coefficient(u, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_bounded_by_half() {
        // |c(u)/2 · cos| ≤ 1/2 ⇒ |Q12 value| ≤ 2048.
        for u in 0..8 {
            for x in 0..8 {
                assert!(dct_coefficient(u, x).abs() <= (1 << (COEFF_FRACTION_BITS - 1)));
            }
        }
    }

    #[test]
    fn rows_are_orthogonal() {
        // Σx C[u][x]·C[v][x] ≈ 0 for u ≠ v in the exact basis; the Q12
        // version must be near-zero relative to the row norm.
        for u in 0..8 {
            for v in 0..8 {
                let dot: i64 = (0..8)
                    .map(|x| i64::from(dct_coefficient(u, x)) * i64::from(dct_coefficient(v, x)))
                    .sum();
                if u == v {
                    assert!(dot > 0);
                } else {
                    assert!(dot.abs() < 1 << 13, "rows {u},{v} not orthogonal: {dot}");
                }
            }
        }
    }

    #[test]
    fn row_norms_match_orthonormal_basis() {
        // The (c(u)/2)-scaled 8-point basis is orthonormal: each row has
        // squared norm 1 ⇒ Q12² after scaling.
        let expect = 1i64 << (2 * COEFF_FRACTION_BITS);
        for u in 0..8 {
            let norm: i64 = (0..8)
                .map(|x| i64::from(dct_coefficient(u, x)).pow(2))
                .sum();
            let rel = (norm - expect).abs() as f64 / expect as f64;
            assert!(rel < 0.01, "row {u} norm {norm} vs {expect}");
        }
    }

    #[test]
    fn transpose_relation() {
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(idct_coefficient(a, b), dct_coefficient(b, a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "8-point")]
    fn out_of_range_panics() {
        let _ = dct_coefficient(8, 0);
    }
}
