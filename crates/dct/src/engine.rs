//! Shared row–column transform engine, generic over the MAC implementation.
//!
//! Both the bit-accurate RTL model ([`crate::FixedPointTransform`]) and the
//! gate-level timed pipeline ([`crate::GateLevelPipeline`]) execute the
//! same 64-MAC-per-1-D-transform schedule; only the multiply-accumulate
//! step differs (pure arithmetic vs event-driven netlist simulation).

use crate::{dct_coefficient, idct_coefficient, COEFF_FRACTION_BITS};

/// Fractional *guard bits* of the datapath: operands are left-shifted by
/// this amount before entering the MAC, so the first `OPERAND_SHIFT`
/// truncated LSBs only consume fixed-point headroom. This is the
/// left-aligned operand convention of wide datapaths — it is why a 32-bit
/// hardware multiplier can lose a few LSBs with only mild quality impact,
/// as the paper's 3-bit headline configuration shows.
pub const OPERAND_SHIFT: u32 = 6;

/// Total fractional bits accumulated over one 1-D pass
/// (Q12 coefficients plus both operand guard shifts).
const PASS_FRACTION_BITS: u32 = COEFF_FRACTION_BITS + 2 * OPERAND_SHIFT;

/// A multiply-accumulate step: `mac(acc, coeff, sample) = acc + coeff × sample`
/// under whatever precision/timing model the implementor provides.
pub(crate) trait MacUnit {
    fn mac(&mut self, acc: i64, coeff: i64, sample: i64) -> i64;
}

impl<F: FnMut(i64, i64, i64) -> i64> MacUnit for F {
    fn mac(&mut self, acc: i64, coeff: i64, sample: i64) -> i64 {
        self(acc, coeff, sample)
    }
}

/// A lane-batched multiply-accumulate: `accs[l] += coeff × samples[l]`
/// for every lane, in place, under the implementor's model. The
/// coefficient is lane-invariant because the transform schedule applies
/// the same tap to every block of a batch — which is exactly what lets a
/// lane-parallel timed netlist run all blocks per evaluation.
pub(crate) trait BatchMacUnit {
    fn mac_batch(&mut self, accs: &mut [i64], coeff: i64, samples: &[i64]);
}

impl<F: FnMut(&mut [i64], i64, &[i64])> BatchMacUnit for F {
    fn mac_batch(&mut self, accs: &mut [i64], coeff: i64, samples: &[i64]) {
        self(accs, coeff, samples)
    }
}

/// Arithmetic shift with round-to-nearest.
pub(crate) fn round_shift(value: i64, bits: u32) -> i64 {
    (value + (1 << (bits - 1))) >> bits
}

/// 1-D 8-point forward DCT (Q0 in, Q0 out).
pub(crate) fn forward8(mac: &mut impl MacUnit, input: &[i64; 8]) -> [i64; 8] {
    let mut out = [0i64; 8];
    for (u, slot) in out.iter_mut().enumerate() {
        let mut acc = 0i64;
        for (x, &sample) in input.iter().enumerate() {
            acc = mac.mac(
                acc,
                i64::from(dct_coefficient(u, x)) << OPERAND_SHIFT,
                sample << OPERAND_SHIFT,
            );
        }
        *slot = round_shift(acc, PASS_FRACTION_BITS);
    }
    out
}

/// 1-D 8-point inverse DCT (Q0 in, Q0 out).
pub(crate) fn inverse8(mac: &mut impl MacUnit, input: &[i64; 8]) -> [i64; 8] {
    let mut out = [0i64; 8];
    for (x, slot) in out.iter_mut().enumerate() {
        let mut acc = 0i64;
        for (u, &coeff_in) in input.iter().enumerate() {
            acc = mac.mac(
                acc,
                i64::from(idct_coefficient(x, u)) << OPERAND_SHIFT,
                coeff_in << OPERAND_SHIFT,
            );
        }
        *slot = round_shift(acc, PASS_FRACTION_BITS);
    }
    out
}

/// Row–column application of the 1-D transform over an 8×8 block.
pub(crate) fn two_d(mac: &mut impl MacUnit, block: &mut [i64; 64], forward: bool) {
    for row in 0..8 {
        let mut line = [0i64; 8];
        line.copy_from_slice(&block[row * 8..row * 8 + 8]);
        let t = if forward {
            forward8(mac, &line)
        } else {
            inverse8(mac, &line)
        };
        block[row * 8..row * 8 + 8].copy_from_slice(&t);
    }
    for col in 0..8 {
        let mut line = [0i64; 8];
        for row in 0..8 {
            line[row] = block[row * 8 + col];
        }
        let t = if forward {
            forward8(mac, &line)
        } else {
            inverse8(mac, &line)
        };
        for row in 0..8 {
            block[row * 8 + col] = t[row];
        }
    }
}

/// Lane-batched 1-D 8-point transform: `lines[l]` is lane *l*'s row or
/// column. Per lane the MAC schedule (tap order, operand shifts, rounding)
/// is identical to [`forward8`]/[`inverse8`], so a batch MAC that models
/// each lane independently reproduces the scalar per-block arithmetic.
pub(crate) fn transform8_batch(
    mac: &mut impl BatchMacUnit,
    lines: &[[i64; 8]],
    forward: bool,
) -> Vec<[i64; 8]> {
    let lanes = lines.len();
    let mut out = vec![[0i64; 8]; lanes];
    let mut accs = vec![0i64; lanes];
    let mut samples = vec![0i64; lanes];
    for u in 0..8 {
        accs.fill(0);
        for x in 0..8 {
            let coeff = if forward {
                dct_coefficient(u, x)
            } else {
                idct_coefficient(u, x)
            };
            for (sample, line) in samples.iter_mut().zip(lines) {
                *sample = line[x] << OPERAND_SHIFT;
            }
            mac.mac_batch(&mut accs, i64::from(coeff) << OPERAND_SHIFT, &samples);
        }
        for (lane_out, &acc) in out.iter_mut().zip(&accs) {
            lane_out[u] = round_shift(acc, PASS_FRACTION_BITS);
        }
    }
    out
}

/// Lane-batched row–column transform over up to 64 independent 8×8 blocks.
pub(crate) fn two_d_batch(mac: &mut impl BatchMacUnit, blocks: &mut [[i64; 64]], forward: bool) {
    let lanes = blocks.len();
    let mut lines = vec![[0i64; 8]; lanes];
    for row in 0..8 {
        for (line, block) in lines.iter_mut().zip(blocks.iter()) {
            line.copy_from_slice(&block[row * 8..row * 8 + 8]);
        }
        let t = transform8_batch(mac, &lines, forward);
        for (block, out) in blocks.iter_mut().zip(&t) {
            block[row * 8..row * 8 + 8].copy_from_slice(out);
        }
    }
    for col in 0..8 {
        for (line, block) in lines.iter_mut().zip(blocks.iter()) {
            for row in 0..8 {
                line[row] = block[row * 8 + col];
            }
        }
        let t = transform8_batch(mac, &lines, forward);
        for (block, out) in blocks.iter_mut().zip(&t) {
            for row in 0..8 {
                block[row * 8 + col] = out[row];
            }
        }
    }
}

/// Lane-batched [`forward_block`]: one pixel block per lane.
pub(crate) fn forward_block_batch(
    mac: &mut impl BatchMacUnit,
    blocks: &[[u8; 64]],
) -> Vec<[i32; 64]> {
    let mut work: Vec<[i64; 64]> = blocks
        .iter()
        .map(|block| {
            let mut w = [0i64; 64];
            for (slot, &p) in w.iter_mut().zip(block) {
                *slot = i64::from(p) - 128;
            }
            w
        })
        .collect();
    two_d_batch(mac, &mut work, true);
    work.iter()
        .map(|w| {
            let mut out = [0i32; 64];
            for (slot, &v) in out.iter_mut().zip(w) {
                *slot = v as i32;
            }
            out
        })
        .collect()
}

/// Lane-batched [`inverse_block`]: one coefficient block per lane.
pub(crate) fn inverse_block_batch(
    mac: &mut impl BatchMacUnit,
    coeff_blocks: &[[i32; 64]],
) -> Vec<[u8; 64]> {
    let mut work: Vec<[i64; 64]> = coeff_blocks
        .iter()
        .map(|coeffs| {
            let mut w = [0i64; 64];
            for (slot, &c) in w.iter_mut().zip(coeffs) {
                *slot = i64::from(c);
            }
            w
        })
        .collect();
    two_d_batch(mac, &mut work, false);
    work.iter()
        .map(|w| {
            let mut out = [0u8; 64];
            for (slot, &v) in out.iter_mut().zip(w) {
                *slot = (v + 128).clamp(0, 255) as u8;
            }
            out
        })
        .collect()
}

/// 2-D forward DCT of one pixel block (level-shifted by −128).
pub(crate) fn forward_block(mac: &mut impl MacUnit, block: &[u8; 64]) -> [i32; 64] {
    let mut work = [0i64; 64];
    for (slot, &p) in work.iter_mut().zip(block) {
        *slot = i64::from(p) - 128;
    }
    two_d(mac, &mut work, true);
    let mut out = [0i32; 64];
    for (slot, &v) in out.iter_mut().zip(&work) {
        *slot = v as i32;
    }
    out
}

/// 2-D inverse DCT of one coefficient block back to clamped pixels.
pub(crate) fn inverse_block(mac: &mut impl MacUnit, coeffs: &[i32; 64]) -> [u8; 64] {
    let mut work = [0i64; 64];
    for (slot, &c) in work.iter_mut().zip(coeffs) {
        *slot = i64::from(c);
    }
    two_d(mac, &mut work, false);
    let mut out = [0u8; 64];
    for (slot, &v) in out.iter_mut().zip(&work) {
        *slot = (v + 128).clamp(0, 255) as u8;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_engine_with_exact_closure_roundtrips() {
        let mut exact = |acc: i64, c: i64, s: i64| acc + c * s;
        let mut block = [0u8; 64];
        for (i, slot) in block.iter_mut().enumerate() {
            *slot = ((i * 41 + 3) % 256) as u8;
        }
        let coeffs = forward_block(&mut exact, &block);
        let back = inverse_block(&mut exact, &coeffs);
        for (&a, &b) in block.iter().zip(&back) {
            assert!((i32::from(a) - i32::from(b)).abs() <= 2);
        }
    }

    #[test]
    fn batch_engine_matches_scalar_per_lane() {
        let mut exact = |acc: i64, c: i64, s: i64| acc + c * s;
        let mut exact_batch = |accs: &mut [i64], c: i64, samples: &[i64]| {
            for (a, &s) in accs.iter_mut().zip(samples) {
                *a += c * s;
            }
        };
        let blocks: Vec<[u8; 64]> = (0..5u64)
            .map(|b| {
                let mut block = [0u8; 64];
                for (i, slot) in block.iter_mut().enumerate() {
                    *slot = ((i as u64 * 37 + b * 91 + 11) % 256) as u8;
                }
                block
            })
            .collect();
        let batch_coeffs = forward_block_batch(&mut exact_batch, &blocks);
        for (lane, block) in blocks.iter().enumerate() {
            assert_eq!(
                batch_coeffs[lane],
                forward_block(&mut exact, block),
                "lane {lane}"
            );
        }
        let batch_pixels = inverse_block_batch(&mut exact_batch, &batch_coeffs);
        for (lane, coeffs) in batch_coeffs.iter().enumerate() {
            assert_eq!(
                batch_pixels[lane],
                inverse_block(&mut exact, coeffs),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn round_shift_rounds_to_nearest() {
        assert_eq!(round_shift(4096, COEFF_FRACTION_BITS), 1);
        assert_eq!(round_shift(2048, COEFF_FRACTION_BITS), 1);
        assert_eq!(round_shift(2047, COEFF_FRACTION_BITS), 0);
        assert_eq!(round_shift(-2048, COEFF_FRACTION_BITS), 0);
        assert_eq!(round_shift(-2049, COEFF_FRACTION_BITS), -1);
    }
}
