//! Shared golden-reference helpers.
//!
//! Every error measurement in this crate compares a circuit response
//! against a *golden* functional reference — the settled zero-delay
//! outputs, numerically interpreted as one unsigned word where that makes
//! sense. Centralizing it here means the packed engines and the scalar
//! reference loops of the tests (`oracle`) share one reference
//! implementation and cannot drift apart on the reference side.

use crate::packed::{PackedEvaluator, LANES};
use aix_netlist::{Netlist, NetlistError};

/// Numeric value of an output bit vector (port order, LSB first),
/// truncated to the low 64 bits — the golden word the paper's error
/// magnitudes are measured against. Unlike [`aix_netlist::bus_to_u64`]
/// this accepts arbitrary widths, so callers need no pre-truncation.
pub fn golden_word(bits: &[bool]) -> u64 {
    bits.iter()
        .take(64)
        .enumerate()
        .fold(0u64, |word, (i, &b)| word | (u64::from(b) << i))
}

/// The same golden word extracted from packed lane words (one `u64` per
/// output port): the numeric value seen by lane `lane`.
pub fn golden_lane_word(words: &[u64], lane: usize) -> u64 {
    assert!(lane < LANES, "lane {lane} out of range");
    words
        .iter()
        .take(64)
        .enumerate()
        .fold(0u64, |word, (i, &w)| word | (((w >> lane) & 1) << i))
}

/// [`golden_lane_word`] for every lane at once: `result[lane]` is the
/// numeric value lane `lane` sees. Words past the 64th are ignored, as
/// there. It is a 64×64 bit-matrix transpose by block swaps (six rounds
/// over halves, quarters, … of the matrix), so it costs a few hundred
/// word operations instead of one pass over the words per lane.
pub fn golden_lane_words(words: &[u64]) -> [u64; LANES] {
    let mut matrix = [0u64; LANES];
    for (row, &word) in matrix.iter_mut().zip(words) {
        *row = word;
    }
    // Round `width` swaps, within every 2·width × 2·width block, the
    // top-right width × width quadrant with the bottom-left one.
    let mut width = LANES / 2;
    let mut mask = u64::MAX >> (LANES / 2);
    while width != 0 {
        for block in matrix.chunks_exact_mut(2 * width) {
            let (top, bottom) = block.split_at_mut(width);
            for (upper, lower) in top.iter_mut().zip(bottom) {
                let swap = ((*upper >> width) ^ *lower) & mask;
                *upper ^= swap << width;
                *lower ^= swap;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
    matrix
}

/// Functional reference responses for a stimulus set, from
/// the bit-parallel evaluator. They equal the scalar reference
/// `oracle::reference_outputs` of the tests vector for vector (both
/// implement the same zero-delay semantics).
///
/// # Errors
///
/// Propagates evaluator errors (cyclic netlist, width mismatch).
pub fn reference_outputs(
    netlist: &Netlist,
    stimuli: &[Vec<bool>],
) -> Result<Vec<Vec<bool>>, NetlistError> {
    let mut references = Vec::with_capacity(stimuli.len());
    let mut packed = PackedEvaluator::new(netlist)?;
    for batch in stimuli.chunks(LANES) {
        packed.eval_batch(batch)?;
        for lane in 0..batch.len() {
            references.push(packed.output_lane_values(lane));
        }
    }
    Ok(references)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OperandSource, UniformOperands};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_netlist::bus_to_u64;
    use std::sync::Arc;

    #[test]
    fn golden_word_matches_bus_to_u64_and_truncates() {
        let bits = [true, false, true, true];
        assert_eq!(golden_word(&bits), bus_to_u64(&bits));
        assert_eq!(golden_word(&bits), 0b1101);
        // 70 bits: only the low 64 land in the word.
        let mut wide = vec![false; 70];
        wide[0] = true;
        wide[69] = true;
        assert_eq!(golden_word(&wide), 1);
    }

    #[test]
    fn golden_lane_word_extracts_per_lane_values() {
        // Two ports, three lanes: port0 = 1,0,1; port1 = 0,1,1.
        let words = [0b101u64, 0b110u64];
        assert_eq!(golden_lane_word(&words, 0), 0b01);
        assert_eq!(golden_lane_word(&words, 1), 0b10);
        assert_eq!(golden_lane_word(&words, 2), 0b11);
    }

    #[test]
    fn golden_lane_words_transposes_like_golden_lane_word() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for count in [0, 1, 33, 64, 65] {
            let words: Vec<u64> = (0..count).map(|_| next()).collect();
            let all = golden_lane_words(&words);
            for (lane, &value) in all.iter().enumerate() {
                assert_eq!(
                    value,
                    golden_lane_word(&words, lane),
                    "{count} words, lane {lane}"
                );
            }
        }
        // A lone set bit lands in the transposed position.
        let mut words = [0u64; 64];
        words[5] = 1 << 40;
        let all = golden_lane_words(&words);
        assert_eq!(all[40], 1 << 5);
        assert_eq!(all.iter().filter(|&&w| w != 0).count(), 1);
    }

    /// The golden reference *is* the arithmetic model: an adder's reference
    /// outputs must equal `a + b` exactly, from the packed evaluator and
    /// the scalar oracle alike.
    #[test]
    fn reference_outputs_match_arith_model_under_both_engines() {
        let lib = Arc::new(Library::nangate45_like());
        let width = 8;
        let nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(width)).unwrap();
        let stimuli: Vec<Vec<bool>> = UniformOperands::new(width, 7).vectors(200).collect();
        let refs = reference_outputs(&nl, &stimuli).unwrap();
        for (vector, outputs) in stimuli.iter().zip(&refs) {
            let a = bus_to_u64(&vector[..width]);
            let b = bus_to_u64(&vector[width..]);
            assert_eq!(golden_word(outputs), a + b, "{a}+{b}");
        }
        assert_eq!(
            refs,
            crate::oracle::reference_outputs(&nl, &stimuli).unwrap()
        );
    }

    #[test]
    fn engines_agree_on_references() {
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(6)).unwrap();
        let stimuli: Vec<Vec<bool>> = UniformOperands::new(6, 3).vectors(130).collect();
        let scalar = crate::oracle::reference_outputs(&nl, &stimuli).unwrap();
        let packed = reference_outputs(&nl, &stimuli).unwrap();
        assert_eq!(scalar, packed);
    }
}
