//! Logic functions implemented by the cell set, with bit-level evaluation.

use std::fmt;

/// Maximum number of input pins of any cell function.
pub const MAX_INPUTS: usize = 3;
/// Maximum number of output pins of any cell function.
pub const MAX_OUTPUTS: usize = 2;

/// The boolean function computed by a standard cell.
///
/// The set mirrors the combinational portion of a NanGate-style 45 nm
/// library, including the compound cells (`AOI21`, `OAI21`), a 2:1 mux and
/// the arithmetic helper cells (`HalfAdder`, `FullAdder`) that synthesis
/// maps adder/multiplier structures onto.
///
/// # Examples
///
/// ```
/// use aix_cells::CellFunction;
///
/// let mut out = [false; 2];
/// CellFunction::FullAdder.eval(&[true, true, false], &mut out);
/// assert_eq!(out, [false, true]); // sum = 0, carry = 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellFunction {
    /// Inverter: `y = !a`.
    Inv,
    /// Buffer: `y = a`.
    Buf,
    /// 2-input NAND: `y = !(a & b)`.
    Nand2,
    /// 3-input NAND: `y = !(a & b & c)`.
    Nand3,
    /// 2-input NOR: `y = !(a | b)`.
    Nor2,
    /// 3-input NOR: `y = !(a | b | c)`.
    Nor3,
    /// 2-input AND: `y = a & b`.
    And2,
    /// 2-input OR: `y = a | b`.
    Or2,
    /// 2-input XOR: `y = a ^ b`.
    Xor2,
    /// 2-input XNOR: `y = !(a ^ b)`.
    Xnor2,
    /// AND-OR-invert: `y = !((a & b) | c)`.
    Aoi21,
    /// OR-AND-invert: `y = !((a | b) & c)`.
    Oai21,
    /// 2:1 multiplexer: `y = s ? b : a` with pin order `(a, b, s)`.
    Mux2,
    /// Half adder, outputs `(sum, carry) = (a ^ b, a & b)`.
    HalfAdder,
    /// Full adder, outputs `(sum, carry)` of `a + b + cin`.
    FullAdder,
    /// D flip-flop. Sequential; present for completeness of the library and
    /// the power model, never part of the combinational netlists this
    /// workspace analyzes.
    Dff,
}

impl CellFunction {
    /// All functions in the library, in a stable order.
    pub const ALL: [CellFunction; 16] = [
        CellFunction::Inv,
        CellFunction::Buf,
        CellFunction::Nand2,
        CellFunction::Nand3,
        CellFunction::Nor2,
        CellFunction::Nor3,
        CellFunction::And2,
        CellFunction::Or2,
        CellFunction::Xor2,
        CellFunction::Xnor2,
        CellFunction::Aoi21,
        CellFunction::Oai21,
        CellFunction::Mux2,
        CellFunction::HalfAdder,
        CellFunction::FullAdder,
        CellFunction::Dff,
    ];

    /// Number of input pins.
    pub fn input_count(self) -> usize {
        match self {
            CellFunction::Inv | CellFunction::Buf | CellFunction::Dff => 1,
            CellFunction::Nand2
            | CellFunction::Nor2
            | CellFunction::And2
            | CellFunction::Or2
            | CellFunction::Xor2
            | CellFunction::Xnor2
            | CellFunction::HalfAdder => 2,
            CellFunction::Nand3
            | CellFunction::Nor3
            | CellFunction::Aoi21
            | CellFunction::Oai21
            | CellFunction::Mux2
            | CellFunction::FullAdder => 3,
        }
    }

    /// Number of output pins.
    pub fn output_count(self) -> usize {
        match self {
            CellFunction::HalfAdder | CellFunction::FullAdder => 2,
            _ => 1,
        }
    }

    /// Whether the cell holds state (only the D flip-flop does).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellFunction::Dff)
    }

    /// Evaluates the function on `inputs`, writing to `outputs`.
    ///
    /// For [`CellFunction::Dff`] this models the transparent data path
    /// (`q = d`), which is what a combinational evaluation of a registered
    /// boundary needs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` are shorter than
    /// [`input_count`](Self::input_count) /
    /// [`output_count`](Self::output_count).
    pub fn eval(self, inputs: &[bool], outputs: &mut [bool]) {
        assert!(
            inputs.len() >= self.input_count(),
            "too few inputs for {self}"
        );
        assert!(
            outputs.len() >= self.output_count(),
            "too few outputs for {self}"
        );
        match self {
            CellFunction::Inv => outputs[0] = !inputs[0],
            CellFunction::Buf | CellFunction::Dff => outputs[0] = inputs[0],
            CellFunction::Nand2 => outputs[0] = !(inputs[0] & inputs[1]),
            CellFunction::Nand3 => outputs[0] = !(inputs[0] & inputs[1] & inputs[2]),
            CellFunction::Nor2 => outputs[0] = !(inputs[0] | inputs[1]),
            CellFunction::Nor3 => outputs[0] = !(inputs[0] | inputs[1] | inputs[2]),
            CellFunction::And2 => outputs[0] = inputs[0] & inputs[1],
            CellFunction::Or2 => outputs[0] = inputs[0] | inputs[1],
            CellFunction::Xor2 => outputs[0] = inputs[0] ^ inputs[1],
            CellFunction::Xnor2 => outputs[0] = !(inputs[0] ^ inputs[1]),
            CellFunction::Aoi21 => outputs[0] = !((inputs[0] & inputs[1]) | inputs[2]),
            CellFunction::Oai21 => outputs[0] = !((inputs[0] | inputs[1]) & inputs[2]),
            CellFunction::Mux2 => outputs[0] = if inputs[2] { inputs[1] } else { inputs[0] },
            CellFunction::HalfAdder => {
                outputs[0] = inputs[0] ^ inputs[1];
                outputs[1] = inputs[0] & inputs[1];
            }
            CellFunction::FullAdder => {
                let (a, b, c) = (inputs[0], inputs[1], inputs[2]);
                outputs[0] = a ^ b ^ c;
                outputs[1] = (a & b) | (c & (a ^ b));
            }
        }
    }

    /// Evaluates the function bit-sliced over rows of `width` lane words
    /// held in one store: bit `l` of a word carries lane `l`'s value, and
    /// for every `k < width`, word `outputs[p] + k` receives pin `p` of
    /// [`eval`](Self::eval) applied lane by lane to words
    /// `inputs[i] + k`, so one gate costs a handful of bitwise machine
    /// ops for 64 stimulus vectors per word. The `match`
    /// runs once per call, so each function's loop over the row is a
    /// plain bitwise kernel. Offsets past the function's pins are
    /// ignored. Word `k` of every input row is read before word `k` of an
    /// output row is written, so the rows may sit anywhere in the store,
    /// in any order, as long as no two of them partly overlap.
    ///
    /// # Panics
    ///
    /// Panics if a row the function uses runs past the end of `words`.
    #[inline]
    pub fn eval_rows(
        self,
        words: &mut [u64],
        inputs: [usize; MAX_INPUTS],
        outputs: [usize; MAX_OUTPUTS],
        width: usize,
    ) {
        let [a, b, c] = inputs;
        let [y, z] = outputs;
        let rows = Rows { words, width };
        match self {
            CellFunction::Inv => rows.map1(a, y, |a| !a),
            CellFunction::Buf | CellFunction::Dff => rows.map1(a, y, |a| a),
            CellFunction::Nand2 => rows.map2(a, b, y, |a, b| !(a & b)),
            CellFunction::Nand3 => rows.map3(a, b, c, y, |a, b, c| !(a & b & c)),
            CellFunction::Nor2 => rows.map2(a, b, y, |a, b| !(a | b)),
            CellFunction::Nor3 => rows.map3(a, b, c, y, |a, b, c| !(a | b | c)),
            CellFunction::And2 => rows.map2(a, b, y, |a, b| a & b),
            CellFunction::Or2 => rows.map2(a, b, y, |a, b| a | b),
            CellFunction::Xor2 => rows.map2(a, b, y, |a, b| a ^ b),
            CellFunction::Xnor2 => rows.map2(a, b, y, |a, b| !(a ^ b)),
            CellFunction::Aoi21 => rows.map3(a, b, c, y, |a, b, c| !((a & b) | c)),
            CellFunction::Oai21 => rows.map3(a, b, c, y, |a, b, c| !((a | b) & c)),
            CellFunction::Mux2 => rows.map3(a, b, c, y, |a, b, s| (a & !s) | (b & s)),
            CellFunction::HalfAdder => {
                rows.map3x2(a, b, a, [y, z], |a, b, _| (a ^ b, a & b));
            }
            CellFunction::FullAdder => rows.map3x2(a, b, c, [y, z], |a, b, c| {
                (a ^ b ^ c, (a & b) | (c & (a ^ b)))
            }),
        }
    }

    /// The library naming stem, e.g. `NAND2` for [`CellFunction::Nand2`].
    pub fn stem(self) -> &'static str {
        match self {
            CellFunction::Inv => "INV",
            CellFunction::Buf => "BUF",
            CellFunction::Nand2 => "NAND2",
            CellFunction::Nand3 => "NAND3",
            CellFunction::Nor2 => "NOR2",
            CellFunction::Nor3 => "NOR3",
            CellFunction::And2 => "AND2",
            CellFunction::Or2 => "OR2",
            CellFunction::Xor2 => "XOR2",
            CellFunction::Xnor2 => "XNOR2",
            CellFunction::Aoi21 => "AOI21",
            CellFunction::Oai21 => "OAI21",
            CellFunction::Mux2 => "MUX2",
            CellFunction::HalfAdder => "HA",
            CellFunction::FullAdder => "FA",
            CellFunction::Dff => "DFF",
        }
    }
}

/// A store of lane words addressed by row offset: row `r` is words
/// `r..r + width`.
struct Rows<'w> {
    words: &'w mut [u64],
    width: usize,
}

impl Rows<'_> {
    /// Word `k` of row `y` = `f(word k of row a)`.
    #[inline(always)]
    fn map1(self, a: usize, y: usize, f: impl Fn(u64) -> u64) {
        self.map3(a, a, a, y, |a, _, _| f(a));
    }

    /// Word `k` of row `y` = `f(word k of rows a, b)`.
    #[inline(always)]
    fn map2(self, a: usize, b: usize, y: usize, f: impl Fn(u64, u64) -> u64) {
        self.map3(a, b, a, y, |a, b, _| f(a, b));
    }

    /// Word `k` of row `y` = `f(word k of rows a, b, c)`.
    #[inline(always)]
    fn map3(self, a: usize, b: usize, c: usize, y: usize, f: impl Fn(u64, u64, u64) -> u64) {
        let Rows { words, width } = self;
        if width == 1 {
            // One-batch walks: skip the loop's set-up.
            words[y] = f(words[a], words[b], words[c]);
            return;
        }
        for k in 0..width {
            words[y + k] = f(words[a + k], words[b + k], words[c + k]);
        }
    }

    /// Word `k` of rows `y`, `z` = `f(word k of rows a, b, c)`.
    #[inline(always)]
    fn map3x2(
        self,
        a: usize,
        b: usize,
        c: usize,
        [y, z]: [usize; 2],
        f: impl Fn(u64, u64, u64) -> (u64, u64),
    ) {
        let Rows { words, width } = self;
        if width == 1 {
            (words[y], words[z]) = f(words[a], words[b], words[c]);
            return;
        }
        for k in 0..width {
            (words[y + k], words[z + k]) = f(words[a + k], words[b + k], words[c + k]);
        }
    }
}

impl fmt::Display for CellFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.stem())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval1(f: CellFunction, inputs: &[bool]) -> bool {
        let mut out = [false; MAX_OUTPUTS];
        f.eval(inputs, &mut out);
        out[0]
    }

    #[test]
    fn basic_gates_truth_tables() {
        assert!(eval1(CellFunction::Inv, &[false]));
        assert!(!eval1(CellFunction::Inv, &[true]));
        assert!(eval1(CellFunction::Nand2, &[true, false]));
        assert!(!eval1(CellFunction::Nand2, &[true, true]));
        assert!(eval1(CellFunction::Nor2, &[false, false]));
        assert!(!eval1(CellFunction::Nor2, &[true, false]));
        assert!(eval1(CellFunction::Xor2, &[true, false]));
        assert!(!eval1(CellFunction::Xor2, &[true, true]));
        assert!(eval1(CellFunction::Xnor2, &[true, true]));
    }

    #[test]
    fn compound_gates() {
        // AOI21: !((a&b)|c)
        assert!(!eval1(CellFunction::Aoi21, &[true, true, false]));
        assert!(!eval1(CellFunction::Aoi21, &[false, false, true]));
        assert!(eval1(CellFunction::Aoi21, &[true, false, false]));
        // OAI21: !((a|b)&c)
        assert!(!eval1(CellFunction::Oai21, &[true, false, true]));
        assert!(eval1(CellFunction::Oai21, &[false, false, true]));
        assert!(eval1(CellFunction::Oai21, &[true, true, false]));
    }

    #[test]
    fn mux_selects() {
        assert!(!eval1(CellFunction::Mux2, &[false, true, false]));
        assert!(eval1(CellFunction::Mux2, &[false, true, true]));
    }

    #[test]
    fn full_adder_all_combinations() {
        for bits in 0u8..8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            let mut out = [false; 2];
            CellFunction::FullAdder.eval(&[a, b, c], &mut out);
            let total = u8::from(a) + u8::from(b) + u8::from(c);
            assert_eq!(out[0], total & 1 != 0, "sum for {bits:03b}");
            assert_eq!(out[1], total >= 2, "carry for {bits:03b}");
        }
    }

    #[test]
    fn half_adder_all_combinations() {
        for bits in 0u8..4 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let mut out = [false; 2];
            CellFunction::HalfAdder.eval(&[a, b], &mut out);
            assert_eq!(out[0], a ^ b);
            assert_eq!(out[1], a & b);
        }
    }

    #[test]
    fn pin_counts_within_bounds() {
        for f in CellFunction::ALL {
            assert!(f.input_count() <= MAX_INPUTS);
            assert!(f.output_count() <= MAX_OUTPUTS);
            assert!(f.input_count() >= 1 && f.output_count() >= 1);
        }
    }

    #[test]
    fn only_dff_is_sequential() {
        for f in CellFunction::ALL {
            assert_eq!(f.is_sequential(), f == CellFunction::Dff);
        }
    }

    #[test]
    #[should_panic(expected = "too few inputs")]
    fn eval_checks_arity() {
        let mut out = [false; 2];
        CellFunction::FullAdder.eval(&[true], &mut out);
    }

    #[test]
    fn eval_rows_matches_eval_on_every_lane() {
        // Deterministic pseudo-random lane words exercise all input
        // combinations of every function in every lane position.
        let mut state = 0x1319_8A2E_0370_7344u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bit = |word: u64, lane: usize| word >> lane & 1 == 1;
        for f in CellFunction::ALL {
            for width in [1usize, 3, 16] {
                // Five rows, the outputs below the inputs and in reverse
                // pin order.
                let before: Vec<u64> = (0..5 * width).map(|_| next()).collect();
                let inputs = [2 * width, 4 * width, 3 * width];
                let outputs = [width, 0];
                let mut words = before.clone();
                f.eval_rows(&mut words, inputs, outputs, width);
                for k in 0..width {
                    for lane in 0..64 {
                        let bits = inputs.map(|row| bit(before[row + k], lane));
                        let mut out = [false; MAX_OUTPUTS];
                        f.eval(&bits, &mut out);
                        assert_eq!(
                            bit(words[outputs[0] + k], lane),
                            out[0],
                            "{f} word {k} of {width} lane {lane}"
                        );
                        let carry = if f.output_count() == 2 {
                            out[1]
                        } else {
                            bit(before[k], lane)
                        };
                        assert_eq!(
                            bit(words[outputs[1] + k], lane),
                            carry,
                            "{f} pin 1 word {k} of {width} lane {lane}"
                        );
                    }
                    for &row in &inputs {
                        assert_eq!(words[row + k], before[row + k], "{f} input row changed");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn eval_rows_checks_row_bounds() {
        CellFunction::Nand2.eval_rows(&mut [0; 3], [0, 2, 0], [1, 1], 2);
    }
}
