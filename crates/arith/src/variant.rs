//! Functional approximation variants of the arithmetic generators.
//!
//! The paper's only approximation knob is uniform LSB truncation
//! ([`ComponentSpec::precision`]). This module opens the gate-level design
//! space that Balaskas et al. (arXiv:2203.07962) search against aging:
//!
//! * **Lower-OR adders** ([`AdderVariant::lower_or_bits`]): the lowest bits
//!   compute `sum_i = a_i | b_i` with no carry chain at all (LOA), and the
//!   carry into the exact region is speculated as `a & b` of the last OR
//!   bit. Cuts the carry chain like truncation but keeps most of the
//!   information in the low bits.
//! * **Approximate full adders** ([`AdderVariant::approx_fa_bits`]): AMA/AXA
//!   style cells whose sum is `(a ^ b) | c` — wrong only when `a ^ b` and
//!   `c` are both one — while the carry stays exact, so the error does not
//!   propagate up the chain.
//! * **Speculative segmentation** ([`AdderVariant::segment_bits`]): the
//!   exact region is split into segments whose carry-in is speculated from
//!   the neighbouring generate bit (`a & b`), bounding the carry chain — and
//!   hence the aged critical path — by the segment length.
//! * **Per-column multiplier pruning** ([`MultiplierVariant::pruned_columns`]):
//!   partial products of weight below the cut are dropped before
//!   compression, bounding the error by the pruned column values instead of
//!   the operand magnitudes that uniform truncation forfeits.
//! * **Approximate final merge** ([`MultiplierVariant::merge_lower_or`]):
//!   the multiplier's final two-row addition uses a lower-OR region,
//!   shortening the merge carry chain that dominates the post-compression
//!   critical path.
//!
//! Every knob at its zero ("exact") setting reproduces the canonical
//! generator bit-for-bit on every input — the invariant
//! `tests/explore_equivalence.rs` enforces differentially, packed and
//! scalar engines both. That round-trip is what lets the explorer trust a
//! variant netlist as a drop-in for the component it approximates: the
//! search moves through a space whose origin is provably the baseline, so
//! any error measured on a candidate is attributable to its knobs alone.

use crate::component::operands;
use crate::multiplier::{compress, partial_products, two_rows};
use crate::{add_into, AdderKind, CellSet, Component, ComponentSpec, MultiplierKind};
use aix_netlist::{GateSink, NetId, NetlistError};
use std::fmt;

/// An approximate adder configuration.
///
/// Bits are consumed LSB-first by three regions: `lower_or_bits` OR-gate
/// bits, then `approx_fa_bits` approximate full adders, then the remaining
/// bits built by the canonical [`AdderKind`] architecture — optionally split
/// into carry-speculating segments of `segment_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdderVariant {
    /// Architecture of the exact region.
    pub kind: AdderKind,
    /// Width and uniform operand truncation, as for [`crate::build_adder`].
    pub spec: ComponentSpec,
    /// Lowest bits computed as `a | b` with no carry (LOA region).
    pub lower_or_bits: usize,
    /// Bits above the OR region using `(a ^ b) | c` approximate sums.
    pub approx_fa_bits: usize,
    /// Segment length for speculative carries in the exact region;
    /// `0` keeps the single exact carry chain.
    pub segment_bits: usize,
}

impl AdderVariant {
    /// The exact (zero-knob) variant of `kind` at `spec`.
    pub fn exact(kind: AdderKind, spec: ComponentSpec) -> Self {
        AdderVariant {
            kind,
            spec,
            lower_or_bits: 0,
            approx_fa_bits: 0,
            segment_bits: 0,
        }
    }

    /// Whether every approximation knob is at its exact setting.
    ///
    /// Note this is about the *variant* knobs: a truncated [`ComponentSpec`]
    /// is still "exact" in the sense of matching [`crate::build_adder`] at
    /// the same spec.
    pub fn is_exact(&self) -> bool {
        self.lower_or_bits == 0 && self.approx_fa_bits == 0 && self.segment_bits == 0
    }
}

/// Inputs `a`, `b` of `spec.width()` bits, outputs `sum[width]` plus
/// `cout`, like [`crate::build_adder`].
impl Component for AdderVariant {
    fn name(&self) -> String {
        format!("adder_{self}")
    }

    fn build_into(&self, sink: &mut impl GateSink) -> Result<(), NetlistError> {
        let (a, b, _) = operands(sink, self.spec, 0);
        let (sum, cout) = variant_add_into(sink, self, &a, &b)?;
        sink.mark_output_bus("sum", &sum);
        sink.mark_output("cout", cout);
        Ok(())
    }
}

impl fmt::Display for AdderVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}_{}_lo{}_afa{}_seg{}",
            self.kind.label(),
            self.spec,
            self.lower_or_bits,
            self.approx_fa_bits,
            self.segment_bits
        )
    }
}

/// Instantiates an [`AdderVariant`] over existing operand buses, returning
/// the sum bus and carry-out like [`add_into`].
///
/// Region widths are clamped to the operand width, LSB-first:
/// OR region, then approximate-FA region, then the exact remainder.
///
/// # Errors
///
/// Propagates [`NetlistError`] from gate instantiation.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length or are empty.
pub fn variant_add_into(
    nl: &mut impl GateSink,
    variant: &AdderVariant,
    a: &[NetId],
    b: &[NetId],
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    assert_eq!(a.len(), b.len(), "operand buses must match");
    assert!(!a.is_empty(), "operands must be at least one bit");
    let w = a.len();
    let cells = CellSet::resolve(nl.library());
    let or_end = variant.lower_or_bits.min(w);
    let afa_end = (or_end + variant.approx_fa_bits).min(w);
    let mut sum = Vec::with_capacity(w);

    // Region 1: lower-OR bits, no carry chain.
    for i in 0..or_end {
        sum.push(nl.add_gate(cells.or2, &[a[i], b[i]])?[0]);
    }
    // LOA+ carry speculation into the next region: generate of the top OR
    // bit. With no OR region this is the canonical constant-zero carry-in.
    let mut carry = if or_end > 0 {
        nl.add_gate(cells.and2, &[a[or_end - 1], b[or_end - 1]])?[0]
    } else {
        nl.constant(false)
    };

    // Region 2: approximate full adders — exact carry, OR-relaxed sum.
    for i in or_end..afa_end {
        let p = nl.add_gate(cells.xor2, &[a[i], b[i]])?[0];
        let g = nl.add_gate(cells.and2, &[a[i], b[i]])?[0];
        sum.push(nl.add_gate(cells.or2, &[p, carry])?[0]);
        let pc = nl.add_gate(cells.and2, &[p, carry])?[0];
        carry = nl.add_gate(cells.or2, &[g, pc])?[0];
    }

    // Region 3: the exact remainder, optionally segmented with speculative
    // carries. Segment j > 0 takes `a & b` of the bit below it as carry-in,
    // cutting the true carry chain at the boundary.
    let mut start = afa_end;
    while start < w {
        let seg = if variant.segment_bits == 0 {
            w - start
        } else {
            variant.segment_bits.min(w - start)
        };
        let end = start + seg;
        let cin = if start == afa_end {
            carry
        } else {
            nl.add_gate(cells.and2, &[a[start - 1], b[start - 1]])?[0]
        };
        let (seg_sum, seg_cout) =
            add_into(nl, variant.kind, &a[start..end], &b[start..end], Some(cin))?;
        sum.extend(seg_sum);
        carry = seg_cout;
        start = end;
    }
    Ok((sum, carry))
}

/// An approximate multiplier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultiplierVariant {
    /// Architecture selecting the final merge adder, as in
    /// [`crate::multiply_into`].
    pub kind: MultiplierKind,
    /// Width and uniform operand truncation.
    pub spec: ComponentSpec,
    /// Product columns of weight below this are pruned: their partial
    /// products are dropped before compression and the output bits forced
    /// to zero.
    pub pruned_columns: usize,
    /// Lower-OR bits applied to the final two-row merge addition.
    pub merge_lower_or: usize,
}

impl MultiplierVariant {
    /// The exact (zero-knob) variant of `kind` at `spec`.
    pub fn exact(kind: MultiplierKind, spec: ComponentSpec) -> Self {
        MultiplierVariant {
            kind,
            spec,
            pruned_columns: 0,
            merge_lower_or: 0,
        }
    }

    /// Whether every approximation knob is at its exact setting.
    pub fn is_exact(&self) -> bool {
        self.pruned_columns == 0 && self.merge_lower_or == 0
    }

    /// The merge-adder architecture implied by [`MultiplierKind`]: the array
    /// multiplier ripples, the Wallace trees use their fast final adders.
    fn merge_kind(&self) -> AdderKind {
        match self.kind {
            MultiplierKind::Array => AdderKind::RippleCarry,
            MultiplierKind::Wallace => AdderKind::CarrySelect,
            MultiplierKind::WallacePrefix => AdderKind::KoggeStone,
        }
    }
}

/// Inputs `a`, `b` of `spec.width()` bits, output `p` of `2 × width`
/// bits, like [`crate::build_multiplier`].
impl Component for MultiplierVariant {
    fn name(&self) -> String {
        format!("mult_{self}")
    }

    fn build_into(&self, sink: &mut impl GateSink) -> Result<(), NetlistError> {
        let (a, b, _) = operands(sink, self.spec, 0);
        let product = variant_multiply_into(sink, self, &a, &b)?;
        sink.mark_output_bus("p", &product);
        Ok(())
    }
}

impl fmt::Display for MultiplierVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}_{}_col{}_mlo{}",
            self.kind.label(),
            self.spec,
            self.pruned_columns,
            self.merge_lower_or
        )
    }
}

/// Instantiates a [`MultiplierVariant`] over existing operand buses,
/// returning the `a.len() + b.len()`-bit product bus like
/// [`crate::multiply_into`].
///
/// All variants compress the partial-product matrix Wallace-style; the
/// [`MultiplierKind`] chooses the final merge adder, so the exact variant of
/// every kind computes the same full product as the canonical generator.
///
/// # Errors
///
/// Propagates [`NetlistError`] from gate instantiation.
///
/// # Panics
///
/// Panics if either operand bus is empty.
pub fn variant_multiply_into(
    nl: &mut impl GateSink,
    variant: &MultiplierVariant,
    a: &[NetId],
    b: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    assert!(!a.is_empty() && !b.is_empty(), "operands must be non-empty");
    let cells = CellSet::resolve(nl.library());
    let width = a.len() + b.len();
    let pruned = variant.pruned_columns.min(width);
    let zero = nl.constant(false);
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); width];
    // Partial products below the pruning cut never reach the columns; the
    // synthesis optimizer then removes the unreferenced AND gates.
    let pp = partial_products(nl, &cells, a, b)?;
    for (i, row) in pp.iter().enumerate() {
        for (j, &bit) in row.iter().enumerate() {
            if i + j >= pruned {
                columns[i + j].push(bit);
            }
        }
    }
    compress(nl, &cells, &mut columns)?;
    let (row_a, row_b) = two_rows(&columns, zero);
    let merge = AdderVariant {
        kind: variant.merge_kind(),
        spec: ComponentSpec::full(width.min(64)),
        lower_or_bits: variant.merge_lower_or,
        approx_fa_bits: 0,
        segment_bits: 0,
    };
    let (sum, _overflow) = variant_add_into(nl, &merge, &row_a, &row_b)?;
    Ok(sum)
}

/// An approximate multiply-accumulate configuration: a
/// [`MultiplierVariant`] product core feeding an [`AdderVariant`]
/// accumulator at `2 × width` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacVariant {
    /// Product core.
    pub mult: MultiplierVariant,
    /// Accumulate adder; its spec width must be `2 × mult.spec.width()`.
    pub adder: AdderVariant,
}

impl MacVariant {
    /// The exact variant matching [`crate::build_mac`]'s architecture
    /// (array core, carry-select accumulator).
    pub fn exact(spec: ComponentSpec) -> Self {
        MacVariant {
            mult: MultiplierVariant::exact(MultiplierKind::Array, spec),
            adder: AdderVariant::exact(
                AdderKind::CarrySelect,
                ComponentSpec::full(2 * spec.width()),
            ),
        }
    }

    /// Whether every approximation knob is at its exact setting.
    pub fn is_exact(&self) -> bool {
        self.mult.is_exact() && self.adder.is_exact()
    }
}

/// Inputs `a`, `b` of width bits and `acc` of `2 × width` bits, output
/// `out`, like [`crate::build_mac`].
impl Component for MacVariant {
    fn name(&self) -> String {
        format!("mac_{self}")
    }

    fn build_into(&self, sink: &mut impl GateSink) -> Result<(), NetlistError> {
        let spec = self.mult.spec;
        let (a, b, acc) = operands(sink, spec, 2 * spec.width());
        let out = variant_mac_into(sink, self, &a, &b, &acc)?;
        sink.mark_output_bus("out", &out);
        Ok(())
    }
}

impl fmt::Display for MacVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.mult, self.adder)
    }
}

/// Instantiates a [`MacVariant`] over existing buses: `a × b + acc`,
/// wrapping at the accumulator width, like [`crate::mac_into`].
///
/// # Errors
///
/// Propagates [`NetlistError`] from gate instantiation.
///
/// # Panics
///
/// Panics if `acc` is not exactly `a.len() + b.len()` bits wide.
pub fn variant_mac_into(
    nl: &mut impl GateSink,
    variant: &MacVariant,
    a: &[NetId],
    b: &[NetId],
    acc: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    assert_eq!(
        acc.len(),
        a.len() + b.len(),
        "accumulator must match product width"
    );
    let product = variant_multiply_into(nl, &variant.mult, a, b)?;
    let (sum, _wrap) = variant_add_into(nl, &variant.adder, &product, acc)?;
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_cells::Library;
    use aix_netlist::{bus_from_u64, bus_to_u64, Netlist};
    use aix_sim::oracle;
    use std::sync::Arc;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn run2(nl: &Netlist, width: usize, a: u64, b: u64) -> u64 {
        let mut inputs = bus_from_u64(a, width);
        inputs.extend(bus_from_u64(b, width));
        bus_to_u64(&oracle::eval(nl, &inputs).unwrap())
    }

    #[test]
    fn exact_adder_variant_matches_sum_exhaustively() {
        let lib = lib();
        for kind in AdderKind::ALL {
            let variant = AdderVariant::exact(kind, ComponentSpec::full(5));
            let nl = variant.build(&lib).unwrap();
            for a in 0u64..32 {
                for b in 0u64..32 {
                    assert_eq!(run2(&nl, 5, a, b), a + b, "{kind:?} {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn lower_or_adder_error_is_bounded_by_region() {
        let lib = lib();
        let variant = AdderVariant {
            kind: AdderKind::RippleCarry,
            spec: ComponentSpec::full(8),
            lower_or_bits: 3,
            approx_fa_bits: 0,
            segment_bits: 0,
        };
        let nl = variant.build(&lib).unwrap();
        for a in (0u64..256).step_by(7) {
            for b in (0u64..256).step_by(11) {
                // sum plus cout is the full 9-bit value, so the bound holds
                // without wraparound: the error is confined to the OR region
                // and its speculated carry.
                let got = run2(&nl, 8, a, b);
                assert!(
                    got.abs_diff(a + b) < (1 << 4),
                    "{a}+{b}: got {got}, exact {}",
                    a + b
                );
            }
        }
    }

    #[test]
    fn approx_fa_sum_only_overestimates() {
        let lib = lib();
        let variant = AdderVariant {
            kind: AdderKind::CarrySelect,
            spec: ComponentSpec::full(8),
            lower_or_bits: 0,
            approx_fa_bits: 4,
            segment_bits: 0,
        };
        let nl = variant.build(&lib).unwrap();
        for a in (0u64..256).step_by(5) {
            for b in (0u64..256).step_by(9) {
                let got = run2(&nl, 8, a, b);
                let exact = (a + b) & 0x1FF;
                // `(a ^ b) | c` never flips a one-bit to zero and the carry
                // is exact, so the result can only gain low-region bits.
                assert!(got >= exact, "{a}+{b}: got {got} < exact {exact}");
                assert!(got - exact < (1 << 4), "{a}+{b}: error too large");
            }
        }
    }

    #[test]
    fn segmented_adder_is_exact_when_no_boundary_carry() {
        let lib = lib();
        let variant = AdderVariant {
            kind: AdderKind::RippleCarry,
            spec: ComponentSpec::full(8),
            lower_or_bits: 0,
            approx_fa_bits: 0,
            segment_bits: 4,
        };
        let nl = variant.build(&lib).unwrap();
        // Low nibbles that generate no carry out are always exact.
        assert_eq!(run2(&nl, 8, 0x31, 0x42), 0x73);
        // A generate at the boundary bit is speculated correctly.
        assert_eq!(run2(&nl, 8, 0x0F, 0x09), 0x18);
    }

    #[test]
    fn exact_multiplier_variant_matches_product_exhaustively() {
        let lib = lib();
        for kind in MultiplierKind::ALL {
            let variant = MultiplierVariant::exact(kind, ComponentSpec::full(4));
            let nl = variant.build(&lib).unwrap();
            for a in 0u64..16 {
                for b in 0u64..16 {
                    assert_eq!(run2(&nl, 4, a, b), a * b, "{kind:?} {a}*{b}");
                }
            }
        }
    }

    #[test]
    fn pruned_multiplier_error_is_bounded_by_column_values() {
        let lib = lib();
        let variant = MultiplierVariant {
            kind: MultiplierKind::Wallace,
            spec: ComponentSpec::full(6),
            pruned_columns: 4,
            merge_lower_or: 0,
        };
        let nl = variant.build(&lib).unwrap();
        // Dropped value is at most sum over pruned columns of
        // height(c) * 2^c < width * 2^pruned.
        let bound = 6 * (1 << 4);
        for a in 0u64..64 {
            for b in 0u64..64 {
                let got = run2(&nl, 6, a, b);
                let exact = a * b;
                assert!(got <= exact, "pruning only removes value");
                assert!(exact - got < bound, "{a}*{b}: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn exact_mac_variant_matches_reference() {
        let lib = lib();
        let nl = MacVariant::exact(ComponentSpec::full(4))
            .build(&lib)
            .unwrap();
        for a in 0u64..16 {
            for b in 0u64..16 {
                for acc in [0u64, 5, 200, 255] {
                    let mut inputs = bus_from_u64(a, 4);
                    inputs.extend(bus_from_u64(b, 4));
                    inputs.extend(bus_from_u64(acc, 8));
                    let got = bus_to_u64(&oracle::eval(&nl, &inputs).unwrap());
                    assert_eq!(got, (a * b + acc) & 0xFF, "{a}*{b}+{acc}");
                }
            }
        }
    }

    #[test]
    fn variants_validate_and_schedule() {
        let lib = lib();
        let variant = AdderVariant {
            kind: AdderKind::KoggeStone,
            spec: ComponentSpec::new(16, 12).unwrap(),
            lower_or_bits: 3,
            approx_fa_bits: 2,
            segment_bits: 5,
        };
        let nl = variant.build(&lib).unwrap();
        assert!(nl.schedule().is_ok());
        // Construction is deterministic: a second build reports identical
        // structure.
        let again = variant.build(&lib).unwrap();
        assert_eq!(nl.stats().gate_count, again.stats().gate_count);
        assert_eq!(nl.stats().net_count, again.stats().net_count);
    }
}
