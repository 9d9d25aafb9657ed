//! Multiplier generators: carry-save array and Wallace-tree architectures.

use crate::{add_into, AdderKind, Canonical, CellSet, Component, ComponentSpec};
use aix_cells::Library;
use aix_netlist::{GateSink, NetId, Netlist, NetlistError};
use std::sync::Arc;

/// Multiplier architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MultiplierKind {
    /// Carry-save array: regular layout, delay linear in width. Truncation
    /// removes whole rows *and* columns, so its delay responds strongly to
    /// precision reduction — the behaviour the paper reports for its MAC.
    Array,
    /// Wallace tree with a carry-select final adder: logarithmic reduction
    /// depth, the best-performance mapping.
    Wallace,
    /// Wallace tree with a Kogge-Stone final adder: a fully balanced
    /// structure whose exercised paths hug the critical path — the ablation
    /// used to study dynamic timing-error sensitivity.
    WallacePrefix,
}

impl MultiplierKind {
    /// All architectures, for sweeps and ablations.
    pub const ALL: [MultiplierKind; 3] = [
        MultiplierKind::Array,
        MultiplierKind::Wallace,
        MultiplierKind::WallacePrefix,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MultiplierKind::Array => "array",
            MultiplierKind::Wallace => "wallace",
            MultiplierKind::WallacePrefix => "wallace-ks",
        }
    }
}

/// Generates the unsigned partial-product matrix: `pp[i][j] = a[i] & b[j]`.
pub(crate) fn partial_products(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
) -> Result<Vec<Vec<NetId>>, NetlistError> {
    a.iter()
        .map(|&ai| {
            b.iter()
                .map(|&bj| Ok(nl.add_gate(cells.and2, &[ai, bj])?[0]))
                .collect()
        })
        .collect()
}

/// Instantiates a multiplier over existing operand buses, returning the
/// `a.len() + b.len()`-bit product bus.
///
/// # Errors
///
/// Propagates [`NetlistError`] from gate instantiation.
///
/// # Panics
///
/// Panics if either operand bus is empty.
pub fn multiply_into(
    nl: &mut impl GateSink,
    kind: MultiplierKind,
    a: &[NetId],
    b: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    assert!(!a.is_empty() && !b.is_empty(), "operands must be non-empty");
    let cells = CellSet::resolve(nl.library());
    match kind {
        MultiplierKind::Array => array_multiplier(nl, &cells, a, b),
        MultiplierKind::Wallace => wallace_multiplier(nl, &cells, a, b, AdderKind::CarrySelect),
        MultiplierKind::WallacePrefix => {
            wallace_multiplier(nl, &cells, a, b, AdderKind::KoggeStone)
        }
    }
}

/// Classic carry-save array: each row adds one partial product, carries are
/// saved diagonally, and a final ripple row merges the remaining carries.
fn array_multiplier(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    let n = a.len();
    let m = b.len();
    let pp = partial_products(nl, cells, a, b)?;
    let zero = nl.constant(false);
    let mut product = Vec::with_capacity(n + m);
    // Running carry-save state: `sums[j]` is the current sum bit for weight
    // `row + j`, `carries[j]` the carry generated at that position.
    let mut sums: Vec<NetId> = pp[0].clone();
    let mut carries: Vec<NetId> = vec![zero; m];
    product.push(sums[0]);
    for (row, pp_row) in pp.iter().enumerate().skip(1) {
        let mut next_sums = Vec::with_capacity(m);
        let mut next_carries = Vec::with_capacity(m);
        for j in 0..m {
            // Bits of weight row + j: this row's pp, the shifted previous
            // sum, and the previous carry of the same weight.
            let prev_sum = if j + 1 < m { sums[j + 1] } else { zero };
            let out = nl.add_gate(cells.fa, &[pp_row[j], prev_sum, carries[j]])?;
            next_sums.push(out[0]);
            next_carries.push(out[1]);
        }
        sums = next_sums;
        carries = next_carries;
        product.push(sums[0]);
        let _ = row;
    }
    // Final merge: remaining sum bits plus carries, rippled.
    let mut carry = zero;
    for j in 1..m {
        let out = nl.add_gate(cells.fa, &[sums[j], carries[j - 1], carry])?;
        product.push(out[0]);
        carry = out[1];
    }
    let out = nl.add_gate(cells.ha, &[carries[m - 1], carry])?;
    product.push(out[0]);
    debug_assert_eq!(product.len(), n + m);
    Ok(product)
}

/// Wallace-style column compression down to two rows, then one fast
/// carry-select addition.
fn wallace_multiplier(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
    merge: AdderKind,
) -> Result<Vec<NetId>, NetlistError> {
    let n = a.len();
    let m = b.len();
    let width = n + m;
    let pp = partial_products(nl, cells, a, b)?;
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); width];
    for (i, row) in pp.iter().enumerate() {
        for (j, &bit) in row.iter().enumerate() {
            columns[i + j].push(bit);
        }
    }
    compress(nl, cells, &mut columns)?;
    // Two remaining rows -> fast adder.
    let (row_a, row_b) = two_rows(&columns, nl.constant(false));
    let (sum, _overflow) = add_into(nl, merge, &row_a, &row_b, None)?;
    Ok(sum)
}

/// Wallace-style column compression: each round puts a full adder on every
/// three bits of a column and a half adder on a remaining pair (carries go
/// one column up, off the top one), until every column holds at most two
/// bits.
pub(crate) fn compress(
    nl: &mut impl GateSink,
    cells: &CellSet,
    columns: &mut Vec<Vec<NetId>>,
) -> Result<(), NetlistError> {
    let width = columns.len();
    // The next round's columns; swapped with `columns` after each round so
    // both keep their allocations.
    let mut next: Vec<Vec<NetId>> = vec![Vec::new(); width];
    while columns.iter().any(|c| c.len() > 2) {
        next.iter_mut().for_each(Vec::clear);
        for (w, column) in columns.iter().enumerate() {
            let mut idx = 0;
            while column.len() - idx >= 3 {
                let out =
                    nl.add_gate(cells.fa, &[column[idx], column[idx + 1], column[idx + 2]])?;
                next[w].push(out[0]);
                if w + 1 < width {
                    next[w + 1].push(out[1]);
                }
                idx += 3;
            }
            if column.len() - idx == 2 {
                let out = nl.add_gate(cells.ha, &[column[idx], column[idx + 1]])?;
                next[w].push(out[0]);
                if w + 1 < width {
                    next[w + 1].push(out[1]);
                }
            } else if column.len() - idx == 1 {
                next[w].push(column[idx]);
            }
        }
        std::mem::swap(columns, &mut next);
    }
    Ok(())
}

/// The two rows left by [`compress`], with `zero` where a column ran out.
pub(crate) fn two_rows(columns: &[Vec<NetId>], zero: NetId) -> (Vec<NetId>, Vec<NetId>) {
    let row = |k: usize| {
        columns
            .iter()
            .map(|c| c.get(k).copied().unwrap_or(zero))
            .collect()
    };
    (row(0), row(1))
}

/// Builds a complete multiplier component: inputs `a`, `b` of
/// [`ComponentSpec::width`] bits, output `p` of `2 × width` bits.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
pub fn build_multiplier(
    library: &Arc<Library>,
    kind: MultiplierKind,
    spec: ComponentSpec,
) -> Result<Netlist, NetlistError> {
    Canonical::Multiplier(kind, spec).build(library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sim::oracle;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn run_mult(nl: &Netlist, width: usize, a: u64, b: u64) -> u64 {
        let mut inputs = bus_from_u64(a, width);
        inputs.extend(bus_from_u64(b, width));
        bus_to_u64(&oracle::eval(nl, &inputs).unwrap())
    }

    #[test]
    fn exhaustive_four_bit_both_architectures() {
        let lib = lib();
        for kind in MultiplierKind::ALL {
            let nl = build_multiplier(&lib, kind, ComponentSpec::full(4)).unwrap();
            for a in 0u64..16 {
                for b in 0u64..16 {
                    assert_eq!(run_mult(&nl, 4, a, b), a * b, "{kind:?} {a}*{b}");
                }
            }
        }
    }

    #[test]
    fn random_16_bit_both_architectures() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = lib();
        let mut rng = StdRng::seed_from_u64(13);
        for kind in MultiplierKind::ALL {
            let nl = build_multiplier(&lib, kind, ComponentSpec::full(16)).unwrap();
            for _ in 0..100 {
                let a: u64 = rng.gen::<u16>() as u64;
                let b: u64 = rng.gen::<u16>() as u64;
                assert_eq!(run_mult(&nl, 16, a, b), a * b, "{kind:?} {a}*{b}");
            }
        }
    }

    #[test]
    fn random_32_bit_wallace() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = lib();
        let mut rng = StdRng::seed_from_u64(17);
        let nl = build_multiplier(&lib, MultiplierKind::Wallace, ComponentSpec::full(32)).unwrap();
        for _ in 0..25 {
            let a: u64 = rng.gen::<u32>() as u64;
            let b: u64 = rng.gen::<u32>() as u64;
            assert_eq!(run_mult(&nl, 32, a, b), a * b);
        }
    }

    #[test]
    fn truncated_multiplier_matches_masked_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = lib();
        let spec = ComponentSpec::new(12, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(19);
        for kind in MultiplierKind::ALL {
            let nl = build_multiplier(&lib, kind, spec).unwrap();
            for _ in 0..50 {
                let a = u64::from(rng.gen::<u16>() & 0xFFF);
                let b = u64::from(rng.gen::<u16>() & 0xFFF);
                let expect = spec.truncate(a) * spec.truncate(b);
                assert_eq!(run_mult(&nl, 12, a, b), expect, "{kind:?}");
            }
        }
    }

    #[test]
    fn one_bit_multiplier() {
        let lib = lib();
        for kind in MultiplierKind::ALL {
            let nl = build_multiplier(&lib, kind, ComponentSpec::full(1)).unwrap();
            for a in 0..2u64 {
                for b in 0..2u64 {
                    assert_eq!(run_mult(&nl, 1, a, b), a * b, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn product_width_is_double() {
        let lib = lib();
        let nl = build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(8)).unwrap();
        assert_eq!(nl.outputs().len(), 16);
        let max = run_mult(&nl, 8, 255, 255);
        assert_eq!(max, 255 * 255);
    }
}
