//! Adder generators: ripple-carry, carry-lookahead, carry-select and
//! Kogge-Stone architectures.

use crate::{Canonical, CellSet, Component, ComponentSpec};
use aix_cells::Library;
use aix_netlist::{GateSink, NetId, Netlist, NetlistError};
use std::sync::Arc;

/// Adder architecture.
///
/// The architectures trade delay against area and — crucially for this
/// paper — differ in how strongly truncating LSBs shortens the critical
/// path: linear for [`AdderKind::RippleCarry`], roughly `width/block` for
/// [`AdderKind::CarrySelect`] and [`AdderKind::CarryLookahead`], and only
/// logarithmically (via reduced loading) for [`AdderKind::KoggeStone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AdderKind {
    /// Chain of full adders; smallest area, longest delay.
    RippleCarry,
    /// 4-bit-block carry lookahead with rippling block carries.
    CarryLookahead,
    /// 4-bit-block carry select; the workspace's best-performance mapping.
    CarrySelect,
    /// Kogge-Stone parallel-prefix adder; logarithmic depth.
    KoggeStone,
}

impl AdderKind {
    /// All architectures, for sweeps and ablations.
    pub const ALL: [AdderKind; 4] = [
        AdderKind::RippleCarry,
        AdderKind::CarryLookahead,
        AdderKind::CarrySelect,
        AdderKind::KoggeStone,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AdderKind::RippleCarry => "rca",
            AdderKind::CarryLookahead => "cla",
            AdderKind::CarrySelect => "csel",
            AdderKind::KoggeStone => "ks",
        }
    }
}

/// Block size used by the blocked architectures.
const BLOCK: usize = 4;

/// Instantiates an adder over existing operand buses, returning the sum bus
/// (same width as the operands) and the carry-out net.
///
/// `a` and `b` must be equal-length, LSB-first buses. `cin` defaults to
/// constant zero.
///
/// # Errors
///
/// Propagates [`NetlistError`] from gate instantiation; never fails on
/// well-formed buses.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length or are empty.
pub fn add_into(
    nl: &mut impl GateSink,
    kind: AdderKind,
    a: &[NetId],
    b: &[NetId],
    cin: Option<NetId>,
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    assert_eq!(a.len(), b.len(), "operand buses must match");
    assert!(!a.is_empty(), "operands must be at least one bit");
    let cells = CellSet::resolve(nl.library());
    let cin = match cin {
        Some(net) => net,
        None => nl.constant(false),
    };
    match kind {
        AdderKind::RippleCarry => ripple_carry(nl, &cells, a, b, cin),
        AdderKind::CarryLookahead => carry_lookahead(nl, &cells, a, b, cin),
        AdderKind::CarrySelect => carry_select(nl, &cells, a, b, cin),
        AdderKind::KoggeStone => kogge_stone(nl, &cells, a, b, cin),
    }
}

fn ripple_carry(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (&ai, &bi) in a.iter().zip(b) {
        let out = nl.add_gate(cells.fa, &[ai, bi, carry])?;
        sum.push(out[0]);
        carry = out[1];
    }
    Ok((sum, carry))
}

/// Per-bit propagate/generate signals.
fn propagate_generate(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
) -> Result<(Vec<NetId>, Vec<NetId>), NetlistError> {
    let mut p = Vec::with_capacity(a.len());
    let mut g = Vec::with_capacity(a.len());
    for (&ai, &bi) in a.iter().zip(b) {
        p.push(nl.add_gate(cells.xor2, &[ai, bi])?[0]);
        g.push(nl.add_gate(cells.and2, &[ai, bi])?[0]);
    }
    Ok((p, g))
}

/// `g | (p & c)` — the carry-merge operator.
fn carry_merge(
    nl: &mut impl GateSink,
    cells: &CellSet,
    g: NetId,
    p: NetId,
    c: NetId,
) -> Result<NetId, NetlistError> {
    let pc = nl.add_gate(cells.and2, &[p, c])?[0];
    Ok(nl.add_gate(cells.or2, &[g, pc])?[0])
}

fn carry_lookahead(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    let n = a.len();
    let (p, g) = propagate_generate(nl, cells, a, b)?;
    let mut sum = Vec::with_capacity(n);
    let mut block_cin = cin;
    for block_start in (0..n).step_by(BLOCK) {
        let block_end = (block_start + BLOCK).min(n);
        // Within-block carries from the block carry-in.
        let mut c = block_cin;
        for i in block_start..block_end {
            sum.push(nl.add_gate(cells.xor2, &[p[i], c])?[0]);
            c = carry_merge(nl, cells, g[i], p[i], c)?;
        }
        // Block generate/propagate for the lookahead carry into the next
        // block: G = g3 + p3 g2 + p3 p2 g1 + ..., P = p3 p2 p1 p0.
        let mut block_g = g[block_start];
        let mut block_p = p[block_start];
        for i in block_start + 1..block_end {
            block_g = carry_merge(nl, cells, g[i], p[i], block_g)?;
            block_p = nl.add_gate(cells.and2, &[block_p, p[i]])?[0];
        }
        block_cin = carry_merge(nl, cells, block_g, block_p, block_cin)?;
    }
    Ok((sum, block_cin))
}

fn carry_select(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    let n = a.len();
    let zero = nl.constant(false);
    let one = nl.constant(true);
    let mut sum = Vec::with_capacity(n);
    // First block ripples directly from cin.
    let first_end = BLOCK.min(n);
    let (s0, mut carry) = ripple_carry(nl, cells, &a[..first_end], &b[..first_end], cin)?;
    sum.extend(s0);
    let mut start = first_end;
    while start < n {
        let end = (start + BLOCK).min(n);
        let (sz, cz) = ripple_carry(nl, cells, &a[start..end], &b[start..end], zero)?;
        let (so, co) = ripple_carry(nl, cells, &a[start..end], &b[start..end], one)?;
        for (s_zero, s_one) in sz.iter().zip(&so) {
            sum.push(nl.add_gate(cells.mux2, &[*s_zero, *s_one, carry])?[0]);
        }
        carry = nl.add_gate(cells.mux2, &[cz, co, carry])?[0];
        start = end;
    }
    Ok((sum, carry))
}

fn kogge_stone(
    nl: &mut impl GateSink,
    cells: &CellSet,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
) -> Result<(Vec<NetId>, NetId), NetlistError> {
    let n = a.len();
    let (p, g) = propagate_generate(nl, cells, a, b)?;
    // Prefix spans: big_g[i]/big_p[i] cover bits 0..=i.
    let mut big_g = g.clone();
    let mut big_p = p.clone();
    let mut d = 1;
    while d < n {
        let mut next_g = big_g.clone();
        let mut next_p = big_p.clone();
        for i in d..n {
            next_g[i] = carry_merge(nl, cells, big_g[i], big_p[i], big_g[i - d])?;
            next_p[i] = nl.add_gate(cells.and2, &[big_p[i], big_p[i - d]])?[0];
        }
        big_g = next_g;
        big_p = next_p;
        d *= 2;
    }
    // Carry into bit i: prefix over bits 0..i merged with cin.
    let mut sum = Vec::with_capacity(n);
    sum.push(nl.add_gate(cells.xor2, &[p[0], cin])?[0]);
    for i in 1..n {
        let carry_in = carry_merge(nl, cells, big_g[i - 1], big_p[i - 1], cin)?;
        sum.push(nl.add_gate(cells.xor2, &[p[i], carry_in])?[0]);
    }
    let cout = carry_merge(nl, cells, big_g[n - 1], big_p[n - 1], cin)?;
    Ok((sum, cout))
}

/// Replaces the low truncated bits of a bus with constant zero, implementing
/// the paper's LSB-truncation approximation at the operand boundary.
pub(crate) fn truncate_bus(
    nl: &mut impl GateSink,
    bus: &[NetId],
    spec: ComponentSpec,
) -> Vec<NetId> {
    let zero = nl.constant(false);
    bus.iter()
        .enumerate()
        .map(|(i, &net)| if i < spec.truncated_bits() { zero } else { net })
        .collect()
}

/// Builds a complete adder component: inputs `a` and `b` of
/// [`ComponentSpec::width`] bits, outputs `sum[width]` plus `cout`.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction; well-formed specs never fail.
pub fn build_adder(
    library: &Arc<Library>,
    kind: AdderKind,
    spec: ComponentSpec,
) -> Result<Netlist, NetlistError> {
    Canonical::Adder(kind, spec).build(library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sim::oracle;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn run_adder(nl: &Netlist, width: usize, a: u64, b: u64) -> u64 {
        let mut inputs = bus_from_u64(a, width);
        inputs.extend(bus_from_u64(b, width));
        bus_to_u64(&oracle::eval(nl, &inputs).unwrap())
    }

    #[test]
    fn exhaustive_four_bit_all_architectures() {
        let lib = lib();
        for kind in AdderKind::ALL {
            let nl = build_adder(&lib, kind, ComponentSpec::full(4)).unwrap();
            for a in 0u64..16 {
                for b in 0u64..16 {
                    assert_eq!(run_adder(&nl, 4, a, b), a + b, "{kind:?} {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn random_32_bit_all_architectures() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = lib();
        let mut rng = StdRng::seed_from_u64(7);
        for kind in AdderKind::ALL {
            let nl = build_adder(&lib, kind, ComponentSpec::full(32)).unwrap();
            for _ in 0..200 {
                let a: u64 = rng.gen::<u32>() as u64;
                let b: u64 = rng.gen::<u32>() as u64;
                assert_eq!(run_adder(&nl, 32, a, b), a + b, "{kind:?} {a}+{b}");
            }
        }
    }

    #[test]
    fn truncated_adder_matches_masked_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = lib();
        let spec = ComponentSpec::new(16, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for kind in AdderKind::ALL {
            let nl = build_adder(&lib, kind, spec).unwrap();
            for _ in 0..100 {
                let a: u64 = rng.gen::<u16>() as u64;
                let b: u64 = rng.gen::<u16>() as u64;
                let expect = spec.truncate(a) + spec.truncate(b);
                assert_eq!(run_adder(&nl, 16, a, b), expect, "{kind:?}");
            }
        }
    }

    #[test]
    fn one_bit_adders_work() {
        let lib = lib();
        for kind in AdderKind::ALL {
            let nl = build_adder(&lib, kind, ComponentSpec::full(1)).unwrap();
            for a in 0..2u64 {
                for b in 0..2u64 {
                    assert_eq!(run_adder(&nl, 1, a, b), a + b, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn non_multiple_of_block_width() {
        let lib = lib();
        for kind in [AdderKind::CarryLookahead, AdderKind::CarrySelect] {
            let nl = build_adder(&lib, kind, ComponentSpec::full(10)).unwrap();
            for (a, b) in [(1023, 1), (512, 511), (700, 700)] {
                assert_eq!(run_adder(&nl, 10, a, b), a + b, "{kind:?}");
            }
        }
    }

    #[test]
    fn ripple_carry_is_smallest() {
        let lib = lib();
        let spec = ComponentSpec::full(16);
        let rca = build_adder(&lib, AdderKind::RippleCarry, spec).unwrap();
        for kind in [AdderKind::CarrySelect, AdderKind::KoggeStone] {
            let other = build_adder(&lib, kind, spec).unwrap();
            assert!(
                rca.stats().area_um2 < other.stats().area_um2,
                "RCA should be smaller than {kind:?}"
            );
        }
    }

    #[test]
    fn composable_form_uses_caller_cin() {
        let lib = lib();
        let mut nl = Netlist::new("with_cin", lib.clone());
        let a = nl.add_input_bus("a", 4);
        let b = nl.add_input_bus("b", 4);
        let cin = nl.add_input("cin");
        let (sum, cout) = add_into(&mut nl, AdderKind::RippleCarry, &a, &b, Some(cin)).unwrap();
        nl.mark_output_bus("sum", &sum);
        nl.mark_output("cout", cout);
        let mut inputs = bus_from_u64(7, 4);
        inputs.extend(bus_from_u64(8, 4));
        inputs.push(true);
        assert_eq!(bus_to_u64(&oracle::eval(&nl, &inputs).unwrap()), 16);
    }
}
