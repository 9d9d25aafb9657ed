//! Algebraic property tests for the arithmetic generators.

use aix_arith::{
    build_adder, build_mac, build_multiplier, AdderKind, ComponentSpec, MultiplierKind,
};
use aix_cells::Library;
use aix_netlist::{bus_from_u64, bus_to_u64, Netlist};
use aix_sim::oracle;
use proptest::prelude::*;
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

fn run2(netlist: &Netlist, width: usize, a: u64, b: u64) -> u64 {
    let mut inputs = bus_from_u64(a, width);
    inputs.extend(bus_from_u64(b, width));
    bus_to_u64(&oracle::eval(netlist, &inputs).expect("eval"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Addition is commutative through every adder netlist.
    #[test]
    fn adder_commutes(width in 2usize..=14, a in any::<u64>(), b in any::<u64>(), k in 0usize..4) {
        let kind = AdderKind::ALL[k];
        let nl = build_adder(&cells(), kind, ComponentSpec::full(width)).expect("build");
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        prop_assert_eq!(run2(&nl, width, a, b), run2(&nl, width, b, a));
    }

    /// Zero is the additive identity and produces no carry.
    #[test]
    fn adder_identity(width in 2usize..=14, a in any::<u64>(), k in 0usize..4) {
        let kind = AdderKind::ALL[k];
        let nl = build_adder(&cells(), kind, ComponentSpec::full(width)).expect("build");
        let mask = (1u64 << width) - 1;
        let a = a & mask;
        prop_assert_eq!(run2(&nl, width, a, 0), a);
    }

    /// Multiplication commutes and one is its identity.
    #[test]
    fn multiplier_algebra(width in 2usize..=8, a in any::<u64>(), b in any::<u64>(), k in 0usize..3) {
        let kind = MultiplierKind::ALL[k];
        let nl = build_multiplier(&cells(), kind, ComponentSpec::full(width)).expect("build");
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        prop_assert_eq!(run2(&nl, width, a, b), run2(&nl, width, b, a));
        prop_assert_eq!(run2(&nl, width, a, 1), a);
        prop_assert_eq!(run2(&nl, width, a, 0), 0);
    }

    /// The MAC agrees with multiply-then-add and truncation masks only the
    /// multiplier operands.
    #[test]
    fn mac_decomposes(
        width in 2usize..=8,
        cut in 0usize..=3,
        a in any::<u64>(),
        b in any::<u64>(),
        acc in any::<u64>(),
    ) {
        let precision = width.saturating_sub(cut).max(1);
        let spec = ComponentSpec::new(width, precision).expect("valid");
        let nl = build_mac(&cells(), spec).expect("build");
        let mask = (1u64 << width) - 1;
        let acc_mask = (1u64 << (2 * width)) - 1;
        let (a, b, acc) = (a & mask, b & mask, acc & acc_mask);
        let mut inputs = bus_from_u64(a, width);
        inputs.extend(bus_from_u64(b, width));
        inputs.extend(bus_from_u64(acc, 2 * width));
        let got = bus_to_u64(&oracle::eval(&nl, &inputs).expect("eval"));
        let expect = (spec.truncate(a) * spec.truncate(b) + acc) & acc_mask;
        prop_assert_eq!(got, expect);
    }

    /// All adder architectures agree with each other bit-for-bit.
    #[test]
    fn adder_architectures_agree(width in 2usize..=12, a in any::<u64>(), b in any::<u64>()) {
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let reference = run2(
            &build_adder(&cells(), AdderKind::RippleCarry, ComponentSpec::full(width))
                .expect("build"),
            width,
            a,
            b,
        );
        for kind in [AdderKind::CarryLookahead, AdderKind::CarrySelect, AdderKind::KoggeStone] {
            let nl = build_adder(&cells(), kind, ComponentSpec::full(width)).expect("build");
            prop_assert_eq!(run2(&nl, width, a, b), reference, "{:?}", kind);
        }
    }
}
