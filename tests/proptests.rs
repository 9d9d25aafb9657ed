//! Property-based tests over the core data structures and invariants.

use aix::aging::{AgingModel, Lifetime, StressFactor, StressPair};
use aix::arith::{
    build_adder, build_multiplier, AdderKind, Component, ComponentSpec, MultiplierKind,
};
use aix::cells::Library;
use aix::netlist::{bus_from_u64, bus_to_u64};
use aix::sim::{oracle, reference_outputs, OperandSource, TimedSimulator, UniformOperands};
use aix::sta::{analyze, NetDelays};
use aix::synth::optimize;
use proptest::prelude::*;
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bus packing is a bijection on in-range values.
    #[test]
    fn bus_roundtrip(value in any::<u64>(), width in 1usize..=64) {
        let mask = if width == 64 { u64::MAX } else { (1 << width) - 1 };
        prop_assert_eq!(bus_to_u64(&bus_from_u64(value, width)), value & mask);
    }

    /// ΔVth is monotone in both stress and lifetime.
    #[test]
    fn delta_vth_monotone(
        s1 in 0.0f64..=1.0, s2 in 0.0f64..=1.0,
        t1 in 0.0f64..=20.0, t2 in 0.0f64..=20.0,
    ) {
        let model = AgingModel::calibrated();
        let (lo_s, hi_s) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let (lo_t, hi_t) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let lo = model.delta_vth(
            StressFactor::new(lo_s).expect("in range"),
            Lifetime::from_years(lo_t),
        );
        let hi = model.delta_vth(
            StressFactor::new(hi_s).expect("in range"),
            Lifetime::from_years(hi_t),
        );
        prop_assert!(lo.volts() <= hi.volts() + 1e-15);
    }

    /// The degradation factor is ≥ 1 and bounded for any stress pair.
    #[test]
    fn degradation_factor_bounded(p in 0.0f64..=1.0, n in 0.0f64..=1.0) {
        let model = AgingModel::calibrated();
        let pair = StressPair::new(
            StressFactor::new(p).expect("in range"),
            StressFactor::new(n).expect("in range"),
        );
        let f = model.pair_delay_factor(pair, Lifetime::YEARS_10);
        prop_assert!((1.0..1.3).contains(&f), "factor {}", f);
    }

    /// Adders of every architecture match u64 addition at random widths,
    /// precisions and operands, before and after optimization.
    #[test]
    fn adder_matches_reference(
        width in 2usize..=20,
        cut in 0usize..=6,
        a in any::<u64>(),
        b in any::<u64>(),
        kind_index in 0usize..4,
    ) {
        let precision = width.saturating_sub(cut).max(1);
        let spec = ComponentSpec::new(width, precision).expect("valid");
        let kind = AdderKind::ALL[kind_index];
        let netlist = build_adder(&cells(), kind, spec).expect("build");
        let optimized = optimize(&netlist).expect("optimize");
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let expect = spec.truncate(a) + spec.truncate(b);
        let mut inputs = bus_from_u64(a, width);
        inputs.extend(bus_from_u64(b, width));
        prop_assert_eq!(bus_to_u64(&oracle::eval(&netlist, &inputs).expect("eval")), expect);
        prop_assert_eq!(bus_to_u64(&oracle::eval(&optimized, &inputs).expect("eval")), expect);
    }

    /// Multipliers of every architecture match u64 multiplication.
    #[test]
    fn multiplier_matches_reference(
        width in 2usize..=10,
        cut in 0usize..=4,
        a in any::<u64>(),
        b in any::<u64>(),
        kind_index in 0usize..3,
    ) {
        let precision = width.saturating_sub(cut).max(1);
        let spec = ComponentSpec::new(width, precision).expect("valid");
        let kind = MultiplierKind::ALL[kind_index];
        let netlist = build_multiplier(&cells(), kind, spec).expect("build");
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let expect = spec.truncate(a) * spec.truncate(b);
        let mut inputs = bus_from_u64(a, width);
        inputs.extend(bus_from_u64(b, width));
        prop_assert_eq!(bus_to_u64(&oracle::eval(&netlist, &inputs).expect("eval")), expect);
    }

    /// STA arrival times never decrease under aging, on any net.
    #[test]
    fn sta_monotone_under_aging(width in 2usize..=12, years in 0.5f64..=10.0) {
        let netlist = build_adder(
            &cells(),
            AdderKind::CarrySelect,
            ComponentSpec::full(width),
        )
        .expect("build");
        let model = AgingModel::calibrated();
        let fresh = analyze(&netlist, &NetDelays::fresh(&netlist)).expect("STA");
        let aged = analyze(
            &netlist,
            &NetDelays::aged(
                &netlist,
                &model,
                aix::aging::AgingScenario::worst_case(Lifetime::from_years(years)),
            ),
        )
        .expect("STA");
        for (f, a) in fresh.arrivals().iter().zip(aged.arrivals()) {
            prop_assert!(a + 1e-12 >= *f);
        }
    }

    /// The timed simulator's settled state always equals the functional
    /// evaluation, regardless of clock or vector history.
    #[test]
    fn timed_sim_settles_to_functional(
        width in 2usize..=10,
        clock in 1.0f64..=2000.0,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let netlist = build_adder(
            &cells(),
            AdderKind::RippleCarry,
            ComponentSpec::full(width),
        )
        .expect("build");
        let delays = NetDelays::fresh(&netlist);
        let mut sim = TimedSimulator::new(&netlist, &delays).expect("simulator");
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = (1u64 << width) - 1;
        for _ in 0..8 {
            let a = rng.gen::<u64>() & mask;
            let b = rng.gen::<u64>() & mask;
            let mut inputs = bus_from_u64(a, width);
            inputs.extend(bus_from_u64(b, width));
            let out = sim.step(&inputs, clock).expect("step");
            prop_assert_eq!(bus_to_u64(&out.settled), a + b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random adder-variant configurations always produce well-formed,
    /// schedulable netlists that survive optimization, build
    /// deterministically, and report consistent gate counts.
    #[test]
    fn adder_variants_are_well_formed(
        width in 2usize..=12,
        kind_index in 0usize..4,
        precision_cut in 0usize..=4,
        lower_or in 0usize..=8,
        approx_fa in 0usize..=4,
        segment in 0usize..=8,
    ) {
        use aix::arith::AdderVariant;
        let precision = width.saturating_sub(precision_cut).max(1);
        let variant = AdderVariant {
            kind: AdderKind::ALL[kind_index],
            spec: ComponentSpec::new(width, precision).expect("valid spec"),
            lower_or_bits: lower_or.min(width - 1),
            approx_fa_bits: approx_fa.min(width - 1),
            segment_bits: segment % width,
        };
        let netlist = variant.build(&cells()).expect("variant builds");
        prop_assert!(netlist.validate().is_ok(), "variant netlist must validate");
        prop_assert!(netlist.schedule().is_ok(), "variant netlist must schedule");
        let stats = netlist.stats();
        prop_assert!(stats.gate_count > 0);
        let optimized = optimize(&netlist).expect("variant optimizes");
        prop_assert!(optimized.validate().is_ok());
        prop_assert!(optimized.stats().gate_count <= stats.gate_count);
        // Determinism: a second build is gate-for-gate the same circuit
        // with the same behaviour on seeded stimuli.
        let again = variant.build(&cells()).expect("variant rebuilds");
        prop_assert_eq!(again.stats().gate_count, stats.gate_count);
        let stimuli: Vec<Vec<bool>> = UniformOperands::new(width, 3)
            .vectors(64)
            .collect();
        let first = reference_outputs(&netlist, &stimuli)
            .expect("simulate");
        let second = reference_outputs(&again, &stimuli)
            .expect("simulate rebuild");
        prop_assert_eq!(first, second, "variant builds must be deterministic");
    }

    /// Random multiplier-variant configurations are equally well-formed:
    /// acyclic, optimizable, deterministic for a fixed seed.
    #[test]
    fn multiplier_variants_are_well_formed(
        width in 2usize..=8,
        kind_index in 0usize..3,
        precision_cut in 0usize..=3,
        pruned in 0usize..=6,
        merge_lower_or in 0usize..=6,
    ) {
        use aix::arith::MultiplierVariant;
        let precision = width.saturating_sub(precision_cut).max(1);
        let variant = MultiplierVariant {
            kind: MultiplierKind::ALL[kind_index],
            spec: ComponentSpec::new(width, precision).expect("valid spec"),
            pruned_columns: pruned.min(2 * width - 2),
            merge_lower_or: merge_lower_or.min(2 * width - 2),
        };
        let netlist = variant.build(&cells()).expect("variant builds");
        prop_assert!(netlist.validate().is_ok());
        prop_assert!(netlist.schedule().is_ok());
        let stats = netlist.stats();
        prop_assert!(stats.gate_count > 0);
        let optimized = optimize(&netlist).expect("variant optimizes");
        prop_assert!(optimized.validate().is_ok());
        let stimuli: Vec<Vec<bool>> = UniformOperands::new(width, 5)
            .vectors(64)
            .collect();
        let scalar = oracle::reference_outputs(&netlist, &stimuli)
            .expect("scalar");
        let packed = reference_outputs(&netlist, &stimuli)
            .expect("packed");
        prop_assert_eq!(scalar, packed, "engines must agree on variant netlists");
    }
}
