//! Differential correctness harness for the approximation search space:
//! every variant generator at its *exact* parameter settings must be
//! bit-identical to the canonical generator it approximates, on thousands
//! of seeded vectors, under both simulation engines, and at lane-tail
//! vector counts (1, 63, 64, 65) that stress the packed engine's partial
//! final word. The search reports "exact" variants as zero-error Pareto
//! anchors — this harness is what makes that claim trustworthy.

use aix::arith::{
    build_adder, build_mac, build_multiplier, AdderKind, AdderVariant, Component, ComponentSpec,
    MacVariant, MultiplierKind, MultiplierVariant,
};
use aix::cells::Library;
use aix::netlist::Netlist;
use aix::sim::{oracle, reference_outputs, OperandSource, UniformOperands};
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

/// Vector counts that exercise the packed engine's 64-lane word: a single
/// lane, one short of a full word, exactly one word, one word plus a
/// one-lane tail — and a full-size differential run.
const LANE_TAILS: [usize; 5] = [1, 63, 64, 65, 4_096];

/// Asserts that `variant` and `canonical` produce identical output bits on
/// `stimuli`, for both engines, and that the two engines agree with each
/// other on both netlists.
fn assert_bit_identical(canonical: &Netlist, variant: &Netlist, stimuli: &[Vec<bool>], what: &str) {
    let canonical_scalar = oracle::reference_outputs(canonical, stimuli).expect("canonical scalar");
    let canonical_packed = reference_outputs(canonical, stimuli).expect("canonical packed");
    let variant_scalar = oracle::reference_outputs(variant, stimuli).expect("variant scalar");
    let variant_packed = reference_outputs(variant, stimuli).expect("variant packed");
    assert_eq!(
        canonical_scalar, canonical_packed,
        "{what}: canonical engines disagree"
    );
    assert_eq!(
        variant_scalar, variant_packed,
        "{what}: variant engines disagree"
    );
    assert_eq!(
        canonical_scalar, variant_scalar,
        "{what}: exact-parameter variant diverges from the canonical netlist"
    );
}

#[test]
fn exact_adder_variants_match_canonical_adders() {
    let lib = cells();
    let width = 16;
    for kind in AdderKind::ALL {
        for spec in [
            ComponentSpec::full(width),
            ComponentSpec::new(width, 11).expect("valid spec"),
        ] {
            let canonical = build_adder(&lib, kind, spec).expect("canonical adder");
            let variant = AdderVariant::exact(kind, spec)
                .build(&lib)
                .expect("variant adder");
            for count in LANE_TAILS {
                let stimuli: Vec<Vec<bool>> =
                    UniformOperands::new(width, 7).vectors(count).collect();
                assert_bit_identical(
                    &canonical,
                    &variant,
                    &stimuli,
                    &format!("adder {} {spec} x{count}", kind.label()),
                );
            }
        }
    }
}

#[test]
fn exact_multiplier_variants_match_canonical_multipliers() {
    let lib = cells();
    let width = 8;
    for kind in MultiplierKind::ALL {
        for spec in [
            ComponentSpec::full(width),
            ComponentSpec::new(width, 5).expect("valid spec"),
        ] {
            let canonical = build_multiplier(&lib, kind, spec).expect("canonical multiplier");
            let variant = MultiplierVariant::exact(kind, spec)
                .build(&lib)
                .expect("variant multiplier");
            for count in LANE_TAILS {
                let stimuli: Vec<Vec<bool>> =
                    UniformOperands::new(width, 11).vectors(count).collect();
                assert_bit_identical(
                    &canonical,
                    &variant,
                    &stimuli,
                    &format!("multiplier {} {spec} x{count}", kind.label()),
                );
            }
        }
    }
}

#[test]
fn exact_mac_variants_match_canonical_macs() {
    let lib = cells();
    let width = 6;
    for spec in [
        ComponentSpec::full(width),
        ComponentSpec::new(width, 4).expect("valid spec"),
    ] {
        let mut variant_config = MacVariant::exact(ComponentSpec::full(width));
        variant_config.mult.spec = spec;
        let canonical = build_mac(&lib, spec).expect("canonical MAC");
        let variant = variant_config.build(&lib).expect("variant MAC");
        for count in LANE_TAILS {
            // A MAC consumes 4·width input bits (a, b and the 2·width
            // accumulator); a 2·width-operand source supplies exactly that
            // many random bits per vector, driving the accumulator too.
            let stimuli: Vec<Vec<bool>> =
                UniformOperands::new(2 * width, 13).vectors(count).collect();
            assert_bit_identical(
                &canonical,
                &variant,
                &stimuli,
                &format!("mac {spec} x{count}"),
            );
        }
    }
}
