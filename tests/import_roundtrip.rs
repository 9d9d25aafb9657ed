//! Round-trip differential suite for the netlist import front-end.
//!
//! Every synthesized component is a free conformance case: export it,
//! import the text back, and the result must be indistinguishable from
//! the original — byte-identical on a second export (the fixpoint), and
//! bit-identical under every analysis the flow runs (functional
//! simulation on both engines, switching activity, aged STA).

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::arith::{
    build_adder, build_mac, build_multiplier, AdderKind, ComponentSpec, MultiplierKind,
};
use aix::cells::Library;
use aix::netlist::{import_edif, import_verilog, to_edif, to_verilog, NetDriver, Netlist};
use aix::sim::{measure_errors, oracle, stress_pairs, Activity};
use aix::sta::{analyze, NetDelays, StressSource};
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

/// Deterministic stimuli covering all primary inputs of `netlist`.
fn stimuli(netlist: &Netlist, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let inputs = netlist.inputs().len();
    let mut state = seed.wrapping_mul(2) | 1;
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// The generator sweep: every adder and multiplier architecture plus the
/// MAC, at widths 8/16/32, full precision and one reduced precision.
fn sweep(lib: &Arc<Library>) -> Vec<Netlist> {
    let mut designs = Vec::new();
    for &width in &[8usize, 16, 32] {
        let specs = [
            ComponentSpec::full(width),
            ComponentSpec::new(width, width - 2).expect("valid spec"),
        ];
        for spec in specs {
            for kind in AdderKind::ALL {
                designs.push(build_adder(lib, kind, spec).expect("adder builds"));
            }
            for kind in MultiplierKind::ALL {
                designs.push(build_multiplier(lib, kind, spec).expect("multiplier builds"));
            }
            designs.push(build_mac(lib, spec).expect("mac builds"));
        }
    }
    designs
}

/// Net correspondence between an original netlist and its re-import:
/// input bits pair by position, gate outputs by (gate, pin), constants
/// by value. Returns `(original net index, imported net index)` pairs.
fn correspondence(original: &Netlist, imported: &Netlist) -> Vec<(usize, usize)> {
    assert_eq!(original.inputs().len(), imported.inputs().len());
    assert_eq!(original.gate_count(), imported.gate_count());
    let mut pairs = Vec::with_capacity(original.net_count());
    for (a, b) in original.inputs().iter().zip(imported.inputs()) {
        pairs.push((a.index(), b.index()));
    }
    for ((ga, gate_a), (gb, gate_b)) in original.gates().zip(imported.gates()) {
        assert_eq!(ga.index(), gb.index(), "gate order must be preserved");
        assert_eq!(
            gate_a.cell, gate_b.cell,
            "gate {ga} must keep its cell through the round trip"
        );
        for (oa, ob) in gate_a.outputs.iter().zip(&gate_b.outputs) {
            pairs.push((oa.index(), ob.index()));
        }
    }
    for (id, net) in original.nets() {
        if let NetDriver::Constant(value) = net.driver {
            let twin = imported
                .nets()
                .find(|(_, n)| n.driver == NetDriver::Constant(value))
                .map(|(i, _)| i.index())
                .expect("imported netlist keeps the constant");
            pairs.push((id.index(), twin));
        }
    }
    pairs
}

/// Asserts the imported netlist is analysis-equivalent to the original:
/// identical activity on every corresponding net, identical per-gate
/// stress pairs, identical error statistics on both engines, and
/// 6-decimal-identical aged STA at fresh/10y/20y.
fn assert_equivalent(original: &Netlist, imported: &Netlist, label: &str) {
    let vectors = stimuli(original, 192, 0xA1C);

    // Switching activity, bit-identical per corresponding net.
    let act_orig = Activity::collect(original, vectors.iter().cloned()).expect("activity");
    let act_imp = Activity::collect(imported, vectors.iter().cloned()).expect("activity");
    for &(a, b) in &correspondence(original, imported) {
        assert_eq!(
            act_orig.probability_one(a).to_bits(),
            act_imp.probability_one(b).to_bits(),
            "{label}: signal probability differs on net pair ({a}, {b})"
        );
        assert_eq!(
            act_orig.toggle_rate(a).to_bits(),
            act_imp.toggle_rate(b).to_bits(),
            "{label}: toggle rate differs on net pair ({a}, {b})"
        );
    }

    // Per-gate stress extraction (activity → stress), bit-identical.
    let stress_orig = stress_pairs(original, &act_orig);
    let stress_imp = stress_pairs(imported, &act_imp);
    assert_eq!(stress_orig, stress_imp, "{label}: stress pairs differ");

    // Aged STA at fresh / 10y / 20y, to 6 decimals.
    let model = AgingModel::calibrated();
    let fresh_clock = analyze(original, &NetDelays::fresh(original))
        .expect("sta")
        .max_delay_ps();
    for (scenario, tag) in [
        (AgingScenario::Fresh, "fresh"),
        (AgingScenario::worst_case(Lifetime::YEARS_10), "10y"),
        (AgingScenario::worst_case(Lifetime::from_years(20.0)), "20y"),
    ] {
        let d_orig = NetDelays::aged(original, &model, scenario);
        let d_imp = NetDelays::aged(imported, &model, scenario);
        let t_orig = analyze(original, &d_orig).expect("sta").max_delay_ps();
        let t_imp = analyze(imported, &d_imp).expect("sta").max_delay_ps();
        assert!(
            (t_orig - t_imp).abs() < 5e-7,
            "{label}: {tag} critical path differs: {t_orig} vs {t_imp}"
        );
    }

    // Actual-case aging from the extracted stress, same tolerance.
    let d_orig = NetDelays::aged_with_stress(
        original,
        &model,
        &StressSource::PerGate(stress_orig),
        Lifetime::YEARS_10,
    );
    let d_imp = NetDelays::aged_with_stress(
        imported,
        &model,
        &StressSource::PerGate(stress_imp),
        Lifetime::YEARS_10,
    );
    let t_orig = analyze(original, &d_orig).expect("sta").max_delay_ps();
    let t_imp = analyze(imported, &d_imp).expect("sta").max_delay_ps();
    assert!(
        (t_orig - t_imp).abs() < 5e-7,
        "{label}: actual-case critical path differs: {t_orig} vs {t_imp}"
    );

    // Timing-error statistics under an aged netlist at the fresh clock,
    // bit-identical on both sim engines.
    let aged_orig = NetDelays::aged(
        original,
        &model,
        AgingScenario::worst_case(Lifetime::YEARS_10),
    );
    let aged_imp = NetDelays::aged(
        imported,
        &model,
        AgingScenario::worst_case(Lifetime::YEARS_10),
    );
    let scalar = [
        oracle::measure_errors(original, &aged_orig, fresh_clock, vectors.iter().cloned()),
        oracle::measure_errors(imported, &aged_imp, fresh_clock, vectors.iter().cloned()),
    ];
    let packed = [
        measure_errors(original, &aged_orig, fresh_clock, vectors.iter().cloned()),
        measure_errors(imported, &aged_imp, fresh_clock, vectors.iter().cloned()),
    ];
    for (engine, [e_orig, e_imp]) in [("scalar", scalar), ("packed", packed)] {
        assert_eq!(
            e_orig.expect("measure"),
            e_imp.expect("measure"),
            "{label}: {engine} error statistics differ"
        );
    }
}

/// Verilog: export → import → re-export is a fixpoint, for every
/// generator kind × width × precision.
#[test]
fn verilog_reexport_is_a_fixpoint() {
    let lib = cells();
    for netlist in sweep(&lib) {
        let first = to_verilog(&netlist);
        let imported = import_verilog(&first, &lib)
            .unwrap_or_else(|e| panic!("{} fails to re-import: {e}", netlist.name()));
        let second = to_verilog(&imported);
        assert_eq!(
            first,
            second,
            "{} verilog re-export drifted",
            netlist.name()
        );
    }
}

/// EDIF: export → import → re-export is a fixpoint, for every generator
/// kind × width × precision.
#[test]
fn edif_reexport_is_a_fixpoint() {
    let lib = cells();
    for netlist in sweep(&lib) {
        let first = to_edif(&netlist);
        let imported = import_edif(&first, &lib)
            .unwrap_or_else(|e| panic!("{} fails to re-import: {e}", netlist.name()));
        let second = to_edif(&imported);
        assert_eq!(first, second, "{} edif re-export drifted", netlist.name());
    }
}

/// Cross-format: importing the Verilog and the EDIF of the same design
/// yields structurally identical netlists. (Their `to_edif` outputs may
/// differ in `(rename …)` forms — EDIF preserves original bus-bit names
/// where Verilog text cannot — but the Verilog projection and the gate
/// structure must agree exactly.)
#[test]
fn verilog_and_edif_imports_agree() {
    let lib = cells();
    let netlist = build_adder(&lib, AdderKind::ALL[0], ComponentSpec::full(8)).expect("adder");
    let from_v = import_verilog(&to_verilog(&netlist), &lib).expect("verilog import");
    let from_e = import_edif(&to_edif(&netlist), &lib).expect("edif import");
    assert_eq!(to_verilog(&from_v), to_verilog(&from_e));
    assert_eq!(from_v.gate_count(), from_e.gate_count());
    for ((_, a), (_, b)) in from_v.gates().zip(from_e.gates()) {
        assert_eq!(a, b, "gate tables must match across formats");
    }
}

/// Imported adders are analysis-equivalent to their originals across
/// widths and aging scenarios (the full differential battery).
#[test]
fn imported_adders_are_analysis_equivalent() {
    let lib = cells();
    for &width in &[8usize, 16, 32] {
        for kind in AdderKind::ALL {
            let original =
                build_adder(&lib, kind, ComponentSpec::full(width)).expect("adder builds");
            let label = original.name().to_string();
            let imported = import_verilog(&to_verilog(&original), &lib).expect("import");
            assert_equivalent(&original, &imported, &label);
        }
    }
}

/// Same battery for multipliers (via EDIF, so both formats get deep
/// differential coverage) at widths 8 and 16.
#[test]
fn imported_multipliers_are_analysis_equivalent() {
    let lib = cells();
    for &width in &[8usize, 16] {
        for kind in MultiplierKind::ALL {
            let original =
                build_multiplier(&lib, kind, ComponentSpec::full(width)).expect("mult builds");
            let label = original.name().to_string();
            let imported = import_edif(&to_edif(&original), &lib).expect("import");
            assert_equivalent(&original, &imported, &label);
        }
    }
}

/// Same battery for the MAC — the widest-interface component (4×width
/// input bits) and the one whose truncated variants tie inputs to
/// constants, exercising the constant round trip.
#[test]
fn imported_macs_are_analysis_equivalent() {
    let lib = cells();
    for &width in &[8usize, 16] {
        for spec in [
            ComponentSpec::full(width),
            ComponentSpec::new(width, width - 2).expect("valid spec"),
        ] {
            let original = build_mac(&lib, spec).expect("mac builds");
            let label = original.name().to_string();
            let imported = import_verilog(&to_verilog(&original), &lib).expect("import");
            assert_equivalent(&original, &imported, &label);

            let imported_e = import_edif(&to_edif(&original), &lib).expect("edif import");
            assert_equivalent(&original, &imported_e, &label);
        }
    }
}
