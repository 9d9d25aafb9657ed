//! Simulation-engine throughput: the scalar reference loops in
//! [`aix_sim::oracle`] (one vector per netlist walk) versus the production
//! packed functions (64 vectors per `u64` word).
//!
//! Not a paper figure — this tracks the substrate itself. The measured
//! speedup lands as a `sim:` record in `out/BENCH_characterize.json`, so
//! the bench trajectory shows whether the packed kernel keeps paying for
//! itself; the run also cross-checks that both paths return identical
//! `Activity` and `FaultCoverage`, making it a quick differential smoke.

use crate::{Options, Table};
use aix_arith::{build_adder, build_multiplier, AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_core::{append_bench_json, default_bench_json_path};
use aix_netlist::Netlist;
use aix_sim::{full_fault_list, oracle, simulate_faults, Activity, NormalOperands, OperandSource};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Wall time and result of one activity collection.
fn time_activity(
    collect: impl FnOnce() -> Result<Activity, aix_netlist::NetlistError>,
) -> (f64, Activity) {
    let start = Instant::now();
    let activity = collect().expect("simulation of a validated netlist");
    (start.elapsed().as_secs_f64(), activity)
}

/// Runs the engine-throughput experiment.
pub fn run(options: &Options) -> String {
    let vectors = options.scaled("vectors", 20_000, 1_000_000);
    let width = options.get_usize("width", 32);
    let cells = Arc::new(Library::nangate45_like());
    let spec = ComponentSpec::full(width);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "sim — functional engine throughput, scalar vs packed ({vectors} vectors)\n"
    );
    let mut table = Table::new(&[
        "component",
        "scalar [Mvec/s]",
        "packed [Mvec/s]",
        "speedup",
        "identical",
    ]);

    let components: Vec<(String, Netlist)> = vec![
        (
            format!("adder-{width} (kogge-stone)"),
            build_adder(&cells, AdderKind::KoggeStone, spec).expect("adder generation"),
        ),
        (
            format!("multiplier-{width} (array)"),
            build_multiplier(&cells, MultiplierKind::Array, spec).expect("multiplier generation"),
        ),
    ];

    let bench_path = default_bench_json_path();
    for (index, (label, netlist)) in components.iter().enumerate() {
        let stimuli: Vec<Vec<bool>> = NormalOperands::new(width, 11 + index as u64)
            .vectors(vectors)
            .collect();
        let (scalar_s, scalar_activity) =
            time_activity(|| oracle::activity(netlist, stimuli.iter().cloned()));
        let (packed_s, packed_activity) =
            time_activity(|| Activity::collect(netlist, stimuli.iter().cloned()));
        let identical = scalar_activity == packed_activity;
        // A small fault-coverage differential rides along: boolean
        // detection must agree exactly between oracle and packed engine.
        let faults = full_fault_list(netlist);
        let fault_stimuli = &stimuli[..stimuli.len().min(128)];
        let scalar_cov =
            oracle::simulate_faults(netlist, &faults, fault_stimuli).expect("fault simulation");
        let packed_cov =
            simulate_faults(netlist, &faults, fault_stimuli).expect("fault simulation");
        let identical = identical && scalar_cov == packed_cov;

        let scalar_vps = vectors as f64 / scalar_s.max(1e-9);
        let packed_vps = vectors as f64 / packed_s.max(1e-9);
        let speedup = packed_vps / scalar_vps;
        table.row_owned(vec![
            label.clone(),
            format!("{:.2}", scalar_vps / 1e6),
            format!("{:.2}", packed_vps / 1e6),
            format!("{speedup:.1}x"),
            if identical { "yes" } else { "NO" }.to_owned(),
        ]);
        assert!(identical, "{label}: engines disagree — differential failure");

        let record = format!(
            "{{\"label\":\"sim:{label}\",\"vectors\":{vectors},\
             \"scalar_vps\":{scalar_vps:.1},\"packed_vps\":{packed_vps:.1},\
             \"speedup\":{speedup:.2}}}"
        );
        if let Err(error) = append_bench_json(&bench_path, record) {
            let _ = writeln!(out, "(could not append sim record: {error})");
        }
    }

    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nexpected shape: packed >= 4x scalar on value-mode simulation; both\n\
         columns identical (`yes`) because the engines are bit-equivalent.\n\
         Records appended to {}.",
        bench_path.display()
    );
    out
}
