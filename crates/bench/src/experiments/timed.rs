//! Timed error-measurement throughput: the scalar reference
//! [`aix_sim::oracle::measure_errors`] (one event queue per vector) versus
//! the production [`aix_sim::measure_errors`] (64 vectors per `u64` word:
//! one zero-delay walk plus a compiled straight-line program over the
//! (net, instant) pairs that reach the clock-edge sample).
//!
//! Not a paper figure — this tracks the substrate itself. The measured
//! speedup lands as `timed:` records in `out/BENCH_timed.json`, so the
//! bench trajectory shows whether the packed measurement keeps paying for
//! itself; the run also cross-checks that both paths return identical
//! [`ErrorStats`], making it a quick differential smoke for the
//! clock-edge, zero-delay-pass and lane-chaining semantics.

use crate::{Options, Table};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::{build_adder, build_multiplier, AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_core::{append_bench_json, default_bench_json_path};
use aix_netlist::Netlist;
use aix_sim::{measure_errors, oracle, ErrorStats, NormalOperands, OperandSource};
use aix_sta::{analyze, NetDelays};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Wall time and result of one error measurement.
fn time_errors(
    measure: impl FnOnce() -> Result<ErrorStats, aix_netlist::NetlistError>,
) -> (f64, ErrorStats) {
    let start = Instant::now();
    let stats = measure().expect("timed simulation of a validated netlist");
    (start.elapsed().as_secs_f64(), stats)
}

/// Runs the timed-engine throughput experiment.
pub fn run(options: &Options) -> String {
    let vectors = options.scaled("vectors", 4_096, 65_536);
    let width = options.get_usize("width", 32);
    let cells = Arc::new(Library::nangate45_like());
    let spec = ComponentSpec::full(width);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "timed — event-driven engine throughput, scalar vs packed ({vectors} vectors)\n"
    );
    let mut table = Table::new(&[
        "component",
        "error %",
        "scalar [kvec/s]",
        "packed [kvec/s]",
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

    let model = AgingModel::calibrated();
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
    let bench_path = default_bench_json_path().with_file_name("BENCH_timed.json");
    for (index, (label, netlist)) in components.iter().enumerate() {
        // Aged gates at the fresh clock: the motivational-study setup, so
        // the run exercises real timing violations, not just settled paths.
        let clock_ps = analyze(netlist, &NetDelays::fresh(netlist))
            .expect("acyclic generator netlist")
            .max_delay_ps();
        let delays = NetDelays::aged(netlist, &model, scenario);
        let stimuli: Vec<Vec<bool>> = NormalOperands::new(width, 23 + index as u64)
            .vectors(vectors)
            .collect();
        let (scalar_s, scalar_stats) = time_errors(|| {
            oracle::measure_errors(netlist, &delays, clock_ps, stimuli.iter().cloned())
        });
        let (packed_s, packed_stats) =
            time_errors(|| measure_errors(netlist, &delays, clock_ps, stimuli.iter().cloned()));
        let identical = scalar_stats == packed_stats;

        let scalar_vps = vectors as f64 / scalar_s.max(1e-9);
        let packed_vps = vectors as f64 / packed_s.max(1e-9);
        let speedup = packed_vps / scalar_vps;
        table.row_owned(vec![
            label.clone(),
            format!("{:.1}", scalar_stats.error_percent()),
            format!("{:.1}", scalar_vps / 1e3),
            format!("{:.1}", packed_vps / 1e3),
            format!("{speedup:.1}x"),
            if identical { "yes" } else { "NO" }.to_owned(),
        ]);
        assert!(identical, "{label}: timed engines disagree — differential failure");

        let record = format!(
            "{{\"label\":\"timed:{label}\",\"vectors\":{vectors},\
             \"error_rate\":{:.6},\
             \"scalar_vps\":{scalar_vps:.1},\"packed_vps\":{packed_vps:.1},\
             \"speedup\":{speedup:.2}}}",
            scalar_stats.error_rate()
        );
        if let Err(error) = append_bench_json(&bench_path, record) {
            let _ = writeln!(out, "(could not append timed record: {error})");
        }
    }

    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nexpected shape: packed >= 10x scalar, growing with the circuit's\n\
         glitch count, since the program's cost is its live (net, instant)\n\
         pairs while the scalar queue pays per event (>= 4x on constrained\n\
         CI runners); both engines byte-identical (`yes`). Records appended\n\
         to {}.",
        bench_path.display()
    );
    out
}
