//! Fig. 1 — percentage of erroneous outputs of 32-bit adder and multiplier
//! components clocked at their fresh maximum frequency while their gates
//! age (balance vs worst stress, 1 vs 10 years).
//!
//! Paper reference: adder 20 % → 28 %, multiplier 4 % → 8 % under
//! worst-case stress after 1 and 10 years.

use crate::experiments::motivational_scenarios;
use crate::{Options, Table, STUDY_WIDTH};
use aix_aging::AgingModel;
use aix_arith::{AdderKind, ComponentSpec};
use aix_cells::Library;
use aix_netlist::Netlist;
use aix_sim::{measure_errors, OperandSource, SignedNormalOperands};
use aix_sta::{analyze, NetDelays};
use aix_synth::{Effort, Synthesizer};
use std::fmt::Write as _;
use std::sync::Arc;

fn error_row(netlist: &Netlist, model: &AgingModel, vectors: usize, seed: u64) -> Vec<String> {
    let clock = analyze(netlist, &NetDelays::fresh(netlist))
        .expect("synthesized netlists are acyclic")
        .max_delay_ps();
    let mut cells = Vec::new();
    for (_, scenario) in motivational_scenarios() {
        let delays = NetDelays::aged(netlist, model, scenario);
        let width = netlist.inputs().len().min(2 * STUDY_WIDTH) / 2;
        let padding = netlist.inputs().len() - 2 * width;
        let stats = measure_errors(
            netlist,
            &delays,
            clock,
            SignedNormalOperands::for_width(width, seed).vectors_with_zeros(vectors, padding),
        )
        .expect("simulation of a validated netlist");
        cells.push(format!("{:.2}%", stats.error_percent()));
    }
    cells
}

/// Runs the Fig. 1 experiment.
pub fn run(options: &Options) -> String {
    let vectors = options.scaled("vectors", 4000, 1_000_000);
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let synth = Synthesizer::new(cells.clone(), Effort::Ultra);
    let spec = ComponentSpec::full(STUDY_WIDTH);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 1 — aging-induced error probability at the fresh clock ({vectors} vectors)\n"
    );
    let mut table = Table::new(&[
        "component",
        "1y balance",
        "10y balance",
        "1y worst",
        "10y worst",
    ]);

    let adder = synth.adder(spec).expect("adder synthesis");
    let mut row = vec!["adder-32 (carry-select)".to_owned()];
    row.extend(error_row(&adder, &model, vectors, 1));
    table.row_owned(row);

    // The paper's error magnitudes come from a deeply balanced netlist;
    // the prefix-tree ablation reproduces them.
    let ks = synth
        .adder_with(AdderKind::KoggeStone, spec)
        .expect("adder synthesis");
    let mut row = vec!["adder-32 (prefix ablation)".to_owned()];
    row.extend(error_row(&ks, &model, vectors, 2));
    table.row_owned(row);

    let mult = synth.multiplier(spec).expect("multiplier synthesis");
    let mult_vectors = vectors.min(20_000);
    let mut row = vec!["multiplier-32 (wallace)".to_owned()];
    row.extend(error_row(&mult, &model, mult_vectors, 3));
    table.row_owned(row);

    let mult_ks = synth
        .multiplier_with(aix_arith::MultiplierKind::WallacePrefix, spec)
        .expect("multiplier synthesis");
    let mut row = vec!["multiplier-32 (prefix-merge ablation)".to_owned()];
    row.extend(error_row(&mult_ks, &model, mult_vectors, 4));
    table.row_owned(row);

    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\npaper reference (worst case): adder 20% @1y -> 28% @10y; multiplier 4% @1y -> 8% @10y"
    );
    let _ = writeln!(
        out,
        "expected shape: errors grow with lifetime, balance <= worst, and the error\n\
         magnitude depends on how close the netlist's exercised paths sit to its\n\
         critical path (carry-gated structures err rarely; balanced trees often)."
    );
    out
}
