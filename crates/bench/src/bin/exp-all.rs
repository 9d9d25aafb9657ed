//! Runs every figure experiment in sequence and emits a combined report.

use aix_bench::experiments;

type Experiment = fn(&aix_bench::Options) -> String;

fn main() {
    let options = aix_bench::Options::from_env();
    let runs: [(&str, Experiment); 12] = [
        ("explore", experiments::explore::run),
        ("fig1", experiments::fig1::run),
        ("fig2", experiments::fig2::run),
        ("fig4", experiments::fig4::run),
        ("fig5", experiments::fig5::run),
        ("fig7", experiments::fig7::run),
        ("fig8a", experiments::fig8a::run),
        ("fig8b", experiments::fig8b::run),
        ("fig8c", experiments::fig8c::run),
        ("headline", experiments::headline::run),
        ("schedule", experiments::schedule::run),
        ("ablation", experiments::ablation::run),
    ];
    for (name, run) in runs {
        println!("==================== {name} ====================\n");
        println!("{}", run(&options));
    }
}
