//! Regenerates the paper's Fig. 2 experiment and times its gate-level
//! round trip against the RTL model's (§III). Pass `--full` for
//! paper-scale workloads; see `aix_bench::Options` for flags.

fn main() {
    let options = aix_bench::Options::from_env();
    print!("{}", aix_bench::experiments::fig2::run(&options));
}
