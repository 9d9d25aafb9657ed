//! Runs the aging-aware approximation search on the study components,
//! prints the search-vs-truncation table and fails unless the searched
//! front beats uniform truncation on each. Pass `--full` for paper-scale
//! budgets; see `aix_bench::Options` for flags.

fn main() {
    let options = aix_bench::Options::from_env();
    print!("{}", aix_bench::experiments::explore::run(&options));
}
