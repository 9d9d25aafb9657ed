//! Pinned structure of the optimizer's output: every generation-zero seed
//! candidate of adder-16, multiplier-8 and MAC-8 is built, run through
//! `optimize` and rendered as structural Verilog, and the FNV-1a digest of
//! that text must match `tests/golden/optimize_seed_digests.txt`.
//!
//! The Verilog names every gate and net by id, so a matching digest means
//! constant propagation and dead-gate sweeping created the same gates and
//! nets in the same order. That order fixes the order in which STA sums
//! fanout loads, and so the aged delays every explore score depends on,
//! bit for bit.
//!
//! Regenerate the golden after an *intentional* change with:
//! `UPDATE_GOLDEN=1 cargo test --test optimizer_golden`

use aix::cells::Library;
use aix::core::ComponentKind;
use aix::explore::seed_candidates;
use aix::netlist::to_verilog;
use aix::obs::{fnv1a, FNV_OFFSET};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/optimize_seed_digests.txt";
const GOLDEN: &str = include_str!("golden/optimize_seed_digests.txt");

/// One `label digest` line per seed candidate, in generation order.
fn digests() -> String {
    let cells = Arc::new(Library::nangate45_like());
    let mut out = String::new();
    for (kind, width) in [
        (ComponentKind::Adder, 16),
        (ComponentKind::Multiplier, 8),
        (ComponentKind::Mac, 8),
    ] {
        for candidate in seed_candidates(kind, width) {
            let built = candidate.build(&cells).expect("seed candidates build");
            let optimized = aix::synth::optimize(&built).expect("optimize");
            let digest = fnv1a(FNV_OFFSET, to_verilog(&optimized).as_bytes());
            let _ = writeln!(out, "{} {digest:016x}", candidate.label());
        }
    }
    out
}

#[test]
fn optimized_seed_netlists_match_golden_digests() {
    let digests = digests();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &digests).expect("write golden");
        return;
    }
    assert_eq!(
        digests, GOLDEN,
        "optimized seed netlists drifted from {GOLDEN_PATH}; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
