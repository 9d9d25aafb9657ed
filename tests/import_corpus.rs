//! Golden corpus for the netlist import front-end: hand-written Verilog
//! and EDIF files under `tests/corpus/` covering the constructs real
//! exporters emit (non-ANSI and ANSI headers, bus ports, escaped
//! identifiers, constant ties, `(rename …)` forms, array ports, tie
//! cells) plus negative cases for the error taxonomy.
//!
//! Every positive file's imported structure and Verilog projection are
//! pinned in `tests/golden/import_corpus.txt` — any importer or exporter
//! drift trips the comparison loudly. Regenerate after an *intentional*
//! change with: `UPDATE_GOLDEN=1 cargo test --test import_corpus`

use aix::cells::Library;
use aix::netlist::{import_netlist, to_verilog, ImportError, ImportFormat, Netlist};
use aix::sim::oracle;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/import_corpus.txt";
const GOLDEN: &str = include_str!("golden/import_corpus.txt");

/// The positive corpus, in pinned order.
const POSITIVE: [&str; 8] = [
    "full_adder.v",
    "bus_mux.v",
    "escaped.v",
    "const_ties.v",
    "rca8.v",
    "half_adder.edif",
    "tie_bus.edif",
    "rca4.edif",
];

fn import_corpus_file(name: &str) -> Result<Netlist, ImportError> {
    let path = Path::new("tests/corpus").join(name);
    let source = std::fs::read_to_string(&path).expect("corpus file exists");
    let format = ImportFormat::from_path(&path).expect("corpus extensions are recognized");
    let cells = Arc::new(Library::nangate45_like());
    import_netlist(&source, format, &cells)
}

/// One corpus entry of the golden file: a summary line plus the imported
/// netlist's Verilog projection.
fn render_entry(name: &str, netlist: &Netlist) -> String {
    let stats = netlist.stats();
    let mut out = format!(
        "==== {name}: `{}` {} gate(s), {} net(s), {} input(s), {} output(s)\n",
        netlist.name(),
        stats.gate_count,
        stats.net_count,
        stats.input_count,
        stats.output_count
    );
    out.push_str(&to_verilog(netlist));
    out
}

#[test]
fn corpus_matches_the_pinned_golden() {
    let mut rendered = String::new();
    for name in POSITIVE {
        let netlist = import_corpus_file(name)
            .unwrap_or_else(|e| panic!("corpus file {name} must import: {e}"));
        netlist
            .validate()
            .expect("imported corpus designs validate");
        let _ = write!(rendered, "{}", render_entry(name, &netlist));
    }
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "imported corpus drifted from {GOLDEN_PATH}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Corpus designs behave: spot-check the functional semantics the files
/// encode, so the golden pins structure *and* the structure is right.
#[test]
fn corpus_designs_compute_what_they_claim() {
    // full_adder: 1+1+1 = 11b.
    let fa = import_corpus_file("full_adder.v").unwrap();
    assert_eq!(
        oracle::eval(&fa, &[true, true, true]).unwrap(),
        vec![true, true]
    );
    // bus_mux: sel=0 picks a, sel=1 picks b (inputs a[4], b[4], sel).
    let mux = import_corpus_file("bus_mux.v").unwrap();
    let mut vector = vec![true, false, true, false, false, true, false, true, false];
    let y0 = oracle::eval(&mux, &vector).unwrap();
    assert_eq!(y0, vec![true, false, true, false], "sel=0 must pass a");
    *vector.last_mut().unwrap() = true;
    let y1 = oracle::eval(&mux, &vector).unwrap();
    assert_eq!(y1, vec![false, true, false, true], "sel=1 must pass b");
    // escaped: y = !(d0 ^ d1).
    let esc = import_corpus_file("escaped.v").unwrap();
    assert_eq!(oracle::eval(&esc, &[true, false]).unwrap(), vec![false]);
    assert_eq!(oracle::eval(&esc, &[true, true]).unwrap(), vec![true]);
    // const_ties: y = a & 1 | 0 = a; z = !(a & 0) = 1.
    let ties = import_corpus_file("const_ties.v").unwrap();
    assert_eq!(oracle::eval(&ties, &[true]).unwrap(), vec![true, true]);
    assert_eq!(oracle::eval(&ties, &[false]).unwrap(), vec![false, true]);
    // half_adder.edif: sum and carry of x+y.
    let ha = import_corpus_file("half_adder.edif").unwrap();
    assert_eq!(oracle::eval(&ha, &[true, true]).unwrap(), vec![false, true]);
    // tie_bus.edif: q = d & 1 = d.
    let tie = import_corpus_file("tie_bus.edif").unwrap();
    assert_eq!(
        oracle::eval(&tie, &[true, false]).unwrap(),
        vec![true, false],
        "AND with TIE1 must be the identity"
    );
    // The ripple-carry adders really add, LSB-first buses.
    use aix::netlist::{bus_from_u64, bus_to_u64};
    let rca8 = import_corpus_file("rca8.v").unwrap();
    let mut vector = bus_from_u64(173, 8);
    vector.extend(bus_from_u64(90, 8));
    vector.push(true);
    let out = oracle::eval(&rca8, &vector).unwrap();
    assert_eq!(bus_to_u64(&out), 173 + 90 + 1, "rca8 must add with carry");
    let rca4 = import_corpus_file("rca4.edif").unwrap();
    let mut vector = bus_from_u64(11, 4);
    vector.extend(bus_from_u64(6, 4));
    vector.push(false);
    let out = oracle::eval(&rca4, &vector).unwrap();
    assert_eq!(bus_to_u64(&out), 11 + 6, "rca4 must add");
}

/// Re-importing a corpus design's own re-export is a fixpoint, the same
/// invariant the synthesized round-trip suite proves at scale.
#[test]
fn corpus_reexports_are_fixpoints() {
    let cells = Arc::new(Library::nangate45_like());
    for name in POSITIVE {
        let netlist = import_corpus_file(name).unwrap();
        let first = to_verilog(&netlist);
        let again = aix::netlist::import_verilog(&first, &cells)
            .unwrap_or_else(|e| panic!("{name} re-import: {e}"));
        assert_eq!(first, to_verilog(&again), "{name} verilog fixpoint");
    }
}

#[test]
fn unknown_cell_is_reported_with_its_position() {
    let error = import_corpus_file("unknown_cell.v").expect_err("must fail");
    assert!(
        matches!(error, ImportError::UnknownCell { ref cell, .. } if cell == "BOGUS_X9"),
        "{error:?}"
    );
    let text = error.to_string();
    assert!(
        text.starts_with("4:12:"),
        "the message must lead with line:col: {text}"
    );
}

#[test]
fn double_driven_wire_is_reported() {
    let error = import_corpus_file("two_drivers.v").expect_err("must fail");
    assert!(
        matches!(error, ImportError::MultipleDrivers { ref name, .. } if name == "w"),
        "{error:?}"
    );
}
