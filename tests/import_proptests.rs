//! Property tests for the netlist import front-end.
//!
//! Three families:
//!
//! 1. **Grammar-directed round trips** — random valid netlists (arbitrary
//!    DAG shapes, hostile port/wire names) export to Verilog and EDIF,
//!    re-import, and re-export byte-identically, and the import preserves
//!    functional behaviour.
//! 2. **Mutation fuzzing** — seeded byte mutations of valid exporter
//!    output must never panic the parsers: every outcome is either a
//!    successful import or a structured [`ImportError`] whose message
//!    renders.
//! 3. **Resource bounds** — truncated files and adversarially deep EDIF
//!    nesting fail cleanly (positioned errors, no stack overflow).

use aix::cells::{CellFunction, Library};
use aix::netlist::{import_edif, import_verilog, to_edif, to_verilog, ImportError, Netlist};
use aix::sim::oracle;
use proptest::prelude::*;
use std::sync::Arc;

fn lib() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

/// A deterministic xorshift step.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Builds a random combinational DAG: `inputs` hostile-named inputs, then
/// `gates` random non-sequential cells whose fanin is drawn from every
/// net created so far, with a few constants mixed in.
fn random_netlist(lib: &Arc<Library>, seed: u64, inputs: usize, gates: usize) -> Netlist {
    // Names that stress the sanitizer: spaces, brackets, digits first,
    // keywords, duplicates-after-sanitizing.
    const NAMES: [&str; 8] = [
        "a",
        "data[3]",
        "3начало",
        "clk enable",
        "module",
        "a+b",
        "_",
        "véry-long.name",
    ];
    let mut state = seed | 1;
    let mut nl = Netlist::new(format!("rand_{seed}"), Arc::clone(lib));
    let mut nets = Vec::new();
    for i in 0..inputs {
        let base = NAMES[(next(&mut state) as usize) % NAMES.len()];
        nets.push(nl.add_input(format!("{base}{i}")));
    }
    let cells: Vec<_> = lib
        .iter()
        .filter(|(_, cell)| cell.function != CellFunction::Dff)
        .map(|(id, cell)| (id, cell.function.input_count()))
        .collect();
    for g in 0..gates {
        let (cell, arity) = cells[(next(&mut state) as usize) % cells.len()];
        let fanin: Vec<_> = (0..arity)
            .map(|_| {
                if next(&mut state).is_multiple_of(13) {
                    nl.constant(next(&mut state).is_multiple_of(2))
                } else {
                    nets[(next(&mut state) as usize) % nets.len()]
                }
            })
            .collect();
        let outs = nl.add_gate(cell, &fanin).expect("valid arity");
        if next(&mut state).is_multiple_of(3) {
            nl.mark_output(format!("out[{g}]"), outs[0]);
        }
        nets.extend(outs);
    }
    // Guarantee at least one output.
    nl.mark_output("last", *nets.last().expect("nonempty"));
    nl.validate()
        .expect("random DAGs are valid by construction");
    nl
}

/// Random input vectors for `netlist`, derived from `seed`.
fn vectors(netlist: &Netlist, seed: u64, count: usize) -> Vec<Vec<bool>> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            (0..netlist.inputs().len())
                .map(|_| next(&mut state).is_multiple_of(2))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Export → import → re-export is the identity on both formats for
    /// arbitrary valid netlists, and the import computes the same function.
    #[test]
    fn random_netlists_round_trip(
        seed in any::<u64>(),
        inputs in 1usize..6,
        gates in 1usize..24,
    ) {
        let lib = lib();
        let original = random_netlist(&lib, seed, inputs, gates);

        let verilog = to_verilog(&original);
        let from_v = import_verilog(&verilog, &lib)
            .map_err(|e| TestCaseError::fail(format!("verilog import: {e}\n{verilog}")))?;
        prop_assert_eq!(&to_verilog(&from_v), &verilog, "verilog fixpoint");

        let edif = to_edif(&original);
        let from_e = import_edif(&edif, &lib)
            .map_err(|e| TestCaseError::fail(format!("edif import: {e}\n{edif}")))?;
        prop_assert_eq!(&to_edif(&from_e), &edif, "edif fixpoint");

        for vector in vectors(&original, seed ^ 0x5eed, 16) {
            let want = oracle::eval(&original, &vector).expect("original evals");
            prop_assert_eq!(&oracle::eval(&from_v, &vector).expect("import evals"), &want);
            prop_assert_eq!(&oracle::eval(&from_e, &vector).expect("import evals"), &want);
        }
    }

    /// Seeded byte mutations of valid sources never panic either parser:
    /// the result is Ok or a structured error that renders.
    #[test]
    fn mutated_sources_never_panic(
        seed in any::<u64>(),
        mutations in 1usize..12,
    ) {
        let lib = lib();
        let base = random_netlist(&lib, seed, 3, 8);
        for (text, verilog) in [(to_verilog(&base), true), (to_edif(&base), false)] {
            let mut bytes = text.into_bytes();
            let mut state = seed | 1;
            for _ in 0..mutations {
                let at = (next(&mut state) as usize) % bytes.len();
                match next(&mut state) % 3 {
                    0 => bytes[at] = (next(&mut state) % 256) as u8,
                    1 => { bytes.remove(at); },
                    _ => bytes.insert(at, (next(&mut state) % 128) as u8),
                }
                if bytes.is_empty() {
                    bytes.push(b' ');
                }
            }
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            let lib = Arc::clone(&lib);
            let outcome = std::panic::catch_unwind(move || {
                let result = if verilog {
                    import_verilog(&mutated, &lib)
                } else {
                    import_edif(&mutated, &lib)
                };
                if let Err(error) = result {
                    prop_assert!(!error.to_string().is_empty());
                }
                Ok(())
            });
            match outcome {
                Ok(inner) => inner?,
                Err(_) => return Err(TestCaseError::fail("parser panicked on mutated input")),
            }
        }
    }

    /// Every prefix of a valid source fails cleanly (or parses, for
    /// prefixes that happen to be complete): no panic, positioned errors.
    #[test]
    fn truncated_sources_fail_cleanly(seed in any::<u64>(), stride in 1usize..37) {
        let lib = lib();
        let base = random_netlist(&lib, seed, 2, 6);
        for text in [to_verilog(&base), to_edif(&base)] {
            let mut cut = 0;
            while cut < text.len() {
                if let Some(prefix) = text.get(..cut) {
                    let _ = import_verilog(prefix, &lib).map_err(structured);
                    let _ = import_edif(prefix, &lib).map_err(structured);
                }
                cut += stride;
            }
        }
    }
}

/// Asserts an error is well-formed: it renders, and syntax errors carry a
/// position.
fn structured(error: ImportError) -> ImportError {
    let text = error.to_string();
    assert!(!text.is_empty());
    if let ImportError::Syntax { .. } = &error {
        assert!(error.loc().is_some(), "syntax errors must be positioned");
    }
    error
}

/// Adversarially deep EDIF nesting is capped, not a stack overflow.
#[test]
fn edif_deep_nesting_is_rejected() {
    let lib = lib();
    let bomb = format!("(edif x {}", "(a ".repeat(5000));
    match import_edif(&bomb, &lib) {
        Err(ImportError::DepthExceeded { limit, .. }) => assert!(limit >= 16),
        other => panic!("expected DepthExceeded, got {other:?}"),
    }
}

/// The deepest *accepted* nesting still parses without issue right below
/// the cap (the limit is a guard, not a functional restriction).
#[test]
fn shallow_nesting_is_unaffected() {
    let lib = lib();
    let nested = format!("(edif x {}{}", "(a ".repeat(40), ")".repeat(40));
    // Structurally meaningless but shallow: must fail on *content*, not
    // on depth.
    if let Err(ImportError::DepthExceeded { .. }) = import_edif(&nested, &lib) {
        panic!("depth cap fired below its limit");
    }
}
