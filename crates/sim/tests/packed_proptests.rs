//! Property-based differential tests: on arbitrary small random netlists
//! with arbitrary stimuli, every lane of the packed evaluator must equal
//! the scalar evaluator, and the packed popcount activity accounting must
//! match the scalar per-vector accounting.

use aix_cells::{CellFunction, DriveStrength, Library};
use aix_netlist::{Evaluator, Netlist};
use aix_sim::{oracle, Activity, PackedEvaluator, LANES};
use proptest::prelude::*;
use std::sync::Arc;

/// Combinational functions only — the evaluators reject sequential cells.
const COMB: [CellFunction; 15] = [
    CellFunction::Inv,
    CellFunction::Buf,
    CellFunction::Nand2,
    CellFunction::Nand3,
    CellFunction::Nor2,
    CellFunction::Nor3,
    CellFunction::And2,
    CellFunction::Or2,
    CellFunction::Xor2,
    CellFunction::Xnor2,
    CellFunction::Aoi21,
    CellFunction::Oai21,
    CellFunction::Mux2,
    CellFunction::HalfAdder,
    CellFunction::FullAdder,
];

/// A reproducible netlist recipe: each gate picks a function and draws its
/// operands (by index, modulo the growing net pool) from everything built
/// so far, so any recipe yields a valid acyclic netlist.
#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    constants: bool,
    gates: Vec<(usize, [usize; 3])>,
}

fn build(recipe: &Recipe, library: &Arc<Library>) -> Netlist {
    let mut nl = Netlist::new("random", library.clone());
    let mut pool = Vec::new();
    for i in 0..recipe.inputs {
        pool.push(nl.add_input(format!("in{i}")));
    }
    if recipe.constants {
        pool.push(nl.constant(false));
        pool.push(nl.constant(true));
    }
    for (index, (function_pick, operand_picks)) in recipe.gates.iter().enumerate() {
        let function = COMB[function_pick % COMB.len()];
        let cell = library
            .find(function, DriveStrength::X1)
            .expect("library covers every combinational function");
        let operands: Vec<_> = operand_picks[..function.input_count()]
            .iter()
            .map(|pick| pool[pick % pool.len()])
            .collect();
        let outputs = nl.add_gate(cell, &operands).expect("arity matches");
        for (pin, net) in outputs.iter().enumerate() {
            nl.mark_output(format!("g{index}_{pin}"), *net);
            pool.push(*net);
        }
    }
    nl.validate().expect("recipe builds a valid netlist");
    nl
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (1usize..=4, any::<bool>(), 1usize..=12).prop_flat_map(|(inputs, constants, gate_count)| {
        proptest::collection::vec(
            (0usize..64, [0usize..64, 0usize..64, 0usize..64]),
            gate_count,
        )
        .prop_map(move |gates| Recipe {
            inputs,
            constants,
            gates,
        })
    })
}

fn stimuli_strategy(inputs: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), inputs),
        1..(2 * LANES + 3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packed lane reproduces the scalar evaluation of its vector.
    #[test]
    fn packed_lanes_equal_scalar_eval(
        case in recipe_strategy()
            .prop_flat_map(|r| {
                let inputs = r.inputs;
                (Just(r), stimuli_strategy(inputs))
            })
    ) {
        let (recipe, stimuli) = case;
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&recipe, &library);
        let mut scalar = Evaluator::new(&netlist).unwrap();
        let mut packed = PackedEvaluator::new(&netlist).unwrap();
        for batch in stimuli.chunks(LANES) {
            packed.eval_batch(batch).unwrap();
            for (lane, vector) in batch.iter().enumerate() {
                let expected = scalar.eval(vector).unwrap().to_vec();
                prop_assert_eq!(
                    packed.output_lane_values(lane),
                    expected,
                    "lane {} of a {}-vector batch diverges",
                    lane,
                    batch.len()
                );
            }
        }
    }

    /// Packed popcount ones/toggle accounting equals the scalar walk.
    #[test]
    fn packed_activity_equals_scalar(
        case in recipe_strategy()
            .prop_flat_map(|r| {
                let inputs = r.inputs;
                (Just(r), stimuli_strategy(inputs))
            })
    ) {
        let (recipe, stimuli) = case;
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&recipe, &library);
        let scalar = oracle::activity(&netlist, stimuli.iter().cloned()).unwrap();
        let packed = Activity::collect(&netlist, stimuli.iter().cloned()).unwrap();
        prop_assert_eq!(scalar, packed);
    }
}
