//! Property-based differential tests: on arbitrary small random netlists
//! with arbitrary stimuli, every lane of the packed evaluator must equal
//! the scalar evaluator — one batch at a time and in block walks of up to
//! [`BLOCK_BATCHES`] words per net — and the packed popcount activity
//! accounting must match the scalar per-vector accounting, also on
//! streams that end at the block boundaries of [`BLOCK_VECTORS`], where
//! the timed error measurement must equal its oracle too.

use aix_cells::{CellFunction, DriveStrength, Library};
use aix_netlist::{import_verilog, NetId, Netlist};
use aix_sim::{
    lane_mask, measure_errors, oracle, pack_batch, Activity, Evaluator, PackedEvaluator,
    BLOCK_BATCHES, BLOCK_VECTORS, LANES,
};
use aix_sta::NetDelays;
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

/// `count` seeded vectors of `inputs` bits (xorshift64, so large blocks
/// need no per-bit strategy draws).
fn seeded_vectors(inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// Block walks of 1, 2, 3, 16 and 17 batches, the last batch partial; 17
/// batches take two walks.
fn block_vectors_strategy() -> impl Strategy<Value = usize> {
    (0usize..5, 1usize..=LANES).prop_map(|(pick, tail)| {
        let batches = [1, 2, 3, BLOCK_BATCHES, BLOCK_BATCHES + 1][pick];
        (batches - 1) * LANES + tail
    })
}

/// Checks every lane of block walks over `stimuli` against the scalar
/// evaluator and every net's words of each block against one-batch
/// walks.
fn check_block_walks(netlist: &Netlist, stimuli: &[Vec<bool>]) -> Result<(), TestCaseError> {
    let mut scalar = Evaluator::new(netlist).unwrap();
    let mut block = PackedEvaluator::new(netlist).unwrap();
    let mut batch = PackedEvaluator::new(netlist).unwrap();
    for chunk in stimuli.chunks(BLOCK_VECTORS) {
        block.eval_packed(&pack_batch(chunk), chunk.len()).unwrap();
        for (v, vector) in chunk.iter().enumerate() {
            let expected = scalar.eval(vector).unwrap().to_vec();
            prop_assert_eq!(
                block.output_lane_values(v),
                expected,
                "vector {} of a {}-vector block diverges",
                v,
                chunk.len()
            );
        }
        let width = block.width();
        for (k, lanes) in chunk.chunks(LANES).enumerate() {
            batch.eval_batch(lanes).unwrap();
            let mask = lane_mask(lanes.len());
            for (net, &want) in batch.net_words().iter().enumerate() {
                let got = block.net_words()[net * width + k];
                prop_assert_eq!(
                    got & mask,
                    want & mask,
                    "net {} of batch {} diverges",
                    net,
                    k
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Block walks equal the scalar evaluator lane for lane and one-batch
    /// walks word for word.
    #[test]
    fn block_walks_equal_scalar_eval_and_batch_walks(
        recipe in recipe_strategy(),
        vectors in block_vectors_strategy(),
        seed in any::<u64>(),
    ) {
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&recipe, &library);
        let stimuli = seeded_vectors(recipe.inputs, vectors, seed);
        check_block_walks(&netlist, &stimuli)?;
    }

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

/// Stream lengths around the block boundary: one short of a block, one
/// block, and one and two blocks followed by a one-vector block.
const BLOCK_EDGE_COUNTS: [usize; 4] = [
    BLOCK_VECTORS - 1,
    BLOCK_VECTORS,
    BLOCK_VECTORS + 1,
    2 * BLOCK_VECTORS + 1,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Activity and the timed error measurement equal their oracles on
    /// streams that end at every kind of block boundary. Every net gets
    /// 1 ps, and the clock samples half way through the deepest chains.
    #[test]
    fn block_edges_equal_the_oracles(
        recipe in recipe_strategy(),
        count_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&recipe, &library);
        let count = BLOCK_EDGE_COUNTS[count_pick];
        let stimuli = seeded_vectors(recipe.inputs, count, seed);
        prop_assert_eq!(
            Activity::collect(&netlist, stimuli.iter().cloned()).unwrap(),
            oracle::activity(&netlist, stimuli.iter().cloned()).unwrap(),
            "{} vectors",
            count
        );
        let delays = NetDelays::from_raw(vec![1.0; netlist.net_count()]);
        let clock = recipe.gates.len() as f64 / 2.0;
        let expected =
            oracle::measure_errors(&netlist, &delays, clock, stimuli.iter().cloned()).unwrap();
        let actual = measure_errors(&netlist, &delays, clock, stimuli.iter().cloned()).unwrap();
        prop_assert_eq!(actual, expected, "{} vectors", count);
        prop_assert_eq!(actual.mean_abs_error.to_bits(), expected.mean_abs_error.to_bits());
    }
}

/// An imported netlist whose instances are listed consumers first, so the
/// importer numbers gate outputs below the nets they read (and puts the
/// tie net last): the walk must read and write rows wherever they sit.
#[test]
fn out_of_order_imported_gates_match_scalar_eval() {
    let source = "\
module reversed (a, b, c, y, co);
  input a;
  input b;
  input c;
  output y;
  output co;
  wire n1;
  wire n2;
  wire n3;
  NAND2_X1 g0 (.a(n2), .b(1'b1), .y(n3));
  MUX2_X1 g1 (.a(n3), .b(c), .c(a), .y(y));
  FA_X1 g2 (.a(n1), .b(c), .c(a), .y(n2), .co(co));
  XOR2_X1 g3 (.a(a), .b(b), .y(n1));
endmodule
";
    let library = Arc::new(Library::nangate45_like());
    let netlist = import_verilog(source, &library).expect("valid source");
    let out_of_order = netlist.gates().any(|(_, gate)| {
        let low = gate.outputs.iter().min().expect("gate output");
        gate.inputs.iter().any(|input| input > low)
    });
    assert!(
        out_of_order,
        "the source must number some output below an input"
    );
    for vectors in [5, 2 * LANES + 3, BLOCK_VECTORS + 9] {
        let stimuli = seeded_vectors(3, vectors, vectors as u64);
        check_block_walks(&netlist, &stimuli).unwrap();
    }
}

/// A full adder rewired through `gate_mut` so its sum pin drives the
/// higher-numbered of its two nets: the walk must hand each pin its own
/// row whatever order the nets come in.
#[test]
fn output_pins_in_descending_net_order_match_scalar_eval() {
    let library = Arc::new(Library::nangate45_like());
    let full_adder = library
        .find(CellFunction::FullAdder, DriveStrength::X1)
        .expect("library has a full adder");
    let mut netlist = Netlist::new("swapped", library.clone());
    let inputs: Vec<NetId> = ["a", "b", "c"].map(|name| netlist.add_input(name)).to_vec();
    let outputs = netlist
        .add_gate(full_adder, &inputs)
        .expect("arity matches");
    netlist.mark_output("sum", outputs[0]);
    netlist.mark_output("carry", outputs[1]);
    let gate = netlist.gates().next().expect("one gate").0;
    netlist.gate_mut(gate).outputs.reverse();
    for vectors in [5, 2 * LANES + 3] {
        let stimuli = seeded_vectors(3, vectors, vectors as u64);
        check_block_walks(&netlist, &stimuli).unwrap();
    }
}
