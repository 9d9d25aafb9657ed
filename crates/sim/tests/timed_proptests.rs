//! Property-based differential tests of the timed sampling program on the
//! cases that are hard for it: random DAGs with multi-output cells,
//! repeated fanin, constants and duplicate output ports, under raw delay
//! annotations with zero-delay nets, equal-tick collisions and delays that
//! saturate the tick grid. Every lane of `TimedStreams` must equal a
//! scalar `TimedSimulator` stepping that lane's stream — sampled and
//! settled outputs and the timing-error flag — at 1, 63, 64 and 65 lanes.
//! The demand-driven `measure_errors` must equal the scalar oracle's
//! whole `ErrorStats` on the same cases, and on streams that end just
//! before, on and just after the block boundaries of 1 024 vectors, where
//! zero-delay activity must equal the oracle's too.

use aix_cells::{CellFunction, DriveStrength, Library};
use aix_netlist::Netlist;
use aix_sim::{
    measure_errors, oracle, Activity, TimedSimulator, TimedStreams, BLOCK_VECTORS, LANES,
};
use aix_sta::NetDelays;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Combinational functions only, multi-output adders included.
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

/// Per-net delays in ps. Repeated small values make equal-tick
/// collisions common; 0.0004 ps rounds to a zero-tick delay and 0.0006 ps
/// to one tick; the last two saturate the grid, alone or in sequence.
const DELAYS_PS: [f64; 10] = [0.0, 0.0, 1.0, 1.0, 2.0, 0.0004, 0.0006, 3.5, 1.2e16, 1e300];

/// Clock periods in ps, from "sample before anything moves" to "never
/// sample", with edges that land exactly on integer arrival sums.
const CLOCKS_PS: [f64; 8] = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 1.5e16, f64::MAX / 4.0];

/// Lane counts around the 64-lane word boundary.
const LANE_COUNTS: [usize; 4] = [1, 63, 64, 65];

/// Stream lengths around the block boundary: one short of a block, one
/// block, and one and two blocks followed by a one-vector block.
const BLOCK_EDGE_COUNTS: [usize; 4] = [
    BLOCK_VECTORS - 1,
    BLOCK_VECTORS,
    BLOCK_VECTORS + 1,
    2 * BLOCK_VECTORS + 1,
];

/// A reproducible netlist recipe: each gate picks a function and draws its
/// operands (by index, modulo the growing net pool) from everything built
/// so far, so operands repeat freely and any recipe is acyclic.
#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    constants: bool,
    gates: Vec<(usize, [usize; 3])>,
    /// Pool nets marked as an output port a second time.
    duplicate_ports: Vec<usize>,
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
    for (index, pick) in recipe.duplicate_ports.iter().enumerate() {
        nl.mark_output(format!("dup{index}"), pool[pick % pool.len()]);
    }
    nl.validate().expect("recipe builds a valid netlist");
    nl
}

/// One generated case: netlist, delay picks per net, clock, lane count
/// and stimulus seed.
#[derive(Debug, Clone)]
struct Case {
    recipe: Recipe,
    delay_picks: Vec<usize>,
    clock_pick: usize,
    lanes_pick: usize,
    seed: u64,
}

impl Case {
    fn delays(&self, netlist: &Netlist) -> NetDelays {
        NetDelays::from_raw(
            (0..netlist.net_count())
                .map(|net| {
                    DELAYS_PS[self.delay_picks[net % self.delay_picks.len()] % DELAYS_PS.len()]
                })
                .collect(),
        )
    }

    fn clock_ps(&self) -> f64 {
        CLOCKS_PS[self.clock_pick % CLOCKS_PS.len()]
    }

    fn lanes(&self) -> usize {
        LANE_COUNTS[self.lanes_pick % LANE_COUNTS.len()]
    }

    fn vectors(&self, rng: &mut StdRng, count: usize, inputs: usize) -> Vec<Vec<bool>> {
        (0..count)
            .map(|_| (0..inputs).map(|_| rng.gen()).collect())
            .collect()
    }
}

/// Steps independent `streams` of equal length through `TimedStreams`,
/// 64 per instance, and checks every lane at every step against a
/// dedicated scalar simulator: sampled and settled outputs and the
/// timing-error flag.
fn check_streams(
    netlist: &Netlist,
    delays: &NetDelays,
    clock: f64,
    streams: &[Vec<Vec<bool>>],
) -> Result<(), TestCaseError> {
    for group in streams.chunks(LANES) {
        let mut scalars: Vec<TimedSimulator> = group
            .iter()
            .map(|_| TimedSimulator::new(netlist, delays).unwrap())
            .collect();
        let mut packed = TimedStreams::new(netlist, delays, clock).unwrap();
        for step in 0..group[0].len() {
            let batch: Vec<Vec<bool>> = group.iter().map(|s| s[step].clone()).collect();
            let error_lanes = packed.step(&batch).unwrap();
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let expected = scalar.step(&batch[lane], clock).unwrap();
                let bits = |words: &[u64]| -> Vec<bool> {
                    words.iter().map(|word| (word >> lane) & 1 == 1).collect()
                };
                prop_assert_eq!(
                    (bits(packed.sampled_words()), bits(packed.settled_words())),
                    (expected.sampled, expected.settled),
                    "step {} lane {}",
                    step,
                    lane
                );
                prop_assert_eq!((error_lanes >> lane) & 1 == 1, expected.timing_error);
            }
        }
    }
    Ok(())
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let recipe = (
        1usize..=4,
        any::<bool>(),
        proptest::collection::vec((0usize..64, [0usize..64, 0usize..64, 0usize..64]), 1..=14),
        proptest::collection::vec(0usize..64, 0..=2),
    )
        .prop_map(|(inputs, constants, gates, duplicate_ports)| Recipe {
            inputs,
            constants,
            gates,
            duplicate_ports,
        });
    (
        recipe,
        proptest::collection::vec(0usize..64, 1..=24),
        0usize..64,
        0usize..64,
        any::<u64>(),
    )
        .prop_map(|(recipe, delay_picks, clock_pick, lanes_pick, seed)| Case {
            recipe,
            delay_picks,
            clock_pick,
            lanes_pick,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One stream stepped through a 1-lane `TimedStreams` equals one
    /// scalar simulator stepping the whole stream.
    #[test]
    fn stream_batches_equal_scalar_steps(case in case_strategy()) {
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&case.recipe, &library);
        let delays = case.delays(&netlist);
        let mut rng = StdRng::seed_from_u64(case.seed);
        let vectors = case.vectors(&mut rng, case.lanes(), netlist.inputs().len());
        check_streams(&netlist, &delays, case.clock_ps(), &[vectors])?;
    }

    /// Independent streams, one per lane (65 streams take a 64-lane and a
    /// 1-lane `TimedStreams`), each equal to a dedicated scalar simulator.
    #[test]
    fn independent_streams_equal_scalar_steps(case in case_strategy()) {
        const STEPS: usize = 4;
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&case.recipe, &library);
        let delays = case.delays(&netlist);
        let mut rng = StdRng::seed_from_u64(case.seed);
        let streams: Vec<Vec<Vec<bool>>> = (0..case.lanes())
            .map(|_| case.vectors(&mut rng, STEPS, netlist.inputs().len()))
            .collect();
        check_streams(&netlist, &delays, case.clock_ps(), &streams)?;
    }

    /// The demand-driven error measurement equals the scalar oracle, down
    /// to the bits of the mean error, on a stream of `2·lanes + 1` vectors
    /// so it spans full and partial batches.
    #[test]
    fn measure_errors_equals_the_oracle(case in case_strategy()) {
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&case.recipe, &library);
        let delays = case.delays(&netlist);
        let clock = case.clock_ps();
        let mut rng = StdRng::seed_from_u64(case.seed);
        let vectors = case.vectors(&mut rng, 2 * case.lanes() + 1, netlist.inputs().len());
        let expected = oracle::measure_errors(&netlist, &delays, clock, vectors.iter().cloned())
            .unwrap();
        let actual = measure_errors(&netlist, &delays, clock, vectors.iter().cloned()).unwrap();
        prop_assert_eq!(actual, expected);
        prop_assert_eq!(actual.mean_abs_error.to_bits(), expected.mean_abs_error.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Block-wide measurement and activity equal the scalar oracle on
    /// streams that end at every kind of block boundary, so the stream
    /// chaining carries across words and blocks.
    #[test]
    fn block_edges_equal_the_oracle(case in case_strategy(), count_pick in 0usize..4) {
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&case.recipe, &library);
        let delays = case.delays(&netlist);
        let clock = case.clock_ps();
        let mut rng = StdRng::seed_from_u64(case.seed);
        let count = BLOCK_EDGE_COUNTS[count_pick];
        let vectors = case.vectors(&mut rng, count, netlist.inputs().len());
        let expected = oracle::measure_errors(&netlist, &delays, clock, vectors.iter().cloned())
            .unwrap();
        let actual = measure_errors(&netlist, &delays, clock, vectors.iter().cloned()).unwrap();
        prop_assert_eq!(actual, expected, "{} vectors", count);
        prop_assert_eq!(actual.mean_abs_error.to_bits(), expected.mean_abs_error.to_bits());
        prop_assert_eq!(
            Activity::collect(&netlist, vectors.iter().cloned()).unwrap(),
            oracle::activity(&netlist, vectors.iter().cloned()).unwrap(),
            "{} vectors",
            count
        );
    }
}
