//! Bit-parallel (parallel-pattern) gate-level simulation.
//!
//! Classic parallel-pattern simulation packs up to [`LANES`] = 64 stimulus
//! vectors into one `u64` per net — lane *l* of a word is the net's value
//! under the batch's *l*-th vector — and evaluates every gate once per word
//! as pure bitwise ops. [`PackedEvaluator`] goes one step further: one walk
//! evaluates a *block* of up to [`BLOCK_BATCHES`] such words per net, so a
//! gate's cell function is dispatched once per block and its loop over the
//! block's words is a plain bitwise kernel
//! ([`CellFunction::eval_rows`]). [`measure_errors`] and [`Activity`]
//! stream their stimuli through block walks, packing each vector as it
//! arrives, so a stream of one batch is the width-1 case of the same
//! loop; [`simulate_faults`] walks one batch per fault at a time.
//!
//! Timed simulation is packed too: its sampling program runs after a
//! walk of this evaluator, on the same lane words, for
//! [`measure_errors`] and [`TimedStreams`](crate::TimedStreams), and is
//! bit-identical to the scalar [`TimedSimulator`](crate::TimedSimulator)
//! per lane. DESIGN.md records the argument for why that holds. The
//! scalar engines survive only as the reference implementations in
//! [`oracle`](crate::oracle).
//!
//! [`measure_errors`]: crate::measure_errors
//! [`Activity`]: crate::Activity
//! [`simulate_faults`]: crate::simulate_faults

use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{GateId, NetDriver, NetId, Netlist, NetlistError};
use aix_obs::names::sim as names;

/// Number of stimulus vectors packed per machine word.
pub const LANES: usize = 64;

/// Most lane words per net one walk evaluates: a block of up to 16
/// batches.
pub const BLOCK_BATCHES: usize = 16;

/// Most stimulus vectors one walk evaluates:
/// [`BLOCK_BATCHES`] × [`LANES`] = 1 024.
pub const BLOCK_VECTORS: usize = BLOCK_BATCHES * LANES;

/// One gate of the compiled walk: its cell function and the nets it
/// reads and writes. Net `n`'s words start at word `n × width` of the
/// evaluator's net-major store.
#[derive(Debug, Clone, Copy)]
struct Op {
    function: CellFunction,
    /// Input nets in pin order; slots past the arity repeat pin 0.
    inputs: [u32; MAX_INPUTS],
    /// Output nets in pin order; an unused second slot repeats pin 0.
    outputs: [u32; MAX_OUTPUTS],
}

impl Op {
    fn compile(function: CellFunction, inputs: &[NetId], outputs: &[NetId]) -> Self {
        let pin = |nets: &[NetId], at: usize| nets.get(at).unwrap_or(&nets[0]).raw();
        Op {
            function,
            inputs: std::array::from_fn(|at| pin(inputs, at)),
            outputs: std::array::from_fn(|at| pin(outputs, at)),
        }
    }

    fn drives(&self, net: usize) -> bool {
        self.outputs[..self.function.output_count()]
            .iter()
            .any(|&out| out as usize == net)
    }
}

/// Reusable bit-parallel evaluator over a netlist compiled once into a
/// flat op table: up to [`BLOCK_VECTORS`] stimulus vectors per walk, as
/// `width` = ⌈vectors / 64⌉ lane words per net.
///
/// Vector *v* of a walk lives in lane *v* mod 64 of word *v* / 64, so
/// iterating words, then lanes, in order replays the stimuli in order —
/// this is what lets packed consumers accumulate floating-point
/// statistics in exactly the scalar order and stay byte-identical.
///
/// # Examples
///
/// ```
/// use aix_cells::{CellFunction, DriveStrength, Library};
/// use aix_netlist::Netlist;
/// use aix_sim::PackedEvaluator;
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let mut nl = Netlist::new("xor", lib.clone());
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let xor = lib.find(CellFunction::Xor2, DriveStrength::X1).unwrap();
/// let y = nl.add_gate(xor, &[a, b])?;
/// nl.mark_output("y", y[0]);
///
/// let mut packed = PackedEvaluator::new(&nl)?;
/// packed.eval_batch(&[vec![true, false], vec![true, true]])?;
/// assert_eq!(packed.output_lane_values(0), vec![true]);  // 1 ^ 0
/// assert_eq!(packed.output_lane_values(1), vec![false]); // 1 ^ 1
/// # Ok::<(), aix_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct PackedEvaluator<'nl> {
    netlist: &'nl Netlist,
    /// Every gate in the netlist's levelized order.
    ops: Vec<Op>,
    /// Net-major lane words: net `n`'s word `k` is `words[n * width + k]`.
    words: Vec<u64>,
    /// Batch-major output words: port `p`'s word `k` is
    /// `output_words[k * outputs + p]`.
    output_words: Vec<u64>,
    /// Constant nets and their (all-lane) words, re-asserted per walk so
    /// a fault forced onto a tie net cannot leak into later walks.
    const_words: Vec<(NetId, u64)>,
    /// Lane words per net of the latest walk (1..=[`BLOCK_BATCHES`]).
    width: usize,
    /// Vector count of the latest walk.
    vectors: usize,
}

impl<'nl> PackedEvaluator<'nl> {
    /// Compiles `netlist` into the evaluator's op table.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is
    /// cyclic.
    pub fn new(netlist: &'nl Netlist) -> Result<Self, NetlistError> {
        let schedule = netlist.schedule()?;
        let ops = schedule
            .order()
            .iter()
            .map(|&g| {
                let gate = netlist.gate(GateId::from_raw(g));
                let function = netlist.library().cell(gate.cell).function;
                Op::compile(function, &gate.inputs, &gate.outputs)
            })
            .collect();
        let const_words = netlist
            .nets()
            .filter_map(|(id, net)| match net.driver {
                NetDriver::Constant(v) => Some((id, if v { !0 } else { 0 })),
                _ => None,
            })
            .collect();
        Ok(Self {
            netlist,
            ops,
            words: Vec::new(),
            output_words: Vec::new(),
            const_words,
            width: 0,
            vectors: 0,
        })
    }

    /// Evaluates a batch of 1..=[`LANES`] input vectors in one netlist
    /// walk of width 1. Vector *l* of the batch lands in lane *l* of every
    /// net's word.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if any vector does not
    /// match the number of primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or holds more than [`LANES`] vectors.
    pub fn eval_batch(&mut self, batch: &[Vec<bool>]) -> Result<(), NetlistError> {
        self.eval_batch_forced(batch, None)
    }

    /// [`eval_batch`](Self::eval_batch) with an optional stuck-at fault:
    /// `force = Some((net, value))` pins `net` to `value` in every lane,
    /// overriding both its initial value and anything its driver writes —
    /// the packed twin of the scalar fault simulator's forcing rule.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if any vector does not
    /// match the number of primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or holds more than [`LANES`] vectors.
    pub fn eval_batch_forced(
        &mut self,
        batch: &[Vec<bool>],
        force: Option<(NetId, bool)>,
    ) -> Result<(), NetlistError> {
        assert!(
            (1..=LANES).contains(&batch.len()),
            "batch of {} vectors (expected 1..={LANES})",
            batch.len()
        );
        let expected = self.netlist.inputs().len();
        if let Some(vector) = batch.iter().find(|vector| vector.len() != expected) {
            return Err(NetlistError::InputWidthMismatch {
                expected,
                provided: vector.len(),
            });
        }
        self.set_width(1);
        for (pos, &net) in self.netlist.inputs().iter().enumerate() {
            self.words[net.index()] = pack_position(batch, pos);
        }
        self.walk(batch.len(), force);
        Ok(())
    }

    /// Evaluates 1..=[`BLOCK_VECTORS`] vectors already packed by
    /// [`pack_batch`] in one walk: batch-major, one lane word per primary
    /// input (input order) for each of the `width` = ⌈`vectors` / 64⌉
    /// batches, so batch *k*'s word of input *p* is
    /// `input_words[k × inputs + p]`. Vector *v* lands in lane *v* mod 64
    /// of word *v* / 64 of every net. Callers that evaluate the same
    /// stimuli on many netlists pack them once and skip the per-walk
    /// transpose.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] (counted in words)
    /// unless `input_words` holds `width` words per primary input.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is outside `1..=`[`BLOCK_VECTORS`].
    pub fn eval_packed(&mut self, input_words: &[u64], vectors: usize) -> Result<(), NetlistError> {
        let width = block_width(vectors);
        let inputs = self.netlist.inputs();
        if input_words.len() != inputs.len() * width {
            return Err(NetlistError::InputWidthMismatch {
                expected: inputs.len() * width,
                provided: input_words.len(),
            });
        }
        self.set_width(width);
        for k in 0..width {
            let batch = row(input_words, k, inputs.len());
            for (&net, &word) in inputs.iter().zip(batch) {
                self.words[net.index() * width + k] = word;
            }
        }
        self.walk(vectors, None);
        Ok(())
    }

    /// Streams `stimuli` through block walks: each vector is packed into
    /// one reused buffer, in [`pack_batch`]'s layout, as it arrives; every
    /// [`BLOCK_VECTORS`] vectors (and once more for a partial last block)
    /// the block is walked with [`eval_packed`](Self::eval_packed), and
    /// `block` then reads the walk's words. Blocks arrive in stimulus
    /// order; a one-batch stream is the width-1 case of the same loop.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] for the first vector
    /// that does not match the number of primary inputs.
    pub(crate) fn eval_stream<I>(
        &mut self,
        stimuli: I,
        mut block: impl FnMut(&Self),
    ) -> Result<(), NetlistError>
    where
        I: IntoIterator<Item = Vec<bool>>,
    {
        let inputs = self.netlist.inputs().len();
        let mut words = Vec::new();
        let mut vectors = 0;
        for vector in stimuli {
            if vector.len() != inputs {
                return Err(NetlistError::InputWidthMismatch {
                    expected: inputs,
                    provided: vector.len(),
                });
            }
            let lane = vectors % LANES;
            if lane == 0 {
                words.resize(words.len() + inputs, 0);
            }
            let batch = &mut words[vectors / LANES * inputs..];
            for (word, &bit) in batch.iter_mut().zip(&vector) {
                *word |= u64::from(bit) << lane;
            }
            vectors += 1;
            if vectors == BLOCK_VECTORS {
                self.eval_packed(&words, vectors)?;
                block(self);
                words.clear();
                vectors = 0;
            }
        }
        if vectors > 0 {
            self.eval_packed(&words, vectors)?;
            block(self);
        }
        Ok(())
    }

    /// Sizes the word stores for `width` words per net. Every net's words
    /// are rewritten by each walk, so stale contents never leak.
    fn set_width(&mut self, width: usize) {
        if self.width != width {
            self.width = width;
            self.words.resize(self.netlist.net_count() * width, 0);
            self.output_words
                .resize(self.netlist.outputs().len() * width, 0);
        }
    }

    /// The one compiled walk behind every entry point: the input words
    /// are already in place; constants are re-asserted, the fault (if
    /// any) forced before the walk and again right after the only op
    /// that writes its net, and every op evaluated once.
    fn walk(&mut self, vectors: usize, force: Option<(NetId, bool)>) {
        let width = self.width;
        for &(net, word) in &self.const_words {
            self.words[net.index() * width..][..width].fill(word);
        }
        let force = force.map(|(net, value)| (net.index(), if value { !0 } else { 0 }));
        let split = force.map_or(0, |(net, _)| {
            self.ops
                .iter()
                .position(|op| op.drives(net))
                .map_or(0, |at| at + 1)
        });
        let (head, tail) = self.ops.split_at(split);
        for ops in [head, tail] {
            if let Some((net, word)) = force {
                self.words[net * width..][..width].fill(word);
            }
            run_ops(ops, &mut self.words, width);
        }
        let ports = self.netlist.outputs().len();
        for (port, (_, net)) in self.netlist.outputs().iter().enumerate() {
            for (k, &word) in row(&self.words, net.index(), width).iter().enumerate() {
                self.output_words[k * ports + port] = word;
            }
        }
        self.vectors = vectors;
        aix_obs::count_by!(names::PACKED_WORDS, width, gates = self.ops.len());
    }

    /// Vector count of the latest walk.
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Lane words per net of the latest walk: ⌈[`vectors`](Self::vectors)
    /// / 64⌉.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Net-major lane words after the latest walk: net `n`'s word `k` is
    /// `net_words()[n * width() + k]`. Lanes past
    /// [`vectors`](Self::vectors) are unspecified — mask before counting.
    pub fn net_words(&self) -> &[u64] {
        &self.words
    }

    /// Lane words of the primary outputs after the latest walk, batch by
    /// batch and in port order within a batch.
    pub fn output_words(&self) -> &[u64] {
        &self.output_words
    }

    /// The output words (port order) of batch `batch` of the latest walk:
    /// one lane word per port for vectors `64 × batch ..`.
    pub fn batch_output_words(&self, batch: usize) -> &[u64] {
        assert!(batch < self.width, "batch {batch} out of {}", self.width);
        row(&self.output_words, batch, self.netlist.outputs().len())
    }

    /// The output vector (port order) seen by vector `vector` of the
    /// latest walk — the packed counterpart of a scalar `eval` result.
    pub fn output_lane_values(&self, vector: usize) -> Vec<bool> {
        assert!(
            vector < self.vectors,
            "vector {vector} out of {}",
            self.vectors
        );
        let lane = vector % LANES;
        self.batch_output_words(vector / LANES)
            .iter()
            .map(|&word| (word >> lane) & 1 == 1)
            .collect()
    }

    /// The netlist this evaluator is bound to.
    pub fn netlist(&self) -> &'nl Netlist {
        self.netlist
    }
}

/// Evaluates `ops` in order over the net-major `words`, `width` words per
/// net.
fn run_ops(ops: &[Op], words: &mut [u64], width: usize) {
    let row = |net: u32| net as usize * width;
    for op in ops {
        op.function
            .eval_rows(words, op.inputs.map(row), op.outputs.map(row), width);
    }
}

/// Row `index` of a store with `width` words per row.
fn row(words: &[u64], index: usize, width: usize) -> &[u64] {
    &words[index * width..][..width]
}

/// Lane words per net for a walk of `vectors` vectors.
///
/// # Panics
///
/// Panics if `vectors` is outside `1..=`[`BLOCK_VECTORS`].
fn block_width(vectors: usize) -> usize {
    assert!(
        (1..=BLOCK_VECTORS).contains(&vectors),
        "walk of {vectors} vectors (expected 1..={BLOCK_VECTORS})"
    );
    vectors.div_ceil(LANES)
}

/// Lane word of input position `pos`: lane *l* holds vector *l*'s bit.
fn pack_position(batch: &[Vec<bool>], pos: usize) -> u64 {
    batch.iter().enumerate().fold(0u64, |word, (lane, vector)| {
        word | (u64::from(vector[pos]) << lane)
    })
}

/// Packs 1..=[`BLOCK_VECTORS`] equal-width vectors into the batch-major
/// layout [`PackedEvaluator::eval_packed`] takes: for each batch of 64
/// vectors in order, one lane word per input position.
///
/// # Panics
///
/// Panics if `vectors` is empty, holds more than [`BLOCK_VECTORS`], or its
/// vectors differ in width.
pub fn pack_batch(vectors: &[Vec<bool>]) -> Vec<u64> {
    block_width(vectors.len());
    let inputs = vectors[0].len();
    assert!(
        vectors.iter().all(|vector| vector.len() == inputs),
        "vectors of a packed batch must share one width"
    );
    vectors
        .chunks(LANES)
        .flat_map(|batch| (0..inputs).map(move |pos| pack_position(batch, pos)))
        .collect()
}

/// Mask selecting the low `lanes` bits of a lane word.
///
/// # Panics
///
/// Panics if `lanes` exceeds [`LANES`].
pub fn lane_mask(lanes: usize) -> u64 {
    assert!(lanes <= LANES, "{lanes} lanes exceed the word width");
    if lanes == LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_cells::{DriveStrength, Library};
    use aix_netlist::Evaluator;
    use std::sync::Arc;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    #[test]
    fn lane_masks() {
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(63), (1u64 << 63) - 1);
        assert_eq!(lane_mask(64), !0);
    }

    /// A small mixed netlist: y0 = (a NAND b) XOR c, y1 = MUX(a, b, c),
    /// with a tied-1 AND thrown in to exercise constants.
    fn mixed_netlist(lib: &Arc<Library>) -> Netlist {
        let nand = lib.find(CellFunction::Nand2, DriveStrength::X1).unwrap();
        let xor = lib.find(CellFunction::Xor2, DriveStrength::X1).unwrap();
        let mux = lib.find(CellFunction::Mux2, DriveStrength::X1).unwrap();
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("mixed", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let one = nl.constant(true);
        let n = nl.add_gate(nand, &[a, b]).unwrap()[0];
        let y0 = nl.add_gate(xor, &[n, c]).unwrap()[0];
        let m = nl.add_gate(mux, &[a, b, c]).unwrap()[0];
        let y1 = nl.add_gate(and, &[m, one]).unwrap()[0];
        nl.mark_output("y0", y0);
        nl.mark_output("y1", y1);
        nl.validate().unwrap();
        nl
    }

    #[test]
    fn packed_lanes_match_scalar_eval() {
        let lib = lib();
        let nl = mixed_netlist(&lib);
        let mut scalar = Evaluator::new(&nl).unwrap();
        let mut packed = PackedEvaluator::new(&nl).unwrap();
        // Exhaustive over the 8 input combinations, batched as one batch.
        let batch: Vec<Vec<bool>> = (0u8..8)
            .map(|bits| vec![bits & 1 != 0, bits & 2 != 0, bits & 4 != 0])
            .collect();
        packed.eval_batch(&batch).unwrap();
        assert_eq!((packed.vectors(), packed.width()), (8, 1));
        for (lane, vector) in batch.iter().enumerate() {
            let expect = scalar.eval(vector).unwrap().to_vec();
            assert_eq!(packed.output_lane_values(lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn partial_and_full_batches() {
        let lib = lib();
        let nl = mixed_netlist(&lib);
        let mut scalar = Evaluator::new(&nl).unwrap();
        let mut packed = PackedEvaluator::new(&nl).unwrap();
        for lanes in [1usize, 63, 64, 65, 1000, BLOCK_VECTORS] {
            let batch: Vec<Vec<bool>> = (0..lanes)
                .map(|i| vec![i % 2 == 0, i % 3 == 0, i % 5 == 0])
                .collect();
            if lanes <= LANES {
                packed.eval_batch(&batch).unwrap();
            } else {
                packed.eval_packed(&pack_batch(&batch), lanes).unwrap();
            }
            assert_eq!(packed.width(), lanes.div_ceil(LANES));
            for (lane, vector) in batch.iter().enumerate() {
                let expect = scalar.eval(vector).unwrap().to_vec();
                assert_eq!(
                    packed.output_lane_values(lane),
                    expect,
                    "{lanes}-vector walk, vector {lane}"
                );
            }
        }
    }

    #[test]
    fn forced_net_matches_stuck_at_semantics() {
        let lib = lib();
        let nl = mixed_netlist(&lib);
        let mut packed = PackedEvaluator::new(&nl).unwrap();
        // Force the NAND output low: y0 becomes 0 XOR c = c.
        let nand_out = nl.gate(GateId::from_raw(0)).outputs[0];
        let batch: Vec<Vec<bool>> = (0u8..8)
            .map(|bits| vec![bits & 1 != 0, bits & 2 != 0, bits & 4 != 0])
            .collect();
        packed.eval_batch_forced(&batch, Some((nand_out, false))).unwrap();
        for (lane, vector) in batch.iter().enumerate() {
            assert_eq!(packed.output_lane_values(lane)[0], vector[2], "lane {lane}");
        }
        // A fault on a constant net must not leak into the next clean batch.
        let tie1 = nl
            .nets()
            .find_map(|(id, net)| {
                matches!(net.driver, NetDriver::Constant(true)).then_some(id)
            })
            .unwrap();
        packed.eval_batch_forced(&batch, Some((tie1, false))).unwrap();
        for lane in 0..batch.len() {
            assert!(!packed.output_lane_values(lane)[1], "faulted tie1 kills y1");
        }
        packed.eval_batch(&batch).unwrap();
        let mut scalar = Evaluator::new(&nl).unwrap();
        for (lane, vector) in batch.iter().enumerate() {
            let expect = scalar.eval(vector).unwrap().to_vec();
            assert_eq!(packed.output_lane_values(lane), expect, "clean lane {lane}");
        }
    }

    #[test]
    fn pre_packed_words_match_vector_batches() {
        let lib = lib();
        let nl = mixed_netlist(&lib);
        let mut from_vectors = PackedEvaluator::new(&nl).unwrap();
        let mut from_words = PackedEvaluator::new(&nl).unwrap();
        for lanes in [1usize, 37, 64] {
            let batch: Vec<Vec<bool>> = (0..lanes)
                .map(|i| vec![i % 2 == 0, i % 3 == 0, i % 7 == 0])
                .collect();
            from_vectors.eval_batch(&batch).unwrap();
            let words = pack_batch(&batch);
            assert_eq!(words.len(), 3);
            from_words.eval_packed(&words, lanes).unwrap();
            assert_eq!(from_words.vectors(), lanes);
            assert_eq!(from_words.output_words(), from_vectors.output_words());
        }
        assert_eq!(
            from_words.eval_packed(&[0, 0], 8),
            Err(NetlistError::InputWidthMismatch {
                expected: 3,
                provided: 2
            })
        );
    }

    #[test]
    #[should_panic(expected = "batch of 65 vectors")]
    fn eval_batch_takes_one_batch() {
        let lib = lib();
        let nl = mixed_netlist(&lib);
        let mut packed = PackedEvaluator::new(&nl).unwrap();
        let _ = packed.eval_batch(&vec![vec![false; 3]; LANES + 1]);
    }

    #[test]
    #[should_panic(expected = "share one width")]
    fn pack_batch_rejects_ragged_vectors() {
        let _ = pack_batch(&[vec![true, false], vec![true]]);
    }

    #[test]
    fn numeric_output_extraction() {
        let lib = lib();
        let ha = lib.find(CellFunction::HalfAdder, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("ha", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let out = nl.add_gate(ha, &[a, b]).unwrap();
        nl.mark_output_bus("s", &out);
        let mut packed = PackedEvaluator::new(&nl).unwrap();
        let batch = vec![
            vec![false, false],
            vec![true, false],
            vec![false, true],
            vec![true, true],
        ];
        packed.eval_batch(&batch).unwrap();
        let sums: Vec<u64> = (0..4)
            .map(|l| crate::golden_lane_word(packed.output_words(), l))
            .collect();
        assert_eq!(sums, vec![0, 1, 1, 2]);
    }
}
