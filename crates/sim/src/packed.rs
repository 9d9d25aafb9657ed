//! Bit-parallel (parallel-pattern) gate-level simulation.
//!
//! Classic parallel-pattern simulation packs up to [`LANES`] = 64 stimulus
//! vectors into one `u64` per net — lane *l* of a word is the net's value
//! under the batch's *l*-th vector — and evaluates every gate once per word
//! as pure bitwise ops ([`CellFunction::eval_words`]). For the untimed
//! value-mode consumers in this crate ([`measure_errors`], [`Activity`],
//! [`simulate_faults`]) this turns 64 full netlist walks into one.
//!
//! Timed simulation is packed too:
//! [`PackedTimedSimulator`](crate::PackedTimedSimulator) propagates
//! per-net waveforms on the femtosecond tick grid in one levelized walk,
//! 64 vectors per word with per-lane sample-at-clock state, and is
//! bit-identical to the scalar [`TimedSimulator`](crate::TimedSimulator)
//! per lane. DESIGN.md records the argument for why that holds. The
//! scalar engines survive only as the reference implementations in
//! [`oracle`](crate::oracle).
//!
//! [`measure_errors`]: crate::measure_errors
//! [`Activity`]: crate::Activity
//! [`simulate_faults`]: crate::simulate_faults

use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{GateId, NetDriver, NetId, Netlist, NetlistError, Schedule};
use std::sync::Arc;

/// Number of stimulus vectors packed per machine word.
pub const LANES: usize = 64;

/// Reusable bit-parallel evaluator: one `u64` word per net, up to
/// [`LANES`] stimulus vectors per batch.
///
/// Lane 0 is the *earliest* vector of the batch, so iterating lanes in
/// order replays the batch in stimulus order — this is what lets packed
/// consumers accumulate floating-point statistics in exactly the scalar
/// order and stay byte-identical.
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
    /// The netlist's shared levelized schedule.
    schedule: Arc<Schedule>,
    /// Per-gate function, flattened for cache-friendly dispatch.
    functions: Vec<CellFunction>,
    /// Current lane word of every net.
    words: Vec<u64>,
    /// Lane words of the latest batch's outputs, in port order.
    output_words: Vec<u64>,
    /// Constant nets and their (all-lane) words, re-asserted per batch so
    /// a fault forced onto a tie net cannot leak into later batches.
    const_words: Vec<(NetId, u64)>,
    /// Vector count of the latest batch (1..=64).
    lanes: usize,
}

impl<'nl> PackedEvaluator<'nl> {
    /// Prepares a packed evaluator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is
    /// cyclic.
    pub fn new(netlist: &'nl Netlist) -> Result<Self, NetlistError> {
        let schedule = netlist.schedule()?;
        let functions = netlist
            .gates()
            .map(|(_, g)| netlist.library().cell(g.cell).function)
            .collect();
        let mut words = vec![0u64; netlist.net_count()];
        let mut const_words = Vec::new();
        for (id, net) in netlist.nets() {
            if let NetDriver::Constant(v) = net.driver {
                let word = if v { !0 } else { 0 };
                words[id.index()] = word;
                const_words.push((id, word));
            }
        }
        Ok(Self {
            netlist,
            schedule,
            functions,
            words,
            output_words: vec![0; netlist.outputs().len()],
            const_words,
            lanes: 0,
        })
    }

    /// Evaluates a batch of 1..=[`LANES`] input vectors in one netlist
    /// walk. Vector *l* of the batch lands in lane *l* of every word.
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
        let lanes = batch.len();
        assert_lanes(lanes);
        let expected = self.netlist.inputs().len();
        for vector in batch {
            if vector.len() != expected {
                return Err(NetlistError::InputWidthMismatch {
                    expected,
                    provided: vector.len(),
                });
            }
        }
        for (pos, &net) in self.netlist.inputs().iter().enumerate() {
            self.words[net.index()] = pack_position(batch, pos);
        }
        self.walk(lanes, force);
        Ok(())
    }

    /// [`eval_batch`](Self::eval_batch) over a batch already packed by
    /// [`pack_batch`]: one lane word per primary input, in input order,
    /// holding `lanes` vectors. Callers that evaluate the same stimuli on
    /// many netlists pack them once and skip the per-batch transpose.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `input_words` does
    /// not hold one word per primary input.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=`[`LANES`].
    pub fn eval_packed(&mut self, input_words: &[u64], lanes: usize) -> Result<(), NetlistError> {
        assert_lanes(lanes);
        let inputs = self.netlist.inputs();
        if input_words.len() != inputs.len() {
            return Err(NetlistError::InputWidthMismatch {
                expected: inputs.len(),
                provided: input_words.len(),
            });
        }
        for (&net, &word) in inputs.iter().zip(input_words) {
            self.words[net.index()] = word;
        }
        self.walk(lanes, None);
        Ok(())
    }

    /// The one levelized gate walk behind every entry point: the input
    /// words are already in place; constants are re-asserted, the fault
    /// (if any) forced, and every gate evaluated once.
    fn walk(&mut self, lanes: usize, force: Option<(NetId, bool)>) {
        for &(net, word) in &self.const_words {
            self.words[net.index()] = word;
        }
        if let Some((net, value)) = force {
            self.words[net.index()] = if value { !0 } else { 0 };
        }
        let mut in_buf = [0u64; MAX_INPUTS];
        let mut out_buf = [0u64; MAX_OUTPUTS];
        for &g in self.schedule.order() {
            let gate = self.netlist.gate(GateId::from_raw(g));
            let function = self.functions[g as usize];
            for (slot, &net) in in_buf.iter_mut().zip(&gate.inputs) {
                *slot = self.words[net.index()];
            }
            function.eval_words(&in_buf[..gate.inputs.len()], &mut out_buf);
            for (pin, &net) in gate.outputs.iter().enumerate() {
                self.words[net.index()] = out_buf[pin];
            }
            if let Some((net, value)) = force {
                if gate.outputs.contains(&net) {
                    self.words[net.index()] = if value { !0 } else { 0 };
                }
            }
        }
        for (slot, (_, net)) in self.output_words.iter_mut().zip(self.netlist.outputs()) {
            *slot = self.words[net.index()];
        }
        self.lanes = lanes;
        aix_obs::count!(
            "packed_words",
            words = self.netlist.gate_count(),
            lanes = lanes
        );
    }

    /// Vector count of the latest batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask selecting the valid lanes of the latest batch.
    pub fn lane_mask(&self) -> u64 {
        lane_mask(self.lanes)
    }

    /// Lane word of every net after the latest batch. Lanes above
    /// [`lanes`](Self::lanes) are unspecified — mask before counting.
    pub fn net_words(&self) -> &[u64] {
        &self.words
    }

    /// Lane words of the primary outputs in port order.
    pub fn output_words(&self) -> &[u64] {
        &self.output_words
    }

    /// The output vector (port order) seen by lane `lane` of the latest
    /// batch — the packed counterpart of a scalar `eval` result.
    pub fn output_lane_values(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.output_words
            .iter()
            .map(|&word| (word >> lane) & 1 == 1)
            .collect()
    }

    /// The netlist this evaluator is bound to.
    pub fn netlist(&self) -> &'nl Netlist {
        self.netlist
    }
}

fn assert_lanes(lanes: usize) {
    assert!(
        (1..=LANES).contains(&lanes),
        "batch of {lanes} vectors (expected 1..={LANES})"
    );
}

/// Lane word of input position `pos`: lane *l* holds vector *l*'s bit.
fn pack_position(batch: &[Vec<bool>], pos: usize) -> u64 {
    batch.iter().enumerate().fold(0u64, |word, (lane, vector)| {
        word | (u64::from(vector[pos]) << lane)
    })
}

/// Packs a batch of 1..=[`LANES`] equal-width vectors into one lane word
/// per input position, the layout [`PackedEvaluator::eval_packed`] takes.
///
/// # Panics
///
/// Panics if the batch is empty, holds more than [`LANES`] vectors, or its
/// vectors differ in width.
pub fn pack_batch(batch: &[Vec<bool>]) -> Vec<u64> {
    assert_lanes(batch.len());
    let width = batch[0].len();
    assert!(
        batch.iter().all(|vector| vector.len() == width),
        "vectors of a packed batch must share one width"
    );
    (0..width).map(|pos| pack_position(batch, pos)).collect()
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
        assert_eq!(packed.lanes(), 8);
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
        for lanes in [1usize, 63, 64] {
            let batch: Vec<Vec<bool>> = (0..lanes)
                .map(|i| vec![i % 2 == 0, i % 3 == 0, i % 5 == 0])
                .collect();
            packed.eval_batch(&batch).unwrap();
            for (lane, vector) in batch.iter().enumerate() {
                let expect = scalar.eval(vector).unwrap().to_vec();
                assert_eq!(
                    packed.output_lane_values(lane),
                    expect,
                    "{lanes}-lane batch, lane {lane}"
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
            assert_eq!(from_words.lanes(), lanes);
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
