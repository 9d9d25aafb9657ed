//! Lane-parallel (packed) timed simulation by levelized waveform
//! propagation.
//!
//! [`PackedTimedSimulator`] simulates up to [`LANES`] = 64 independent
//! stimulus vectors per `u64` word with the same per-net transport delays,
//! clock-edge sampling, settle times and glitch counts as the scalar
//! [`TimedSimulator`](crate::TimedSimulator), but without an event queue:
//! one step walks the netlist once in topological order and builds every
//! net's *waveform* — the instants at which some lane of the net changes,
//! each carrying the net's new lane word.
//!
//! * **Instants.** An instant is a femtosecond tick
//!   ([`crate::TICKS_PER_PS`]) plus a *pass*. A gate evaluated at
//!   `(tick, pass)` drives its outputs at `(tick + delay, 0)`, or at
//!   `(tick, pass + 1)` when the sum stays on the same tick (a zero delay,
//!   or saturation at `u64::MAX`) — the scalar engine's same-tick re-visit.
//! * **Gates.** A gate's output waveform is a pure function of its input
//!   waveforms: merge their instants, evaluate
//!   [`CellFunction::eval_words`] on whole lane words at each, and append
//!   an entry only where lanes change against the output's latest entry.
//!   Because each net's delay is a per-net constant, the scalar engine
//!   schedules a net's events in time order, so its "last scheduled" value
//!   is exactly that latest entry.
//!
//! Within one instant the evaluation order cannot matter: an evaluation
//! only reads values settled at that instant and writes later ones. Per
//! lane, every net's sequence of transitions therefore equals what the
//! scalar engine applies when stepping that lane's stimulus stream, and
//! outcomes are bit-identical — `tests/sim_equivalence.rs` and this
//! crate's `tests/timed_proptests.rs` pin this differentially.

use crate::packed::{lane_mask, PackedEvaluator, LANES};
use crate::timed::{clock_ticks, quantize_delays, ticks_to_ps};
use crate::StepOutcome;
use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{Netlist, NetlistError, Schedule};
use aix_sta::NetDelays;
use std::sync::Arc;

/// One waveform entry: a net's lane word from instant `(tick, pass)` on.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tick: u64,
    word: u64,
    pass: u32,
}

impl Entry {
    fn instant(&self) -> (u64, u32) {
        (self.tick, self.pass)
    }
}

/// How the lanes of a [`PackedTimedSimulator`] are being fed. The two
/// modes imply different lane-state chaining and must not be mixed on one
/// simulator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One logical stimulus stream chunked 64 vectors at a time
    /// ([`PackedTimedSimulator::step_stream_batch`]): lane *l* starts from
    /// the settled state of vector *l − 1*.
    StreamBatch,
    /// 64 persistent independent streams
    /// ([`PackedTimedSimulator::step_streams`]): lane *l* carries its own
    /// settled state across calls.
    Streams,
}

/// Per-lane results of one packed timed step: the sampled and settled
/// output words plus the lanes that erred. Per-lane settle instants and
/// transition totals come from
/// [`PackedTimedSimulator::lane_outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackedStepOutcome {
    lanes: usize,
    /// Output lane words captured at the sampling instant, port order.
    sampled_words: Vec<u64>,
    /// Output lane words after all events settled, port order.
    settled_words: Vec<u64>,
    /// Mask of lanes whose sampled word differs from their settled word.
    error_lanes: u64,
}

impl PackedStepOutcome {
    /// Number of active lanes in this step.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Output lane words at the sampling instant, in port order. A
    /// transition arriving exactly at the clock edge is *not* latched —
    /// the same edge-exclusive semantics as the scalar engine.
    pub fn sampled_words(&self) -> &[u64] {
        &self.sampled_words
    }

    /// Output lane words after the circuit settled, in port order.
    pub fn settled_words(&self) -> &[u64] {
        &self.settled_words
    }

    /// Mask of lanes that latched at least one wrong output bit.
    pub fn error_lanes(&self) -> u64 {
        self.error_lanes
    }

    /// Whether lane `lane` suffered a timing error this step.
    pub fn timing_error(&self, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        (self.error_lanes >> lane) & 1 == 1
    }
}

/// Lane-parallel timed simulator with per-net transport delays on the
/// femtosecond tick grid.
///
/// Feed it either one logical stream in 64-vector chunks
/// ([`step_stream_batch`](Self::step_stream_batch) — what timed activity
/// extraction uses) or 64 persistent independent streams
/// ([`step_streams`](Self::step_streams) — what the DCT pipeline's block
/// batching uses). The first call picks the mode; mixing modes on one
/// instance panics.
#[derive(Debug)]
pub struct PackedTimedSimulator<'nl> {
    netlist: &'nl Netlist,
    /// The netlist's shared levelized schedule.
    schedule: Arc<Schedule>,
    /// Per-gate function, flattened for cache-friendly dispatch.
    functions: Vec<CellFunction>,
    /// Flattened gate connectivity: gate *g* reads the nets
    /// `gate_inputs[input_offsets[g]..input_offsets[g + 1]]` and drives
    /// `gate_outputs[output_offsets[g]..output_offsets[g + 1]]`.
    gate_inputs: Vec<u32>,
    input_offsets: Vec<u32>,
    gate_outputs: Vec<u32>,
    output_offsets: Vec<u32>,
    /// Per-net transport delay in ticks.
    delays_ticks: Vec<u64>,
    /// Primary-output nets, in port order.
    output_nets: Vec<u32>,
    /// Lane word of every net before the latest step.
    initial: Vec<u64>,
    /// Current lane word of every net (settled after a completed step).
    values: Vec<u64>,
    /// Lane words the primary inputs switch to at `t = 0`, input order.
    input_words: Vec<u64>,
    /// The latest step's waveforms in one flat arena: net *n* owns
    /// `arena[spans[n].0..spans[n].1]`, in instant order.
    arena: Vec<Entry>,
    spans: Vec<(u32, u32)>,
    /// Scratch: output entries of the gate being propagated, per pin.
    pin_entries: [Vec<Entry>; MAX_OUTPUTS],
    /// Functional reference for stream initialization.
    golden: PackedEvaluator<'nl>,
    /// Last-lane settled bit per net from the previous batch (stream-batch
    /// mode): lane 0 of the next batch starts from this state.
    prev_bits: Vec<u64>,
    mode: Option<Mode>,
    /// Lane count pinned by the first `step_streams` call.
    stream_lanes: usize,
    started: bool,
    /// Cumulative per-net transition counts across all lanes.
    transition_counts: Vec<u64>,
    /// Waveform entries built since construction or the last reset.
    entries_built: u64,
    /// Sampling instant and lane count of the latest step.
    clock_ticks: u64,
    lanes: usize,
}

impl<'nl> PackedTimedSimulator<'nl> {
    /// Prepares a packed timed simulator; delays are validated and
    /// quantized exactly like [`crate::TimedSimulator::new`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists and
    /// [`NetlistError::InvalidDelay`] for NaN/negative/non-finite delays.
    pub fn new(netlist: &'nl Netlist, delays: &NetDelays) -> Result<Self, NetlistError> {
        let delays_ticks = quantize_delays(delays)?;
        let golden = PackedEvaluator::new(netlist)?;
        let schedule = netlist.schedule()?;
        let functions: Vec<CellFunction> = netlist
            .gates()
            .map(|(_, g)| netlist.library().cell(g.cell).function)
            .collect();
        let mut gate_inputs = Vec::new();
        let mut input_offsets = Vec::with_capacity(netlist.gate_count() + 1);
        let mut gate_outputs = Vec::new();
        let mut output_offsets = Vec::with_capacity(netlist.gate_count() + 1);
        input_offsets.push(0);
        output_offsets.push(0);
        for (_, g) in netlist.gates() {
            gate_inputs.extend(g.inputs.iter().map(|n| n.raw()));
            input_offsets.push(gate_inputs.len() as u32);
            gate_outputs.extend(g.outputs.iter().map(|n| n.raw()));
            output_offsets.push(gate_outputs.len() as u32);
        }
        let nets = netlist.net_count();
        Ok(Self {
            netlist,
            schedule,
            functions,
            gate_inputs,
            input_offsets,
            gate_outputs,
            output_offsets,
            delays_ticks,
            output_nets: netlist.outputs().iter().map(|(_, n)| n.raw()).collect(),
            initial: vec![0; nets],
            values: vec![0; nets],
            input_words: vec![0; netlist.inputs().len()],
            arena: Vec::new(),
            spans: vec![(0, 0); nets],
            pin_entries: Default::default(),
            golden,
            prev_bits: vec![0; nets],
            mode: None,
            stream_lanes: 0,
            started: false,
            transition_counts: vec![0; nets],
            entries_built: 0,
            clock_ticks: 0,
            lanes: 0,
        })
    }

    /// Number of primary inputs expected per stimulus vector.
    pub fn input_count(&self) -> usize {
        self.netlist.inputs().len()
    }

    /// Cumulative per-net transition counts summed over all lanes —
    /// indexed by net id, glitches included, the packed twin of
    /// [`crate::TimedSimulator::transition_counts`].
    pub fn transition_counts(&self) -> &[u64] {
        &self.transition_counts
    }

    /// Waveform entries built since construction or the last
    /// [`reset`](Self::reset): one entry is one net changing in at least
    /// one lane at one instant.
    pub fn waveform_entries(&self) -> u64 {
        self.entries_built
    }

    /// Current lane word of every net (settled after a completed step).
    pub fn net_words(&self) -> &[u64] {
        &self.values
    }

    /// Simulates the next chunk of one logical stimulus stream: vector *l*
    /// of `batch` lands in lane *l*, and lane *l* starts from the settled
    /// state of the stream's previous vector (lane *l − 1*, or the last
    /// lane of the previous batch). Per lane this is bit-identical to
    /// stepping a scalar [`crate::TimedSimulator`] through the same stream
    /// — including the scalar engine's untimed first step.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidClock`] for a NaN or negative
    /// `clock_ps`; propagates width mismatches.
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized batch, or if this simulator already
    /// ran in [`step_streams`](Self::step_streams) mode.
    pub fn step_stream_batch(
        &mut self,
        batch: &[Vec<bool>],
        clock_ps: f64,
    ) -> Result<PackedStepOutcome, NetlistError> {
        let clock_ticks = clock_ticks(clock_ps)?;
        assert_ne!(
            self.mode,
            Some(Mode::Streams),
            "one PackedTimedSimulator cannot mix stream-batch and streams modes"
        );
        self.mode = Some(Mode::StreamBatch);
        let lanes = batch.len();
        assert!(
            (1..=LANES).contains(&lanes),
            "batch of {lanes} vectors (expected 1..={LANES})"
        );
        // One functional walk gives the settled state of every lane; the
        // per-lane *previous* state is the settled state one lane earlier.
        self.golden.eval_batch(batch)?;
        let settled = self.golden.net_words();
        for ((settled, prev), old) in settled
            .chunks_exact(1)
            .zip(&mut self.prev_bits)
            .zip(self.initial.chunks_exact_mut(1))
        {
            chain_stream(settled, lanes, self.started, prev, old);
        }
        self.started = true;
        for (word, &net) in self.input_words.iter_mut().zip(self.netlist.inputs()) {
            *word = settled[net.index()];
        }
        Ok(self.propagate(clock_ticks, lanes))
    }

    /// Simulates one clock cycle of up to 64 *independent* streams: lane
    /// *l* keeps its own settled state across calls, so each lane is
    /// bit-identical to a dedicated scalar simulator stepping that lane's
    /// own stimulus sequence. The first call fixes the lane count and, like
    /// the scalar engine, settles functionally without timing.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidClock`] for a NaN or negative
    /// `clock_ps`; propagates width mismatches.
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized batch, a lane count differing from
    /// the first call's, or if this simulator already ran in
    /// [`step_stream_batch`](Self::step_stream_batch) mode.
    pub fn step_streams(
        &mut self,
        batch: &[Vec<bool>],
        clock_ps: f64,
    ) -> Result<PackedStepOutcome, NetlistError> {
        let clock_ticks = clock_ticks(clock_ps)?;
        assert_ne!(
            self.mode,
            Some(Mode::StreamBatch),
            "one PackedTimedSimulator cannot mix stream-batch and streams modes"
        );
        self.mode = Some(Mode::Streams);
        let lanes = batch.len();
        assert!(
            (1..=LANES).contains(&lanes),
            "batch of {lanes} vectors (expected 1..={LANES})"
        );
        if !self.started {
            self.golden.eval_batch(batch)?;
            self.values.copy_from_slice(self.golden.net_words());
            self.initial.copy_from_slice(&self.values);
            self.stream_lanes = lanes;
            self.lanes = lanes;
            self.started = true;
            let settled = self.output_words(|net| self.values[net]);
            return Ok(PackedStepOutcome {
                lanes,
                sampled_words: settled.clone(),
                settled_words: settled,
                error_lanes: 0,
            });
        }
        assert_eq!(
            lanes, self.stream_lanes,
            "streams mode pins the lane count at the first call"
        );
        let expected = self.input_count();
        for vector in batch {
            if vector.len() != expected {
                return Err(NetlistError::InputWidthMismatch {
                    expected,
                    provided: vector.len(),
                });
            }
        }
        for (pos, word) in self.input_words.iter_mut().enumerate() {
            *word = batch
                .iter()
                .enumerate()
                .fold(0, |w, (lane, vector)| w | (u64::from(vector[pos]) << lane));
        }
        self.initial.copy_from_slice(&self.values);
        Ok(self.propagate(clock_ticks, lanes))
    }

    /// Resets to the uninitialized state (either mode may follow),
    /// clearing transition counters and the waveform-entry count.
    pub fn reset(&mut self) {
        self.arena.clear();
        self.spans.fill((0, 0));
        self.mode = None;
        self.started = false;
        self.stream_lanes = 0;
        self.lanes = 0;
        self.entries_built = 0;
        self.transition_counts.fill(0);
    }

    /// The scalar [`StepOutcome`] lane `lane` produced in the latest step —
    /// bit-identical to stepping a [`crate::TimedSimulator`] through the
    /// same stimulus stream. Derived from the retained waveforms, so it is
    /// valid until the next step.
    ///
    /// # Panics
    ///
    /// Panics if `lane` was not active in the latest step.
    pub fn lane_outcome(&self, lane: usize) -> StepOutcome {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let bit = 1u64 << lane;
        let pick = |words: Vec<u64>| -> Vec<bool> { words.iter().map(|w| w & bit != 0).collect() };
        let sampled = pick(self.output_words(|net| self.sampled_word(net)));
        let settled = pick(self.output_words(|net| self.values[net]));
        let mut settle_ticks = 0u64;
        let mut transitions = 0u64;
        for (net, &(start, end)) in self.spans.iter().enumerate() {
            let mut prev = self.initial[net];
            for entry in &self.arena[start as usize..end as usize] {
                if (entry.word ^ prev) & bit != 0 {
                    transitions += 1;
                    settle_ticks = settle_ticks.max(entry.tick);
                }
                prev = entry.word;
            }
        }
        StepOutcome {
            timing_error: sampled != settled,
            sampled,
            settled,
            settle_ps: ticks_to_ps(settle_ticks),
            transitions,
        }
    }

    /// Builds every net's waveform for one step from `initial` and
    /// `input_words`, then samples the outputs at `clock_ticks` with the
    /// same edge-exclusive rule as the scalar engine.
    fn propagate(&mut self, clock_ticks: u64, lanes: usize) -> PackedStepOutcome {
        let mask = lane_mask(lanes);
        self.clock_ticks = clock_ticks;
        self.lanes = lanes;
        self.arena.clear();
        // Input transitions at t = 0 (per-lane suppressed against the
        // previous state).
        for (&net, &word) in self.netlist.inputs().iter().zip(&self.input_words) {
            let net = net.index();
            let start = self.arena_len();
            let changed = (self.initial[net] ^ word) & mask;
            if changed != 0 {
                self.arena.push(Entry {
                    tick: 0,
                    word: self.initial[net] ^ changed,
                    pass: 0,
                });
                self.transition_counts[net] += u64::from(changed.count_ones());
            }
            self.spans[net] = (start, self.arena_len());
        }
        let schedule = Arc::clone(&self.schedule);
        for &gate in schedule.order() {
            self.propagate_gate(gate as usize, mask);
        }
        self.entries_built += self.arena.len() as u64;
        for (net, &(start, end)) in self.spans.iter().enumerate() {
            self.values[net] = if start < end {
                self.arena[end as usize - 1].word
            } else {
                self.initial[net]
            };
        }
        let sampled = self.output_words(|net| self.sampled_word(net));
        let settled = self.output_words(|net| self.values[net]);
        let error_lanes = sampled
            .iter()
            .zip(&settled)
            .fold(0, |lanes, (&s, &g)| lanes | ((s ^ g) & mask));
        PackedStepOutcome {
            lanes,
            sampled_words: sampled,
            settled_words: settled,
            error_lanes,
        }
    }

    /// Builds the output waveforms of `gate` by merging the instants of its
    /// input waveforms and evaluating all lanes at each. Lanes whose
    /// inputs did not change recompute their latest output word and are
    /// suppressed, so evaluating at the union of instants is exact.
    fn propagate_gate(&mut self, gate: usize, mask: u64) {
        let inputs = &self.gate_inputs
            [self.input_offsets[gate] as usize..self.input_offsets[gate + 1] as usize];
        let outputs = &self.gate_outputs
            [self.output_offsets[gate] as usize..self.output_offsets[gate + 1] as usize];
        let mut heads = [0usize; MAX_INPUTS];
        let mut ends = [0usize; MAX_INPUTS];
        let mut in_words = [0u64; MAX_INPUTS];
        let mut active = false;
        for (k, &net) in inputs.iter().enumerate() {
            let (start, end) = self.spans[net as usize];
            heads[k] = start as usize;
            ends[k] = end as usize;
            in_words[k] = self.initial[net as usize];
            active |= start < end;
        }
        if active {
            let function = self.functions[gate];
            let mut latest = [0u64; MAX_OUTPUTS];
            for (slot, &net) in latest.iter_mut().zip(outputs) {
                *slot = self.initial[net as usize];
            }
            let n = inputs.len();
            loop {
                let mut next: Option<(u64, u32)> = None;
                for k in 0..n {
                    if heads[k] < ends[k] {
                        let at = self.arena[heads[k]].instant();
                        if next.is_none_or(|best| at < best) {
                            next = Some(at);
                        }
                    }
                }
                let Some((tick, pass)) = next else { break };
                // Several entries of one net at one instant are a
                // zero-width glitch: the gate sees only the last word.
                for k in 0..n {
                    while heads[k] < ends[k] && self.arena[heads[k]].instant() == (tick, pass) {
                        in_words[k] = self.arena[heads[k]].word;
                        heads[k] += 1;
                    }
                }
                let mut out_words = [0u64; MAX_OUTPUTS];
                function.eval_words(&in_words[..n], &mut out_words);
                for (pin, &net) in outputs.iter().enumerate() {
                    let changed = (latest[pin] ^ out_words[pin]) & mask;
                    if changed == 0 {
                        continue;
                    }
                    latest[pin] ^= changed;
                    let at = tick.saturating_add(self.delays_ticks[net as usize]);
                    self.pin_entries[pin].push(Entry {
                        tick: at,
                        word: latest[pin],
                        pass: if at == tick { pass + 1 } else { 0 },
                    });
                    self.transition_counts[net as usize] += u64::from(changed.count_ones());
                }
            }
        }
        for (pin, &net) in outputs.iter().enumerate() {
            let start = self.arena_len();
            self.arena.append(&mut self.pin_entries[pin]);
            self.spans[net as usize] = (start, self.arena_len());
        }
    }

    /// The arena's length as a waveform offset.
    fn arena_len(&self) -> u32 {
        u32::try_from(self.arena.len()).expect("waveform arena outgrew u32 offsets")
    }

    /// Lane word of `net` at the sampling instant of the latest step: its
    /// last entry strictly before the clock edge.
    fn sampled_word(&self, net: usize) -> u64 {
        let (start, end) = self.spans[net];
        self.arena[start as usize..end as usize]
            .iter()
            .rev()
            .find(|entry| entry.tick < self.clock_ticks)
            .map_or(self.initial[net], |entry| entry.word)
    }

    fn output_words(&self, word_of: impl Fn(usize) -> u64) -> Vec<u64> {
        self.output_nets
            .iter()
            .map(|&net| word_of(net as usize))
            .collect()
    }
}

/// Chains one stimulus stream across blocks, for one net: given the
/// net's settled row of this block's `vectors` vectors (⌈`vectors` / 64⌉
/// lane words, vector *v* in lane *v* mod 64 of word *v* / 64), writes
/// the row its vectors start from into `old` — vector *v* from vector
/// *v − 1*'s settled state, so old word *k* is `(settled_k << 1) | carry`
/// with the carry the last lane of word *k − 1*, or of the previous
/// block — and carries this block's last valid lane in `prev`. The
/// stream's very first vector (while `started` is unset) starts from its
/// own settled state: zero input transitions, the scalar engine's
/// untimed first step.
pub(crate) fn chain_stream(
    settled: &[u64],
    vectors: usize,
    started: bool,
    prev: &mut u64,
    old: &mut [u64],
) {
    let mut carry = if started { *prev } else { settled[0] & 1 };
    for (old, &word) in old.iter_mut().zip(settled) {
        *old = (word << 1) | carry;
        carry = word >> (LANES - 1);
    }
    *prev = (settled[settled.len() - 1] >> ((vectors - 1) % LANES)) & 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperandSource;
    use crate::{TimedSimulator, UniformOperands};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_sta::{analyze, NetDelays};

    fn adder(kind: AdderKind, width: usize) -> Netlist {
        let lib = std::sync::Arc::new(Library::nangate45_like());
        build_adder(&lib, kind, ComponentSpec::full(width)).unwrap()
    }

    fn assert_stream_matches_scalar(
        nl: &Netlist,
        delays: &NetDelays,
        clock_ps: f64,
        vectors: Vec<Vec<bool>>,
    ) {
        let mut scalar = TimedSimulator::new(nl, delays).unwrap();
        let mut packed = PackedTimedSimulator::new(nl, delays).unwrap();
        let mut scalar_outcomes = Vec::new();
        for v in &vectors {
            scalar_outcomes.push(scalar.step(v, clock_ps).unwrap());
        }
        let mut lane = 0;
        for chunk in vectors.chunks(LANES) {
            packed.step_stream_batch(chunk, clock_ps).unwrap();
            for l in 0..chunk.len() {
                assert_eq!(
                    packed.lane_outcome(l),
                    scalar_outcomes[lane],
                    "vector {lane} diverged"
                );
                lane += 1;
            }
        }
        assert_eq!(
            packed.transition_counts(),
            scalar.transition_counts(),
            "per-net transition totals diverged"
        );
    }

    #[test]
    fn stream_batches_match_scalar_fresh() {
        let nl = adder(AdderKind::RippleCarry, 8);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.4;
        let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 11).vectors(200).collect();
        assert_stream_matches_scalar(&nl, &delays, clock, vectors);
    }

    #[test]
    fn stream_batches_match_scalar_aged() {
        use aix_aging::{AgingModel, AgingScenario, Lifetime};
        let nl = adder(AdderKind::KoggeStone, 16);
        let fresh = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &fresh).unwrap().max_delay_ps();
        let aged = NetDelays::aged(
            &nl,
            &AgingModel::calibrated(),
            AgingScenario::worst_case(Lifetime::from_years(20.0)),
        );
        let vectors: Vec<Vec<bool>> = UniformOperands::new(16, 13).vectors(320).collect();
        assert_stream_matches_scalar(&nl, &aged, clock, vectors);
    }

    #[test]
    fn lane_tail_counts_match_scalar() {
        let nl = adder(AdderKind::CarrySelect, 8);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.3;
        for count in [1usize, 63, 64, 65] {
            let vectors: Vec<Vec<bool>> = UniformOperands::new(8, count as u64)
                .vectors(count)
                .collect();
            assert_stream_matches_scalar(&nl, &delays, clock, vectors);
        }
    }

    #[test]
    fn streams_mode_matches_per_lane_scalars() {
        // Three independent streams, one scalar simulator each.
        let nl = adder(AdderKind::RippleCarry, 4);
        let delays = NetDelays::fresh(&nl);
        let clock = analyze(&nl, &delays).unwrap().max_delay_ps() * 0.5;
        let streams: Vec<Vec<Vec<bool>>> = (0..3u64)
            .map(|s| UniformOperands::new(4, 100 + s).vectors(40).collect())
            .collect();
        let mut scalars: Vec<TimedSimulator> = (0..3)
            .map(|_| TimedSimulator::new(&nl, &delays).unwrap())
            .collect();
        let mut packed = PackedTimedSimulator::new(&nl, &delays).unwrap();
        for step in 0..40 {
            let batch: Vec<Vec<bool>> = streams.iter().map(|s| s[step].clone()).collect();
            packed.step_streams(&batch, clock).unwrap();
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let expect = scalar.step(&streams[lane][step], clock).unwrap();
                assert_eq!(packed.lane_outcome(lane), expect, "step {step} lane {lane}");
            }
        }
    }

    #[test]
    fn mode_mixing_panics() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let delays = NetDelays::fresh(&nl);
        let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
        let batch: Vec<Vec<bool>> = UniformOperands::new(4, 1).vectors(2).collect();
        sim.step_streams(&batch, 100.0).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sim.step_stream_batch(&batch, 100.0);
        }));
        assert!(result.is_err(), "mixing modes must panic");
    }

    #[test]
    fn invalid_delays_rejected_like_scalar() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let mut raw = NetDelays::fresh(&nl).as_slice().to_vec();
        raw[2] = f64::NAN;
        assert!(matches!(
            PackedTimedSimulator::new(&nl, &NetDelays::from_raw(raw)),
            Err(NetlistError::InvalidDelay { .. })
        ));
    }

    #[test]
    fn reset_allows_mode_switch() {
        let nl = adder(AdderKind::RippleCarry, 4);
        let delays = NetDelays::fresh(&nl);
        let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
        let batch: Vec<Vec<bool>> = UniformOperands::new(4, 2).vectors(3).collect();
        sim.step_streams(&batch, 100.0).unwrap();
        sim.reset();
        assert!(sim.transition_counts().iter().all(|&c| c == 0));
        assert_eq!(sim.waveform_entries(), 0);
        sim.step_stream_batch(&batch, 100.0).unwrap();
    }
}
