//! Demand-driven sampling for error measurement: a straight-line program
//! that computes the output words latched at the clock edge without
//! building any waveform.
//!
//! Write `S_n(τ)` for net *n*'s lane word just before tick τ, i.e. after
//! every event at ticks `< τ` (passes included). The sampled outputs are
//! `S_o(T)` at the clock tick T. Propagation uses transport delay and one
//! delay `d` per net, so a gate output obeys
//! `S_n(τ) = f(S_i(τ − d), …)` (with `S_i(x) = old` for `x ≤ 0`):
//! an evaluation at tick *t* lands at `t + d` and the last one at a tick
//! `< τ − d` sees every input entry before `τ − d`. Zero-delay nets are the
//! same rule with `d = 0`: their same-tick passes all land before τ.
//!
//! Three tick-level passes compile the program:
//! 1. forward: each net's change window `[lo, hi]` — the least and
//!    greatest tick at which an entry can exist;
//! 2. backward: the instants `[q_min, q_max]` at which the sampling can
//!    query each net, clipped to the part its window can answer;
//! 3. forward: each net's possible arrival ticks, kept only inside
//!    `[pred(q_min), q_max)` in one flat arena.
//!
//! Then an explicit-stack walk from every output at T emits one op per
//! (net, canonical instant): a query τ ≤ lo reads the net's old word, τ > hi
//! its settled word, and any other τ becomes (the largest possible arrival
//! tick below τ) + 1, since no entry lands in between. Canonical instants
//! make equal queries share one op. Per block of up to 1 024 vectors the
//! settled rows come from one zero-delay walk and the old rows from
//! chaining the stream, so the program's cost is the number of live
//! (net, instant) pairs rather than the number of waveform entries. Each
//! op runs [`CellFunction::eval_rows`] over rows of one word per 64
//! vectors, and at compile time an op's row goes back to a free list
//! after its last reader, so the store holds only the live frontier.
//!
//! [`TimedStreams`] runs the same program in per-lane mode: up to 64
//! independent streams, one batch of width 1 per step, where each lane's
//! old word is its own settled word from the previous step rather than
//! the previous vector's.

use crate::packed::{lane_mask, PackedEvaluator, LANES};
use crate::timed::{clock_ticks, quantize_delays};
use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{GateId, NetDriver, NetId, Netlist, NetlistError};
use aix_obs::SpanGuard;
use aix_sta::NetDelays;

/// Timed simulation of up to 64 independent stimulus streams at one
/// clock, one per lane. Lane *l* starts every [`step`](Self::step) from
/// its own settled state of the previous step, so it equals a dedicated
/// scalar [`TimedSimulator`](crate::TimedSimulator) stepping that lane's
/// stream; like the scalar engine, the first step settles without
/// timing. A step is one zero-delay [`PackedEvaluator`] walk (the settled
/// words) plus one run of the sampling program compiled by
/// [`new`](Self::new) (the sampled words).
#[derive(Debug)]
pub struct TimedStreams<'nl> {
    golden: PackedEvaluator<'nl>,
    program: TimedProgram,
    /// Lane count pinned by the first step; 0 before it.
    lanes: usize,
    /// Output words sampled at the clock edge in the latest step.
    sampled: Vec<u64>,
}

impl<'nl> TimedStreams<'nl> {
    /// Compiles the sampling program of `netlist` under `delays`, clocked
    /// at `clock_ps`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidClock`] for a NaN or negative
    /// `clock_ps` (`+∞` never samples),
    /// [`NetlistError::CombinationalCycle`] for cyclic netlists and
    /// [`NetlistError::InvalidDelay`] for the delays
    /// [`TimedSimulator::new`](crate::TimedSimulator::new) rejects.
    pub fn new(
        netlist: &'nl Netlist,
        delays: &NetDelays,
        clock_ps: f64,
    ) -> Result<Self, NetlistError> {
        let (program, _span) =
            TimedProgram::compile_traced(netlist, delays, clock_ticks(clock_ps)?, "gate_level")?;
        Ok(Self {
            golden: PackedEvaluator::new(netlist)?,
            program,
            lanes: 0,
            sampled: Vec::new(),
        })
    }

    /// Applies the next vector of every stream, `batch[l]` to lane *l*,
    /// and returns the mask of lanes that latched at least one wrong
    /// output bit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if a vector does not
    /// match the number of primary inputs.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, a batch of more than [`LANES`] vectors,
    /// or a lane count that differs from the first step's.
    pub fn step(&mut self, batch: &[Vec<bool>]) -> Result<u64, NetlistError> {
        self.golden.eval_batch(batch)?;
        if self.lanes == 0 {
            self.lanes = batch.len();
        }
        assert_eq!(
            batch.len(),
            self.lanes,
            "the first step pins the lane count"
        );
        self.program.run_lanes(self.golden.net_words());
        self.sampled.clear();
        self.sampled.extend(self.program.sampled_words(0));
        let mask = lane_mask(self.lanes);
        Ok(self
            .sampled
            .iter()
            .zip(self.settled_words())
            .fold(0, |lanes, (&sampled, &settled)| {
                lanes | ((sampled ^ settled) & mask)
            }))
    }

    /// Output lane words latched at the clock edge in the latest step, in
    /// port order; empty before the first step. A transition arriving
    /// exactly at the edge is not latched.
    pub fn sampled_words(&self) -> &[u64] {
        &self.sampled
    }

    /// Output lane words after the latest step settled, in port order;
    /// empty before the first step.
    pub fn settled_words(&self) -> &[u64] {
        self.golden.output_words()
    }
}

/// An operand of the walk: a net's old or settled word, or an op result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Value(u32);

/// An operand of the compiled program: a row of its store.
#[derive(Debug, Clone, Copy)]
struct Row(u32);

/// The result of every output pin an op does not keep. Its row is row 0,
/// the dump row, which no op reads.
const DUMP: Value = Value(0);

/// One gate evaluation at one canonical instant. The walk emits ops on
/// [`Value`]s; `compile` gives every value a [`Row`] and then maps each op
/// onto rows.
#[derive(Debug, Clone, Copy)]
struct Op<T> {
    function: CellFunction,
    /// Input operands in pin order; slots past the arity are unused.
    inputs: [T; MAX_INPUTS],
    /// Output operands in pin order: the kept pin's result, and [`DUMP`]
    /// for every other pin.
    outputs: [T; MAX_OUTPUTS],
}

/// The compiled sampling program of one (netlist, delays, clock), plus
/// the state that carries its streams from one run to the next: one
/// stimulus stream chained across blocks ([`run`](Self::run)), or up to
/// 64 independent streams, one per lane ([`run_lanes`](Self::run_lanes)).
/// One program serves one of the two modes: the first run picks it, and a
/// run in the other mode panics.
///
/// The store holds rows of `width` lane words, one word per 64 vectors of
/// the block. Each block fills the rows of the nets read at their old or
/// settled word, then runs the ops. A row is handed on to a later op
/// once the last reader of its word has run, so the store holds only
/// the live frontier of the walk. The unused pin of an adder op writes
/// the dump row, which nothing reads.
#[derive(Debug)]
pub(crate) struct TimedProgram {
    /// Nets read at their old word, and their rows.
    old: Vec<(u32, u32)>,
    /// Nets read at their settled word, and their rows.
    settled: Vec<(u32, u32)>,
    /// Ops in dependency order.
    ops: Vec<Op<Row>>,
    /// Row holding each primary output's sampled words, port order.
    outputs: Vec<u32>,
    /// Distinct nets with at least one op.
    live_nets: usize,
    /// Rows of the store.
    rows: usize,
    /// Lane words per row of the latest run.
    width: usize,
    /// Row-major lane words: row `r`'s word `k` is `store[r * width + k]`.
    store: Vec<u64>,
    /// Stream state of the old-read nets: the stream's last settled bit
    /// (see [`chain_stream`]), or in per-lane mode the settled word of
    /// the previous run.
    prev: Vec<u64>,
    /// Mode of the runs so far; `None` before the first.
    mode: Option<Mode>,
}

/// The two ways a [`TimedProgram`] carries its streams between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One stimulus stream, chained across the lanes and blocks.
    Stream,
    /// Up to 64 independent streams, one per lane.
    Lanes,
}

impl TimedProgram {
    /// Compiles the sampling program for the clock tick `clock_ticks`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists and
    /// [`NetlistError::InvalidDelay`] for unusable delay annotations.
    pub(crate) fn compile(
        netlist: &Netlist,
        delays: &NetDelays,
        clock_ticks: u64,
    ) -> Result<Self, NetlistError> {
        let facts = Facts::derive(netlist, quantize_delays(delays)?, clock_ticks)?;
        let mut walk = Walk {
            facts: &facts,
            memo: vec![NONE; facts.arrivals.len()],
            ops: Vec::new(),
            rows: vec![0],
            old: Vec::new(),
            settled: Vec::new(),
            leaf: vec![[NONE; 2]; netlist.net_count()],
            live: vec![false; netlist.net_count()],
        };
        let outputs: Vec<u32> = netlist
            .outputs()
            .iter()
            .map(|(_, net)| walk.sample(net.raw(), clock_ticks))
            .collect();
        let Walk {
            ops,
            rows: mut row_of,
            old,
            settled,
            leaf,
            live,
            ..
        } = walk;
        // Rows, found backwards: a value takes a free row at its last
        // reader and gives it back at the op that computes it, so an op
        // may write the row of an input it reads last. The dump row and
        // the outputs' rows are never given back.
        let mut free = Vec::new();
        let mut rows = 1;
        let mut take_row = |free: &mut Vec<u32>| {
            free.pop().unwrap_or_else(|| {
                rows += 1;
                rows - 1
            })
        };
        for &output in &outputs {
            if row_of[output as usize] == NONE {
                row_of[output as usize] = take_row(&mut free);
            }
        }
        for op in ops.iter().rev() {
            for Value(value) in op.outputs.into_iter().filter(|&value| value != DUMP) {
                let row = row_of[value as usize];
                debug_assert_ne!(row, NONE, "the walk emits only ops that are read");
                free.push(row);
            }
            for &Value(value) in &op.inputs[..op.function.input_count()] {
                let row = &mut row_of[value as usize];
                if *row == NONE {
                    *row = take_row(&mut free);
                }
            }
        }
        // Every value now keeps its row, so each op maps onto rows (in
        // place: both kinds of op have one size).
        let row = |Value(value): Value| Row(row_of[value as usize]);
        let ops = ops
            .into_iter()
            .map(|op| Op {
                function: op.function,
                inputs: op.inputs.map(row),
                outputs: op.outputs.map(row),
            })
            .collect();
        let leaf_rows = |nets: Vec<u32>, kind: usize| {
            nets.into_iter()
                .map(|net| (net, row_of[leaf[net as usize][kind] as usize]))
                .collect::<Vec<_>>()
        };
        Ok(Self {
            live_nets: live.iter().filter(|&&l| l).count(),
            rows: rows as usize,
            width: 0,
            store: Vec::new(),
            prev: vec![0; old.len()],
            outputs: outputs
                .iter()
                .map(|&output| row_of[output as usize])
                .collect(),
            old: leaf_rows(old, 0),
            settled: leaf_rows(settled, 1),
            ops,
            mode: None,
        })
    }

    /// [`compile`](Self::compile) inside a
    /// [`SPAN_TIMED_PACKED`](aix_obs::names::sim::SPAN_TIMED_PACKED) span
    /// for `consumer`, which records the program's live nets, live pairs
    /// and rows. The span stays open while the caller holds its guard.
    ///
    /// # Errors
    ///
    /// As [`compile`](Self::compile).
    pub(crate) fn compile_traced(
        netlist: &Netlist,
        delays: &NetDelays,
        clock_ticks: u64,
        consumer: &'static str,
    ) -> Result<(Self, SpanGuard), NetlistError> {
        let mut span = aix_obs::span!(
            aix_obs::names::sim::SPAN_TIMED_PACKED,
            consumer = consumer,
            nets = netlist.net_count()
        );
        let program = Self::compile(netlist, delays, clock_ticks)?;
        span.record("live_nets", program.live_nets());
        span.record("live_pairs", program.live_pairs());
        span.record("rows", program.rows());
        Ok((program, span))
    }

    /// Number of ops: the live (net, canonical instant) pairs.
    pub(crate) fn live_pairs(&self) -> usize {
        self.ops.len()
    }

    /// Number of distinct nets with at least one op.
    pub(crate) fn live_nets(&self) -> usize {
        self.live_nets
    }

    /// Number of rows in the store after recycling, the dump row included.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Runs the program on the next `vectors` vectors of the stream, given
    /// every net's settled row of ⌈`vectors` / 64⌉ words (net `n`'s word
    /// `k` at `settled[n * width + k]`): vector *v* starts from the
    /// settled state of vector *v − 1* (the first vector of the stream
    /// from its own, the scalar engine's untimed first step). Read the
    /// outputs sampled at the clock edge with
    /// [`sampled_words`](Self::sampled_words).
    ///
    /// # Panics
    ///
    /// Panics if an earlier run was in per-lane mode.
    pub(crate) fn run(&mut self, settled: &[u64], vectors: usize) {
        self.run_from(
            settled,
            vectors.div_ceil(LANES),
            Mode::Stream,
            |row, prev, old, started| {
                chain_stream(row, vectors, started, prev, old);
            },
        );
    }

    /// Runs the program on one batch of up to 64 independent streams, one
    /// per lane, given every net's settled word (net `n`'s at
    /// `settled[n]`): each lane starts from its own settled state of the
    /// previous run (on the first run from this one's, the scalar
    /// engine's untimed first step). Read the sampled outputs with
    /// `sampled_words(0)`.
    ///
    /// # Panics
    ///
    /// Panics if an earlier run was in stream mode.
    pub(crate) fn run_lanes(&mut self, settled: &[u64]) {
        self.run_from(settled, 1, Mode::Lanes, |row, prev, old, started| {
            old[0] = if started { *prev } else { row[0] };
            *prev = row[0];
        });
    }

    /// The run behind both modes, over rows of `width` words: `start`
    /// writes each old-read net's old row from its settled row, its
    /// stream state and whether an earlier run happened; then the
    /// settled-read nets' rows are copied in and the ops run.
    fn run_from(
        &mut self,
        settled: &[u64],
        width: usize,
        mode: Mode,
        mut start: impl FnMut(&[u64], &mut u64, &mut [u64], bool),
    ) {
        let started = self.mode.is_some();
        assert_eq!(
            *self.mode.get_or_insert(mode),
            mode,
            "one program serves one mode"
        );
        self.width = width;
        self.store.resize(self.rows * width, 0);
        let row = |net: u32| &settled[net as usize * width..][..width];
        for (&(net, at), prev) in self.old.iter().zip(&mut self.prev) {
            let old = &mut self.store[at as usize * width..][..width];
            start(row(net), prev, old, started);
        }
        for &(net, at) in &self.settled {
            self.store[at as usize * width..][..width].copy_from_slice(row(net));
        }
        let offset = |Row(row): Row| row as usize * width;
        for op in &self.ops {
            op.function.eval_rows(
                &mut self.store,
                op.inputs.map(offset),
                op.outputs.map(offset),
                width,
            );
        }
    }

    /// Each output's word sampled at the clock edge for batch `batch`
    /// (vectors `64 × batch ..`) of the latest run, in port order.
    pub(crate) fn sampled_words(&self, batch: usize) -> impl Iterator<Item = u64> + '_ {
        self.outputs
            .iter()
            .map(move |&row| self.store[row as usize * self.width + batch])
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
fn chain_stream(settled: &[u64], vectors: usize, started: bool, prev: &mut u64, old: &mut [u64]) {
    let mut carry = if started { *prev } else { settled[0] & 1 };
    for (old, &word) in old.iter_mut().zip(settled) {
        *old = (word << 1) | carry;
        carry = word >> (LANES - 1);
    }
    *prev = (settled[settled.len() - 1] >> ((vectors - 1) % LANES)) & 1;
}

/// No value or row yet.
const NONE: u32 = u32::MAX;

/// The explicit-stack walk that emits ops, with its memo and leaf tables.
/// A value indexes `rows`: [`DUMP`], then one per net word read at its
/// old or settled word and one per op result.
struct Walk<'f, 'a> {
    facts: &'f Facts<'a>,
    /// Value of each evaluated (net, canonical instant), indexed like
    /// `facts.arrivals` by the arrival the instant follows.
    memo: Vec<u32>,
    /// Ops in dependency order.
    ops: Vec<Op<Value>>,
    /// Row of each value, `NONE` until `compile` assigns one; [`DUMP`]'s
    /// is row 0.
    rows: Vec<u32>,
    /// Nets read at their old word, in order of first read.
    old: Vec<u32>,
    /// Nets read at their settled word, in order of first read.
    settled: Vec<u32>,
    /// Value of each net's old and settled word, once read.
    leaf: Vec<[u32; 2]>,
    /// Nets with at least one op.
    live: Vec<bool>,
}

impl Walk<'_, '_> {
    /// A new value.
    fn push_value(&mut self) -> u32 {
        let value = u32::try_from(self.rows.len())
            .ok()
            .filter(|&value| value != NONE)
            .expect("value index fits u32");
        self.rows.push(NONE);
        value
    }

    /// The value holding `net` just before `tau`, or the arrival index of
    /// the op still missing.
    fn resolve(&mut self, net: u32, tau: u64) -> Result<u32, u32> {
        let kind = match self.facts.query(net, tau) {
            Query::Old => 0,
            Query::Settled => 1,
            Query::After(arrival) => {
                return match self.memo[arrival as usize] {
                    NONE => Err(arrival),
                    value => Ok(value),
                };
            }
        };
        if self.leaf[net as usize][kind] == NONE {
            let list = if kind == 0 {
                &mut self.old
            } else {
                &mut self.settled
            };
            list.push(net);
            self.leaf[net as usize][kind] = self.push_value();
        }
        Ok(self.leaf[net as usize][kind])
    }

    /// Emits every op that `net` sampled just before `tau` depends on,
    /// inputs first, and returns its value. Each stack frame is a
    /// `(net, arrival index)` whose op is missing, with the values of the
    /// inputs resolved so far; a frame resumes at its first unresolved
    /// input once the child op it waited for is emitted.
    fn sample(&mut self, net: u32, tau: u64) -> u32 {
        let arrival = match self.resolve(net, tau) {
            Ok(value) => return value,
            Err(arrival) => arrival,
        };
        let netlist = self.facts.netlist;
        let mut stack = vec![Frame::new(net, arrival)];
        'frames: while let Some(frame) = stack.last_mut() {
            let NetDriver::Gate { gate, pin } = netlist.net(NetId::from_raw(frame.net)).driver
            else {
                unreachable!("only gate-driven nets change after tick 0");
            };
            let gate = netlist.gate(gate);
            // The canonical instant exceeds `lo >= d`, see `Facts::derive`.
            let at = self.facts.arrivals[frame.arrival as usize] + 1;
            let before = at - self.facts.delays[frame.net as usize];
            while let Some(input) = gate.inputs.get(frame.resolved) {
                match self.resolve(input.raw(), before) {
                    Ok(value) => {
                        frame.inputs[frame.resolved] = value;
                        frame.resolved += 1;
                    }
                    Err(child) => {
                        stack.push(Frame::new(input.raw(), child));
                        continue 'frames;
                    }
                }
            }
            let (net, arrival, inputs) = (frame.net, frame.arrival, frame.inputs);
            let value = self.push_value();
            self.ops.push(Op {
                function: netlist.library().cell(gate.cell).function,
                inputs: inputs.map(Value),
                outputs: std::array::from_fn(|at| {
                    if at == usize::from(pin) {
                        Value(value)
                    } else {
                        DUMP
                    }
                }),
            });
            self.memo[arrival as usize] = value;
            self.live[net as usize] = true;
            stack.pop();
        }
        self.memo[arrival as usize]
    }
}

/// A `(net, arrival index)` of the walk whose op is still missing.
struct Frame {
    net: u32,
    arrival: u32,
    /// Inputs resolved so far, and their values.
    resolved: usize,
    inputs: [u32; MAX_INPUTS],
}

impl Frame {
    fn new(net: u32, arrival: u32) -> Self {
        Self {
            net,
            arrival,
            resolved: 0,
            inputs: [0; MAX_INPUTS],
        }
    }
}

/// What reading one net at one instant needs.
enum Query {
    /// The net's old word: it cannot have changed yet.
    Old,
    /// The net's settled word: it cannot change any more.
    Settled,
    /// An evaluation just after the possible arrival tick at this arena
    /// index: the latest one before the queried instant, so the value
    /// there is the value at the query.
    After(u32),
}

/// Per-net timing facts from the three tick-level passes.
struct Facts<'a> {
    netlist: &'a Netlist,
    /// Transport delay of each net, in ticks.
    delays: Vec<u64>,
    /// Change window `[lo, hi]`; `None` for nets that never change.
    window: Vec<Option<(u64, u64)>>,
    /// Possible arrival ticks of net *n* inside its kept range:
    /// `arrivals[spans[n].0..spans[n].1]`, ascending.
    arrivals: Vec<u64>,
    spans: Vec<(u32, u32)>,
}

impl<'a> Facts<'a> {
    fn derive(
        netlist: &'a Netlist,
        delays: Vec<u64>,
        clock_ticks: u64,
    ) -> Result<Self, NetlistError> {
        let schedule = netlist.schedule()?;
        let nets = netlist.net_count();
        let gates = || {
            schedule
                .order()
                .iter()
                .map(|&g| netlist.gate(GateId::from_raw(g)))
        };

        // Pass 1 (forward): change windows.
        let mut window = vec![None; nets];
        for &net in netlist.inputs() {
            window[net.index()] = Some((0, 0));
        }
        for gate in gates() {
            let Some((lo, hi)) = gate
                .inputs
                .iter()
                .filter_map(|net| window[net.index()])
                .reduce(|(a, b), (c, d): (u64, u64)| (a.min(c), b.max(d)))
            else {
                continue;
            };
            for &out in gate.outputs.iter() {
                let d = delays[out.index()];
                window[out.index()] = Some((lo.saturating_add(d), hi.saturating_add(d)));
            }
        }

        // Pass 2 (backward): query ranges, each clipped to the part its
        // net's window answers by evaluation. Queries at or before `lo`
        // read the old word; past `hi` only `hi` itself may still be
        // needed, as the arrival below a reader's query.
        let clip = |range: Option<(u64, u64)>, window: Option<(u64, u64)>| {
            let ((first, last), (lo, hi)) = (range?, window?);
            (last > lo).then(|| {
                let top = hi.saturating_add(1);
                (first.clamp(lo + 1, top), last.min(top))
            })
        };
        let mut queries: Vec<Option<(u64, u64)>> = vec![None; nets];
        for (_, net) in netlist.outputs() {
            widen(&mut queries[net.index()], clock_ticks, clock_ticks);
        }
        for gate in gates().rev() {
            for &out in gate.outputs.iter() {
                let clipped = clip(queries[out.index()], window[out.index()]);
                queries[out.index()] = clipped;
                let Some((first, last)) = clipped else {
                    continue;
                };
                // `first > lo >= d`: a gate output's window starts at
                // least one delay after tick 0.
                let d = delays[out.index()];
                for &input in gate.inputs.iter() {
                    widen(&mut queries[input.index()], first - d, last - d);
                }
            }
        }

        // Pass 3 (forward): possible arrival ticks in `[pred(first), last)`.
        // A reader's kept range never reaches below its inputs' (both come
        // from the same query instants, shifted by the reader's delay), so
        // the kept sets compose.
        let mut facts = Self {
            netlist,
            delays,
            window,
            arrivals: Vec::new(),
            spans: vec![(0, 0); nets],
        };
        for &net in netlist.inputs() {
            if clip(queries[net.index()], facts.window[net.index()]).is_some() {
                facts.keep(net.index(), &[0]);
            }
        }
        let (mut scratch, mut merged) = (Vec::new(), Vec::new());
        for gate in gates() {
            for &out in gate.outputs.iter() {
                let Some((first, last)) = queries[out.index()] else {
                    continue;
                };
                let d = facts.delays[out.index()];
                // Each input's arrivals are ascending; merge the shifted
                // ones in `[first, last)` plus each input's last one below
                // `first`, the greatest of which is `pred(first)`.
                scratch.clear();
                for &input in gate.inputs.iter() {
                    let kept = facts.kept(input.index());
                    let from = kept.partition_point(|&a| a.saturating_add(d) < first);
                    let to = kept.partition_point(|&a| a.saturating_add(d) < last);
                    let shifted = kept[from.saturating_sub(1)..to]
                        .iter()
                        .map(|&a| a.saturating_add(d));
                    merge_dedup(&scratch, shifted, &mut merged);
                    std::mem::swap(&mut scratch, &mut merged);
                }
                let from = scratch.partition_point(|&a| a < first).saturating_sub(1);
                facts.keep(out.index(), &scratch[from..]);
            }
        }
        Ok(facts)
    }

    fn keep(&mut self, net: usize, arrivals: &[u64]) {
        let offset = |len: usize| u32::try_from(len).expect("arrival arena outgrew u32 offsets");
        let start = offset(self.arrivals.len());
        self.arrivals.extend_from_slice(arrivals);
        self.spans[net] = (start, offset(self.arrivals.len()));
    }

    fn kept(&self, net: usize) -> &[u64] {
        let (start, end) = self.spans[net];
        &self.arrivals[start as usize..end as usize]
    }

    /// What reading `net` just before tick `tau` needs.
    fn query(&self, net: u32, tau: u64) -> Query {
        match self.window[net as usize] {
            None => Query::Settled,
            Some((lo, _)) if tau <= lo => Query::Old,
            Some((_, hi)) if tau > hi => Query::Settled,
            Some(_) => {
                // No entry lands between the last possible arrival before
                // `tau` and `tau`, so the value there is the value at τ.
                let kept = self.kept(net as usize);
                let below = kept.partition_point(|&a| a < tau);
                assert!(
                    below > 0,
                    "net {net} queried at {tau} below its kept arrivals"
                );
                Query::After(self.spans[net as usize].0 + below as u32 - 1)
            }
        }
    }
}

/// Writes the ascending union of `a` and `b`, both ascending, to `out`.
fn merge_dedup(a: &[u64], b: impl Iterator<Item = u64>, out: &mut Vec<u64>) {
    out.clear();
    let mut a = a.iter().copied().peekable();
    for x in b {
        while let Some(y) = a.next_if(|&y| y < x) {
            out.push(y);
        }
        a.next_if_eq(&x);
        out.push(x);
    }
    out.extend(a);
}

/// Grows an optional inclusive range to cover `[first, last]`.
fn widen(range: &mut Option<(u64, u64)>, first: u64, last: u64) {
    *range = Some(match *range {
        Some((a, b)) => (a.min(first), b.max(last)),
        None => (first, last),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OperandSource, TimedSimulator, UniformOperands};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;

    fn adder() -> Netlist {
        let lib = std::sync::Arc::new(Library::nangate45_like());
        build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(4)).unwrap()
    }

    #[test]
    #[should_panic(expected = "the first step pins the lane count")]
    fn lane_count_change_panics() {
        // Empty and oversized batches panic in `PackedEvaluator::eval_batch`.
        let nl = adder();
        let mut sim = TimedStreams::new(&nl, &NetDelays::fresh(&nl), 100.0).unwrap();
        let batch: Vec<Vec<bool>> = UniformOperands::new(4, 1).vectors(3).collect();
        sim.step(&batch[..2]).unwrap();
        let _ = sim.step(&batch);
    }

    #[test]
    fn invalid_delays_rejected_like_scalar() {
        let nl = adder();
        let mut raw = NetDelays::fresh(&nl).as_slice().to_vec();
        raw[2] = f64::NAN;
        let delays = NetDelays::from_raw(raw);
        assert!(matches!(
            TimedSimulator::new(&nl, &delays),
            Err(NetlistError::InvalidDelay { .. })
        ));
        assert!(matches!(
            TimedStreams::new(&nl, &delays, 100.0),
            Err(NetlistError::InvalidDelay { .. })
        ));
    }
}
