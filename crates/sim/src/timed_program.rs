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
//! make equal queries share one op. Per batch the old and settled words
//! come from one zero-delay walk, so the program's cost is the number of
//! live (net, instant) pairs rather than the number of waveform entries.

use crate::timed::quantize_delays;
use crate::timed_packed::chain_stream;
use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{GateId, NetDriver, NetId, Netlist, NetlistError};
use aix_sta::NetDelays;

/// One gate evaluation at one canonical instant, reading earlier slots.
#[derive(Debug, Clone, Copy)]
struct Op {
    function: CellFunction,
    /// The output pin of `function` this op keeps.
    pin: u8,
    arity: u8,
    inputs: [u32; MAX_INPUTS],
}

/// The compiled sampling program of one (netlist, delays, clock), plus
/// the per-batch state that chains one stimulus stream across batches.
///
/// Slots hold lane words: first the nets read at their old word, then
/// the nets read at their settled word, then one slot per op.
#[derive(Debug)]
pub(crate) struct TimedProgram {
    /// Nets read at their old word, in slot order.
    old: Vec<u32>,
    /// Nets read at their settled word, in slot order.
    settled: Vec<u32>,
    /// Ops in dependency order.
    ops: Vec<Op>,
    /// Slot holding each primary output's sampled word, port order.
    outputs: Vec<u32>,
    /// Distinct nets with at least one op.
    live_nets: usize,
    /// Lane words, one per slot.
    slots: Vec<u64>,
    /// Stream state of the old-read nets, see [`chain_stream`].
    prev: Vec<u64>,
    started: bool,
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
            old: Vec::new(),
            settled: Vec::new(),
            leaf: vec![[NONE; 2]; netlist.net_count()],
            live: vec![false; netlist.net_count()],
        };
        let mut outputs: Vec<u32> = netlist
            .outputs()
            .iter()
            .map(|(_, net)| walk.sample(net.raw(), clock_ticks))
            .collect();
        let Walk {
            mut ops,
            old,
            settled,
            live,
            ..
        } = walk;
        // Number the slots: old words, settled words, then op results.
        let leaves = (old.len() + settled.len()) as u32;
        let slot = |operand: u32| match operand & TAG {
            OLD => operand & !TAG,
            SETTLED => old.len() as u32 + (operand & !TAG),
            _ => leaves + operand,
        };
        for op in &mut ops {
            for input in &mut op.inputs[..op.arity as usize] {
                *input = slot(*input);
            }
        }
        for output in &mut outputs {
            *output = slot(*output);
        }
        Ok(Self {
            live_nets: live.iter().filter(|&&l| l).count(),
            slots: vec![0; leaves as usize + ops.len()],
            prev: vec![0; old.len()],
            old,
            settled,
            ops,
            outputs,
            started: false,
        })
    }

    /// Number of ops: the live (net, canonical instant) pairs.
    pub(crate) fn live_pairs(&self) -> usize {
        self.ops.len()
    }

    /// Number of distinct nets with at least one op.
    pub(crate) fn live_nets(&self) -> usize {
        self.live_nets
    }

    /// Runs the program on the next `lanes` vectors of the stream, given
    /// every net's settled lane word: lane *l* starts from the settled
    /// state of lane *l − 1* (the first vector of the stream from its own,
    /// the scalar engine's untimed first step). Returns each output's
    /// word sampled at the clock edge, in port order.
    pub(crate) fn run<'a>(
        &'a mut self,
        settled: &[u64],
        lanes: usize,
    ) -> impl Iterator<Item = u64> + 'a {
        let old = self.old.len();
        chain_stream(
            self.old.iter().map(|&net| settled[net as usize]),
            lanes,
            &mut self.prev,
            &mut self.started,
            &mut self.slots[..old],
        );
        for (word, &net) in self.slots[old..].iter_mut().zip(&self.settled) {
            *word = settled[net as usize];
        }
        let first_op = old + self.settled.len();
        for (k, op) in self.ops.iter().enumerate() {
            let arity = op.arity as usize;
            let mut inputs = [0u64; MAX_INPUTS];
            for (word, &slot) in inputs.iter_mut().zip(&op.inputs[..arity]) {
                *word = self.slots[slot as usize];
            }
            let mut outputs = [0u64; MAX_OUTPUTS];
            op.function.eval_words(&inputs[..arity], &mut outputs);
            self.slots[first_op + k] = outputs[op.pin as usize];
        }
        self.outputs.iter().map(|&slot| self.slots[slot as usize])
    }
}

/// Operand references during the walk: an op index, or a tagged index
/// into the old-read or settled-read net lists.
const TAG: u32 = 0b11 << 30;
const OLD: u32 = 0b01 << 30;
const SETTLED: u32 = 0b10 << 30;
/// No op or leaf yet.
const NONE: u32 = u32::MAX;

/// The explicit-stack walk that emits ops, with its memo and leaf tables.
struct Walk<'f, 'a> {
    facts: &'f Facts<'a>,
    /// Op of each evaluated (net, canonical instant), indexed like
    /// `facts.arrivals` by the arrival the instant follows.
    memo: Vec<u32>,
    ops: Vec<Op>,
    old: Vec<u32>,
    settled: Vec<u32>,
    /// Tagged operand of each net's old and settled word, once read.
    leaf: Vec<[u32; 2]>,
    /// Nets with at least one op.
    live: Vec<bool>,
}

impl Walk<'_, '_> {
    /// The operand holding `net` just before `tau`, or the arrival index of
    /// the op still missing.
    fn resolve(&mut self, net: u32, tau: u64) -> Result<u32, u32> {
        let (kind, list, tag) = match self.facts.query(net, tau) {
            Query::Old => (0, &mut self.old, OLD),
            Query::Settled => (1, &mut self.settled, SETTLED),
            Query::After(arrival) => {
                return match self.memo[arrival as usize] {
                    NONE => Err(arrival),
                    op => Ok(op),
                };
            }
        };
        let leaf = &mut self.leaf[net as usize][kind];
        if *leaf == NONE {
            *leaf = tag | u32::try_from(list.len()).expect("leaf index fits 30 bits");
            list.push(net);
        }
        Ok(*leaf)
    }

    /// Emits every op that `net` sampled just before `tau` depends on,
    /// inputs first, and returns its operand. Each stack frame is a
    /// `(net, arrival index)` whose op is missing; a frame is retried
    /// until all its inputs resolve.
    fn sample(&mut self, net: u32, tau: u64) -> u32 {
        let arrival = match self.resolve(net, tau) {
            Ok(operand) => return operand,
            Err(arrival) => arrival,
        };
        let netlist = self.facts.netlist;
        let mut stack = vec![(net, arrival)];
        'frames: while let Some(&(net, arrival)) = stack.last() {
            let NetDriver::Gate { gate, pin } = netlist.net(NetId::from_raw(net)).driver else {
                unreachable!("only gate-driven nets change after tick 0");
            };
            let gate = netlist.gate(gate);
            // The canonical instant exceeds `lo >= d`, see `Facts::derive`.
            let at = self.facts.arrivals[arrival as usize] + 1;
            let before = at - self.facts.delays[net as usize];
            let mut inputs = [0u32; MAX_INPUTS];
            for (k, input) in gate.inputs.iter().enumerate() {
                match self.resolve(input.raw(), before) {
                    Ok(operand) => inputs[k] = operand,
                    Err(child) => {
                        stack.push((input.raw(), child));
                        continue 'frames;
                    }
                }
            }
            let op = u32::try_from(self.ops.len())
                .ok()
                .filter(|&op| op & TAG == 0)
                .expect("op index fits 30 bits");
            self.ops.push(Op {
                function: netlist.library().cell(gate.cell).function,
                pin,
                arity: gate.inputs.len() as u8,
                inputs,
            });
            self.memo[arrival as usize] = op;
            self.live[net as usize] = true;
            stack.pop();
        }
        self.memo[arrival as usize]
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
