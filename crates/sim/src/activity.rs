//! Switching-activity extraction and conversion to BTI stress factors.

use crate::packed::{lane_mask, PackedEvaluator, LANES};
use aix_aging::{StressFactor, StressPair};
use aix_netlist::{Netlist, NetlistError};
use aix_obs::names::sim as names;

/// Signal statistics collected from functional simulation of a vector
/// stream: per-net signal probability and toggle counts.
///
/// This is the "gate-level simulation for switching activity" step of the
/// paper's Fig. 3(c) — a one-time effort per component that feeds both the
/// actual-case aging analysis and the dynamic-power model.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    ones: Vec<u64>,
    toggles: Vec<u64>,
    vectors: u64,
}

impl Activity {
    /// Builds an activity record from raw statistics (ones per net,
    /// transitions per net, vector count) — used by the scalar references
    /// `oracle::activity` and `oracle::timed_activity`, so it is built only
    /// with them.
    ///
    /// # Panics
    ///
    /// Panics if the two statistics vectors differ in length.
    #[cfg(any(test, feature = "oracle"))]
    pub fn from_parts(ones: Vec<u64>, toggles: Vec<u64>, vectors: u64) -> Self {
        assert_eq!(ones.len(), toggles.len(), "per-net statistics must align");
        Self {
            ones,
            toggles,
            vectors,
        }
    }

    /// Simulates the input vectors drawn from `stimuli` and collects
    /// statistics over every net.
    ///
    /// Runs the bit-parallel [`PackedEvaluator`] over blocks of up to
    /// [`BLOCK_VECTORS`](crate::BLOCK_VECTORS) vectors and counts over
    /// each net's row in one pass: ones are the popcounts of its words,
    /// the last one masked to the block's valid lanes, and toggles the
    /// popcounts of `w_k ^ ((w_k >> 1) | (w_{k+1} << 63))`, with the last
    /// lane of each block carried into the next. Every statistic is an
    /// exact integer count, so the result is bit-identical to the scalar
    /// reference `oracle::activity` of the tests.
    ///
    /// # Errors
    ///
    /// Propagates evaluator errors (cyclic netlist, width mismatch).
    pub fn collect<I>(netlist: &Netlist, stimuli: I) -> Result<Self, NetlistError>
    where
        I: IntoIterator<Item = Vec<bool>>,
    {
        let _collect = aix_obs::span!(names::SPAN_ACTIVITY_COLLECT, nets = netlist.net_count());
        let _packed = aix_obs::span!(
            names::SPAN_PACKED,
            consumer = names::SPAN_ACTIVITY_COLLECT,
            nets = netlist.net_count()
        );
        let mut packed = PackedEvaluator::new(netlist)?;
        let mut ones = vec![0u64; netlist.net_count()];
        let mut toggles = vec![0u64; netlist.net_count()];
        // Last-lane bit of every net from the previous block, for the
        // toggle across the block boundary.
        let mut carry = vec![0u64; netlist.net_count()];
        let mut vectors = 0u64;
        packed.eval_stream(stimuli, |packed| {
            let lanes = packed.vectors();
            let tail = lanes - (packed.width() - 1) * LANES;
            let ones_mask = lane_mask(tail);
            // Adjacent-lane toggles of the last word live at bit positions
            // 0..tail-1 of `w ^ (w >> 1)`.
            let pair_mask = lane_mask(tail - 1);
            let rows = packed.net_words().chunks_exact(packed.width());
            for (((row, ones), toggles), carry) in
                rows.zip(&mut ones).zip(&mut toggles).zip(&mut carry)
            {
                let last = row[row.len() - 1];
                let mut one_count = (last & ones_mask).count_ones();
                let mut toggle_count = ((last ^ (last >> 1)) & pair_mask).count_ones();
                for pair in row.windows(2) {
                    let (word, next) = (pair[0], pair[1]);
                    one_count += word.count_ones();
                    toggle_count += (word ^ ((word >> 1) | (next << (LANES - 1)))).count_ones();
                }
                if vectors > 0 {
                    toggle_count += ((*carry ^ row[0]) & 1) as u32;
                }
                *carry = (last >> (tail - 1)) & 1;
                *ones += u64::from(one_count);
                *toggles += u64::from(toggle_count);
            }
            vectors += lanes as u64;
        })?;
        Ok(Self {
            ones,
            toggles,
            vectors,
        })
    }

    /// Number of vectors simulated.
    pub fn vector_count(&self) -> u64 {
        self.vectors
    }

    /// Probability of net `net_index` being logic one.
    ///
    /// Returns `0.0` if no vectors were simulated.
    pub fn probability_one(&self, net_index: usize) -> f64 {
        if self.vectors == 0 {
            0.0
        } else {
            self.ones[net_index] as f64 / self.vectors as f64
        }
    }

    /// Average toggles per vector on net `net_index` (the switching
    /// activity `α` of the dynamic-power model).
    pub fn toggle_rate(&self, net_index: usize) -> f64 {
        if self.vectors <= 1 {
            0.0
        } else {
            self.toggles[net_index] as f64 / (self.vectors - 1) as f64
        }
    }

    /// Mean toggle rate over all nets.
    pub fn mean_toggle_rate(&self) -> f64 {
        if self.ones.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.ones.len()).map(|i| self.toggle_rate(i)).sum();
        sum / self.ones.len() as f64
    }
}

/// Derives per-gate (pMOS, nMOS) stress pairs from extracted activity.
///
/// A gate's pull-up network is under NBTI stress while its inputs are low,
/// the pull-down under PBTI stress while they are high; the per-network
/// stress factor is the corresponding signal probability averaged over the
/// gate's input pins.
pub fn stress_pairs(netlist: &Netlist, activity: &Activity) -> Vec<StressPair> {
    netlist
        .gates()
        .map(|(_, gate)| {
            let mean_p_one = gate
                .inputs
                .iter()
                .map(|n| activity.probability_one(n.index()))
                .sum::<f64>()
                / gate.inputs.len().max(1) as f64;
            StressPair::from_signal_probability(mean_p_one)
        })
        .collect()
}

/// A histogram of transistor stress factors, as plotted in the paper's
/// Fig. 5 to show that artificial (normally distributed) stimuli stress the
/// netlist like real application data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressHistogram {
    bins: Vec<u64>,
}

impl StressHistogram {
    /// Number of histogram bins over `[0, 1]`.
    pub const BINS: usize = 20;

    /// Bin counts, low stress first.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Normalized bin weights (empty histogram yields all zeros).
    pub fn weights(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; Self::BINS];
        }
        self.bins
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// L1 distance between two normalized histograms, in `[0, 2]`.
    /// The paper's "very similar stress distributions" claim corresponds to
    /// a small distance.
    pub fn distance(&self, other: &StressHistogram) -> f64 {
        self.weights()
            .iter()
            .zip(other.weights())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

/// Histograms the per-transistor stress factors implied by `pairs`
/// (each gate input pin contributes one pMOS and one nMOS transistor).
pub fn stress_histogram(pairs: &[StressPair]) -> StressHistogram {
    let mut bins = vec![0u64; StressHistogram::BINS];
    let mut push = |s: StressFactor| {
        let bin = ((s.value() * StressHistogram::BINS as f64) as usize)
            .min(StressHistogram::BINS - 1);
        bins[bin] += 1;
    };
    for pair in pairs {
        push(pair.pmos);
        push(pair.nmos);
    }
    StressHistogram { bins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NormalOperands, OperandSource};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use std::sync::Arc;

    fn adder8() -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap()
    }

    #[test]
    fn constant_inputs_give_extreme_probabilities() {
        let nl = adder8();
        let all_ones = vec![vec![true; 16]; 10];
        let act = Activity::collect(&nl, all_ones).unwrap();
        for &net in nl.inputs() {
            assert_eq!(act.probability_one(net.index()), 1.0);
            assert_eq!(act.toggle_rate(net.index()), 0.0);
        }
        let pairs = stress_pairs(&nl, &act);
        // Gates fed only by ones: nMOS fully stressed where inputs are all 1.
        let first_gate_pair = pairs[0];
        assert!(first_gate_pair.nmos.value() > 0.9 || first_gate_pair.pmos.value() > 0.0);
    }

    #[test]
    fn alternating_inputs_toggle() {
        let nl = adder8();
        let vectors: Vec<Vec<bool>> = (0..10).map(|i| vec![i % 2 == 1; 16]).collect();
        let act = Activity::collect(&nl, vectors).unwrap();
        for &net in nl.inputs() {
            assert!((act.probability_one(net.index()) - 0.5).abs() < 0.11);
            assert_eq!(act.toggle_rate(net.index()), 1.0);
        }
    }

    #[test]
    fn random_stimuli_give_interior_stress() {
        let nl = adder8();
        let stimuli = NormalOperands::new(8, 42).vectors(500);
        let act = Activity::collect(&nl, stimuli).unwrap();
        let pairs = stress_pairs(&nl, &act);
        let interior = pairs
            .iter()
            .filter(|p| p.pmos.value() > 0.1 && p.pmos.value() < 0.9)
            .count();
        assert!(
            interior > pairs.len() / 2,
            "most gates should see balanced-ish stress, got {interior}/{}",
            pairs.len()
        );
    }

    #[test]
    fn histogram_totals_and_distance() {
        let nl = adder8();
        let a1 = Activity::collect(&nl, NormalOperands::new(8, 1).vectors(400)).unwrap();
        let a2 = Activity::collect(&nl, NormalOperands::new(8, 2).vectors(400)).unwrap();
        let h1 = stress_histogram(&stress_pairs(&nl, &a1));
        let h2 = stress_histogram(&stress_pairs(&nl, &a2));
        // One pMOS + one nMOS sample per gate.
        assert_eq!(h1.total() as usize, 2 * nl.gate_count());
        // Same distribution family, different seeds: histograms nearly match.
        assert!(h1.distance(&h2) < 0.3, "distance {}", h1.distance(&h2));
        assert_eq!(h1.distance(&h1), 0.0);
    }

    #[test]
    fn timed_activity_sees_glitches_functional_misses() {
        use aix_sta::NetDelays;
        // Multiplier-style logic glitches; the timed toggle counts must be
        // at least the functional ones on every net, and strictly larger
        // somewhere.
        use aix_arith::{build_multiplier, ComponentSpec, MultiplierKind};
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(8)).unwrap();
        let vectors: Vec<Vec<bool>> =
            NormalOperands::new(8, 9).vectors(150).collect();
        let functional = Activity::collect(&nl, vectors.clone()).unwrap();
        let timed =
            crate::oracle::timed_activity(&nl, &NetDelays::fresh(&nl), vectors).unwrap();
        let mut strictly_more = 0;
        for (id, _) in nl.nets() {
            let f = functional.toggle_rate(id.index());
            let t = timed.toggle_rate(id.index());
            assert!(t + 1e-9 >= f, "net {id}: timed {t} < functional {f}");
            if t > f + 1e-9 {
                strictly_more += 1;
            }
        }
        assert!(strictly_more > 0, "a multiplier must glitch somewhere");
    }

    #[test]
    fn from_parts_validates_alignment() {
        let a = Activity::from_parts(vec![1, 2], vec![0, 1], 4);
        assert_eq!(a.vector_count(), 4);
        assert_eq!(a.probability_one(0), 0.25);
    }

    #[test]
    fn empty_activity_is_benign() {
        let nl = adder8();
        let act = Activity::collect(&nl, Vec::<Vec<bool>>::new()).unwrap();
        assert_eq!(act.vector_count(), 0);
        assert_eq!(act.probability_one(0), 0.0);
        assert_eq!(act.mean_toggle_rate(), 0.0);
    }
}
