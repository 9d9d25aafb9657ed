//! Actual-case aging: per-gate stress extracted from switching activity.
//!
//! The paper's Fig. 3(c): a one-time gate-level (functional) simulation of
//! the component under representative stimuli yields per-transistor stress
//! factors, which feed an aging-aware STA that is less conservative than
//! the worst case. Fig. 5 shows that normally distributed stimuli stress
//! the netlist like real application (IDCT) data — both are available here.

use aix_aging::{AgingModel, Lifetime, StressPair};
use aix_dct::{encode_image, FixedPointTransform, OPERAND_SHIFT};
use aix_image::Sequence;
use aix_netlist::{bus_from_u64, Netlist, NetlistError};
use aix_sim::{stress_pairs, Activity, OperandSource, SignedNormalOperands};
use aix_sta::{NetDelays, StressSource};

/// Stimulus source for actual-case characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StimulusKind {
    /// Normally distributed operand pairs — application-independent.
    NormalDistribution,
    /// Operand pairs traced from an IDCT decoding a test sequence frame.
    IdctTrace(Sequence),
}

/// Per-gate stress factors extracted for one netlist under one stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct ActualCaseStress {
    pairs: Vec<StressPair>,
}

impl ActualCaseStress {
    /// Extracts per-gate stress by functionally simulating `vectors`
    /// stimuli of the given kind on `netlist`.
    ///
    /// The netlist is expected to expose two `operand_width`-bit operand
    /// buses first (as every `aix-arith` component does); any remaining
    /// inputs (e.g. a MAC's accumulator) are driven with zero.
    ///
    /// # Errors
    ///
    /// Propagates evaluator errors.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has fewer than `2 × operand_width` inputs.
    pub fn extract(
        netlist: &Netlist,
        kind: StimulusKind,
        operand_width: usize,
        vectors: usize,
        seed: u64,
    ) -> Result<Self, NetlistError> {
        let total_inputs = netlist.inputs().len();
        assert!(
            2 * operand_width <= total_inputs,
            "netlist exposes {total_inputs} inputs, need two {operand_width}-bit operands"
        );
        let padding = total_inputs - 2 * operand_width;
        // Streamed, not collected: the packed simulation packs each vector
        // as it arrives, so the stimuli are never all held at once.
        let stimuli: Box<dyn Iterator<Item = Vec<bool>>> = match kind {
            StimulusKind::NormalDistribution => Box::new(
                SignedNormalOperands::for_width(operand_width, seed)
                    .vectors_with_zeros(vectors, padding),
            ),
            StimulusKind::IdctTrace(sequence) => Box::new(
                idct_operand_trace(sequence, vectors)
                    .into_iter()
                    .map(move |(a, b)| {
                        let mut v = bus_from_u64(a, operand_width);
                        v.extend(bus_from_u64(b, operand_width));
                        v.extend(std::iter::repeat_n(false, padding));
                        v
                    }),
            ),
        };
        let activity = Activity::collect(netlist, stimuli)?;
        Ok(Self {
            pairs: stress_pairs(netlist, &activity),
        })
    }

    /// The per-gate stress pairs, indexed by gate id.
    pub fn pairs(&self) -> &[StressPair] {
        &self.pairs
    }

    /// Converts into an STA stress source.
    pub fn to_stress_source(&self) -> StressSource {
        StressSource::PerGate(self.pairs.clone())
    }
}

/// Per-net delays of `netlist` under actual-case aging with the given
/// extracted stress.
pub fn actual_case_delays(
    netlist: &Netlist,
    stress: &ActualCaseStress,
    model: &AgingModel,
    lifetime: Lifetime,
) -> NetDelays {
    NetDelays::aged_with_stress(netlist, model, &stress.to_stress_source(), lifetime)
}

/// Records the multiplier operand pairs an IDCT applies while decoding one
/// frame of `sequence`, embedded as 32-bit two's-complement bus values.
///
/// These are the "inputs extracted from a running application" of the
/// paper's Fig. 4/Fig. 5 comparison.
pub fn idct_operand_trace(sequence: Sequence, max_pairs: usize) -> Vec<(u64, u64)> {
    let frame = sequence.frame(64, 48, 0);
    let coefficients = encode_image(&frame, &FixedPointTransform::exact());
    let mut trace = Vec::with_capacity(max_pairs);
    for block in coefficients.blocks() {
        if trace.len() >= max_pairs {
            break;
        }
        // Replay the inverse transform's MAC schedule, recording operands.
        for x in 0..8 {
            for u in 0..8 {
                if trace.len() >= max_pairs {
                    break;
                }
                let coeff = i64::from(aix_dct::idct_coefficient(x, u)) << OPERAND_SHIFT;
                let sample = i64::from(block[u * 8 + x]) << OPERAND_SHIFT;
                trace.push((embed32(coeff), embed32(sample)));
            }
        }
    }
    trace
}

/// Two's-complement embedding into 32 bits.
fn embed32(value: i64) -> u64 {
    (value as u64) & 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::AgingScenario;
    use aix_arith::{build_multiplier, ComponentSpec, MultiplierKind};
    use aix_cells::Library;
    use aix_sim::stress_histogram;
    use aix_sta::analyze;
    use std::sync::Arc;

    fn multiplier() -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(16)).unwrap()
    }

    fn multiplier32() -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(32)).unwrap()
    }

    #[test]
    fn actual_case_is_less_conservative_than_worst_case() {
        let nl = multiplier();
        let model = AgingModel::calibrated();
        let stress =
            ActualCaseStress::extract(&nl, StimulusKind::NormalDistribution, 16, 300, 1).unwrap();
        let actual = analyze(
            &nl,
            &actual_case_delays(&nl, &stress, &model, Lifetime::YEARS_10),
        )
        .unwrap()
        .max_delay_ps();
        let worst = analyze(
            &nl,
            &NetDelays::aged(&nl, &model, AgingScenario::worst_case(Lifetime::YEARS_10)),
        )
        .unwrap()
        .max_delay_ps();
        let fresh = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        assert!(
            fresh < actual && actual < worst,
            "{fresh} < {actual} < {worst}"
        );
    }

    #[test]
    fn normal_and_idct_stress_distributions_are_similar() {
        // The paper's Fig. 5 claim: artificial stimuli suffice for
        // characterization because the stress histograms nearly coincide.
        // The comparison is made on the 32-bit component the IDCT trace
        // values are embedded for.
        let nl = multiplier32();
        let normal =
            ActualCaseStress::extract(&nl, StimulusKind::NormalDistribution, 32, 400, 2).unwrap();
        let idct =
            ActualCaseStress::extract(&nl, StimulusKind::IdctTrace(Sequence::Foreman), 32, 400, 2)
                .unwrap();
        let h_normal = stress_histogram(normal.pairs());
        let h_idct = stress_histogram(idct.pairs());
        let distance = h_normal.distance(&h_idct);
        // What ultimately matters (and what the paper concludes from the
        // histograms) is that both stimuli imply nearly the same
        // aging-induced delay, so characterization can use artificial data.
        let model = AgingModel::calibrated();
        let d_normal = analyze(
            &nl,
            &actual_case_delays(&nl, &normal, &model, Lifetime::YEARS_10),
        )
        .unwrap()
        .max_delay_ps();
        let d_idct = analyze(
            &nl,
            &actual_case_delays(&nl, &idct, &model, Lifetime::YEARS_10),
        )
        .unwrap()
        .max_delay_ps();
        let rel = (d_normal - d_idct).abs() / d_idct;
        println!("histogram L1 {distance:.3}, delays {d_normal:.1} vs {d_idct:.1} ({rel:.4})");
        assert!(
            rel < 0.02,
            "actual-case delays should nearly coincide: {d_normal} vs {d_idct}"
        );
        assert!(
            distance < 1.2,
            "stress histograms should be broadly similar, L1 distance {distance}"
        );
    }

    #[test]
    fn trace_is_nonempty_and_bounded() {
        let trace = idct_operand_trace(Sequence::Akiyo, 500);
        assert_eq!(trace.len(), 500);
        for &(a, b) in &trace {
            assert!(a <= u64::from(u32::MAX) && b <= u64::from(u32::MAX));
        }
    }

    #[test]
    fn mac_accumulator_inputs_are_padded() {
        let lib = Arc::new(Library::nangate45_like());
        let mac = aix_arith::build_mac(&lib, ComponentSpec::full(8)).unwrap();
        let stress =
            ActualCaseStress::extract(&mac, StimulusKind::NormalDistribution, 8, 100, 3).unwrap();
        assert_eq!(stress.pairs().len(), mac.gate_count());
    }
}
