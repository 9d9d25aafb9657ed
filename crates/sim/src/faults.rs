//! Stuck-at fault simulation: the classic structural-reliability view that
//! complements aging-induced *timing* errors.
//!
//! Aging, latent defects and wear-out ultimately manifest as nets stuck at
//! a logic level. Fault simulation answers how observable such defects are
//! under a stimulus set — which doubles as a measure of how thoroughly a
//! characterization stimulus actually exercises a netlist.

use crate::packed::{lane_mask, PackedEvaluator, LANES};
use aix_netlist::{NetDriver, NetId, Netlist, NetlistError};
use std::fmt;

/// One stuck-at fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckAtFault {
    /// The faulty net.
    pub net: NetId,
    /// The level the net is stuck at.
    pub value: bool,
}

impl fmt::Display for StuckAtFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/SA{}", self.net, u8::from(self.value))
    }
}

/// Result of a fault-simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverage {
    pub(crate) detected: Vec<StuckAtFault>,
    pub(crate) undetected: Vec<StuckAtFault>,
    pub(crate) vectors: usize,
}

impl FaultCoverage {
    /// Faults whose effect reached an output for at least one vector.
    pub fn detected(&self) -> &[StuckAtFault] {
        &self.detected
    }

    /// Faults never observed at any output.
    pub fn undetected(&self) -> &[StuckAtFault] {
        &self.undetected
    }

    /// Number of stimulus vectors applied.
    pub fn vector_count(&self) -> usize {
        self.vectors
    }

    /// Fraction of simulated faults detected, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        let total = self.detected.len() + self.undetected.len();
        if total == 0 {
            return 1.0;
        }
        self.detected.len() as f64 / total as f64
    }
}

/// Enumerates the full single-stuck-at fault list of a netlist: every
/// gate-driven or primary-input net, stuck at 0 and at 1.
pub fn full_fault_list(netlist: &Netlist) -> Vec<StuckAtFault> {
    let mut faults = Vec::with_capacity(2 * netlist.net_count());
    for (id, net) in netlist.nets() {
        if matches!(net.driver, NetDriver::Constant(_)) {
            continue;
        }
        faults.push(StuckAtFault {
            net: id,
            value: false,
        });
        faults.push(StuckAtFault {
            net: id,
            value: true,
        });
    }
    faults
}

/// Simulates every fault in `faults` against every vector in `stimuli`
/// (single-fault simulation with fault-free reference), reporting coverage.
///
/// Runs classic parallel-pattern single-fault simulation: 64 vectors per
/// fault per netlist walk, detection decided by XORing the faulty output
/// words against the fault-free reference words. Detection is a boolean
/// per fault, so the coverage equals the scalar reference
/// `oracle::simulate_faults`'s (the differential suite pins this).
///
/// # Errors
///
/// Propagates evaluator errors (cyclic netlist, width mismatch).
pub fn simulate_faults(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    stimuli: &[Vec<bool>],
) -> Result<FaultCoverage, NetlistError> {
    let _span = aix_obs::span!(
        aix_obs::names::sim::SPAN_PACKED,
        consumer = "simulate_faults",
        faults = faults.len()
    );
    let mut packed = PackedEvaluator::new(netlist)?;
    // Fault-free reference output words, one word set per 64-vector batch.
    let mut reference_words: Vec<Vec<u64>> = Vec::new();
    for batch in stimuli.chunks(LANES) {
        packed.eval_batch(batch)?;
        reference_words.push(packed.output_words().to_vec());
    }
    let mut detected = Vec::new();
    let mut undetected = Vec::new();
    for &fault in faults {
        let mut caught = false;
        for (batch, reference) in stimuli.chunks(LANES).zip(&reference_words) {
            packed.eval_batch_forced(batch, Some((fault.net, fault.value)))?;
            let mask = lane_mask(batch.len());
            let mut diff = 0u64;
            for (&good, &bad) in reference.iter().zip(packed.output_words()) {
                diff |= (good ^ bad) & mask;
            }
            if diff != 0 {
                caught = true;
                break;
            }
        }
        if caught {
            detected.push(fault);
        } else {
            undetected.push(fault);
        }
    }
    Ok(FaultCoverage {
        detected,
        undetected,
        vectors: stimuli.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OperandSource, UniformOperands};
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use std::sync::Arc;

    fn adder(width: usize) -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(width)).unwrap()
    }

    #[test]
    fn fault_list_covers_every_non_constant_net_twice() {
        let nl = adder(4);
        let faults = full_fault_list(&nl);
        let const_nets = nl
            .nets()
            .filter(|(_, n)| matches!(n.driver, NetDriver::Constant(_)))
            .count();
        assert_eq!(faults.len(), 2 * (nl.net_count() - const_nets));
    }

    #[test]
    fn output_faults_are_trivially_detectable() {
        let nl = adder(4);
        // Faults directly on output nets flip an output for some vector.
        let faults: Vec<StuckAtFault> = nl
            .output_nets()
            .into_iter()
            .flat_map(|net| [false, true].map(|value| StuckAtFault { net, value }))
            .collect();
        let stimuli: Vec<Vec<bool>> = UniformOperands::new(4, 1).vectors(64).collect();
        let coverage = simulate_faults(&nl, &faults, &stimuli).unwrap();
        assert_eq!(
            coverage.coverage(),
            1.0,
            "undetected: {:?}",
            coverage.undetected()
        );
    }

    #[test]
    fn exhaustive_stimuli_detect_nearly_everything() {
        let nl = adder(3);
        let faults = full_fault_list(&nl);
        // All 64 operand combinations.
        let stimuli: Vec<Vec<bool>> = (0..64u64)
            .map(|bits| (0..6).map(|i| bits >> i & 1 == 1).collect())
            .collect();
        let coverage = simulate_faults(&nl, &faults, &stimuli).unwrap();
        assert!(
            coverage.coverage() > 0.95,
            "ripple adders are almost fully testable: {:.2} ({} undetected)",
            coverage.coverage(),
            coverage.undetected().len()
        );
    }

    #[test]
    fn single_vector_detects_less_than_many() {
        let nl = adder(4);
        let faults = full_fault_list(&nl);
        let many: Vec<Vec<bool>> = UniformOperands::new(4, 2).vectors(50).collect();
        let one = vec![many[0].clone()];
        let c_one = simulate_faults(&nl, &faults, &one).unwrap();
        let c_many = simulate_faults(&nl, &faults, &many).unwrap();
        assert!(c_many.coverage() >= c_one.coverage());
        assert!(c_one.coverage() < 1.0, "one vector cannot test everything");
    }

    #[test]
    fn fault_display_is_informative() {
        let nl = adder(2);
        let fault = full_fault_list(&nl)[1];
        assert!(fault.to_string().contains("/SA"));
    }
}
