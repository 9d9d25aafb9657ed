//! Seeded Monte-Carlo delay perturbation.
//!
//! The characterization flow computes every aged delay once, analytically.
//! Real silicon adds process variation on top of aging — Heidary & Joardar
//! (arXiv:2605.18444) show the combination breaks nominal-delay guarantees
//! that each effect alone would keep. This module derates an aged
//! [`NetDelays`] annotation with two lognormal-ish variation terms:
//!
//! * a **global** factor shared by every gate of one sample (die-to-die
//!   variation, voltage/temperature drift), and
//! * a **per-gate** factor drawn independently per gate (random local
//!   variation).
//!
//! Sampling is driven by a seeded [`StdRng`], so a campaign with the same
//! seed reproduces the same samples bit-for-bit.

use aix_netlist::Netlist;
use aix_obs::{fnv1a, FNV_OFFSET};
use aix_sta::NetDelays;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gate-delay factors never drop below this, keeping perturbed delays
/// positive and the event queue finite.
const MIN_FACTOR: f64 = 0.05;

/// The variation model of one Monte-Carlo campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Relative sigma of the global (per-sample) delay factor.
    pub global_sigma: f64,
    /// Relative sigma of the independent per-gate delay factor.
    pub gate_sigma: f64,
}

impl Perturbation {
    /// The default campaign model: 3 % global, 1 % per-gate — in the range
    /// process-variation studies report for mature planar nodes.
    pub const DEFAULT: Perturbation = Perturbation {
        global_sigma: 0.03,
        gate_sigma: 0.01,
    };

    /// A model with no variation at all: every sample reproduces the
    /// nominal aged delays exactly.
    pub const NONE: Perturbation = Perturbation {
        global_sigma: 0.0,
        gate_sigma: 0.0,
    };

    /// Whether this model perturbs anything.
    pub fn is_zero(&self) -> bool {
        self.global_sigma == 0.0 && self.gate_sigma == 0.0
    }

    /// Draws one sample's per-gate delay factors.
    pub fn sample_factors(&self, rng: &mut StdRng, gate_count: usize) -> Vec<f64> {
        let global = (1.0 + self.global_sigma * normal(rng)).max(MIN_FACTOR);
        (0..gate_count)
            .map(|_| (global * (1.0 + self.gate_sigma * normal(rng))).max(MIN_FACTOR))
            .collect()
    }

    /// Applies one sample's variation to `base`, returning the perturbed
    /// annotation.
    pub fn perturb(&self, rng: &mut StdRng, netlist: &Netlist, base: &NetDelays) -> NetDelays {
        if self.is_zero() {
            return base.clone();
        }
        let factors = self.sample_factors(rng, netlist.gate_count());
        base.scaled_by_gate(netlist, |gate| factors[gate])
    }
}

impl Default for Perturbation {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A standard-normal draw via Box-Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Derives a per-entry generator so entries verify independently of the
/// order they are visited in: FNV-1a over the campaign seed and the entry's
/// identity.
pub fn entry_rng(seed: u64, label: &str) -> StdRng {
    let state = FNV_OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    StdRng::seed_from_u64(fnv1a(state, label.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use std::sync::Arc;

    fn adder() -> Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap()
    }

    #[test]
    fn zero_sigma_reproduces_base_delays() {
        let nl = adder();
        let base = NetDelays::fresh(&nl);
        let mut rng = entry_rng(1, "zero");
        let perturbed = Perturbation::NONE.perturb(&mut rng, &nl, &base);
        assert_eq!(perturbed, base);
    }

    #[test]
    fn same_seed_same_samples() {
        let nl = adder();
        let base = NetDelays::fresh(&nl);
        let model = Perturbation::DEFAULT;
        let mut a = entry_rng(42, "entry");
        let mut b = entry_rng(42, "entry");
        for _ in 0..5 {
            assert_eq!(
                model.perturb(&mut a, &nl, &base),
                model.perturb(&mut b, &nl, &base)
            );
        }
        let mut c = entry_rng(43, "entry");
        assert_ne!(
            model.perturb(&mut a, &nl, &base),
            model.perturb(&mut c, &nl, &base)
        );
    }

    #[test]
    fn factors_stay_positive_and_centered() {
        let model = Perturbation {
            global_sigma: 0.2,
            gate_sigma: 0.1,
        };
        let mut rng = entry_rng(7, "centered");
        let mut sum = 0.0;
        let mut count = 0usize;
        for _ in 0..50 {
            for f in model.sample_factors(&mut rng, 100) {
                assert!(f >= MIN_FACTOR);
                sum += f;
                count += 1;
            }
        }
        let mean = sum / count as f64;
        assert!((mean - 1.0).abs() < 0.05, "factor mean {mean}");
    }

    #[test]
    fn perturbation_leaves_input_nets_at_zero() {
        let nl = adder();
        let base = NetDelays::fresh(&nl);
        let mut rng = entry_rng(3, "inputs");
        let perturbed = Perturbation::DEFAULT.perturb(&mut rng, &nl, &base);
        for (id, net) in nl.nets() {
            if !matches!(net.driver, aix_netlist::NetDriver::Gate { .. }) {
                assert_eq!(perturbed.of(id.index()), 0.0);
            }
        }
    }
}
