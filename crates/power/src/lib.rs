//! Power, energy and area analysis of gate-level netlists.
//!
//! The Rust counterpart of running the synthesis tool's power analysis
//! "after taking the switching activities induced by the simulated input
//! stimuli into account" (paper §VI):
//!
//! * **leakage** — the sum of per-cell static leakage,
//! * **dynamic** — `½ · α · C · Vdd² · f` summed over nets, with the toggle
//!   rate `α` taken from an [`aix_sim::Activity`] extraction, plus per-cell
//!   internal switching energy,
//! * **energy per operation** — total power divided by clock frequency.
//!
//! # Examples
//!
//! ```
//! use aix_arith::{build_adder, AdderKind, ComponentSpec};
//! use aix_cells::Library;
//! use aix_power::{analyze_power, PowerConfig};
//! use aix_sim::{Activity, NormalOperands, OperandSource};
//! use std::sync::Arc;
//!
//! let lib = Arc::new(Library::nangate45_like());
//! let adder = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8))?;
//! let activity = Activity::collect(&adder, NormalOperands::new(8, 1).vectors(200))?;
//! let report = analyze_power(&adder, &activity, &PowerConfig::at_frequency_ghz(1.0));
//! assert!(report.total_uw() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use aix_cells::Cell;
use aix_netlist::{NetDriver, Netlist};
use aix_sim::Activity;
use std::fmt;

/// Operating point for power analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Clock frequency in gigahertz (one new input vector per cycle).
    pub frequency_ghz: f64,
}

impl PowerConfig {
    /// Nominal 45 nm supply at the given clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_ghz` is not positive and finite.
    pub fn at_frequency_ghz(frequency_ghz: f64) -> Self {
        assert!(
            frequency_ghz.is_finite() && frequency_ghz > 0.0,
            "frequency must be positive, got {frequency_ghz}"
        );
        Self {
            vdd: aix_cells_vdd(),
            frequency_ghz,
        }
    }

    /// The operating point implied by clocking at a period in picoseconds.
    pub fn at_period_ps(period_ps: f64) -> Self {
        Self::at_frequency_ghz(1000.0 / period_ps)
    }
}

fn aix_cells_vdd() -> f64 {
    // Matches aix_aging::VDD_V without taking the dependency.
    1.1
}

/// Power/area analysis result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Total layout area in µm².
    pub area_um2: f64,
    /// Static leakage power in µW.
    pub leakage_uw: f64,
    /// Dynamic (switching) power in µW at the configured frequency.
    pub dynamic_uw: f64,
    /// Clock frequency used, in GHz.
    pub frequency_ghz: f64,
}

impl PowerReport {
    /// Total power in µW.
    pub fn total_uw(&self) -> f64 {
        self.leakage_uw + self.dynamic_uw
    }

    /// Energy per clocked operation in femtojoules.
    pub fn energy_per_op_fj(&self) -> f64 {
        // µW / GHz = fJ.
        self.total_uw() / self.frequency_ghz
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "area {:.1} um2, leakage {:.2} uW, dynamic {:.2} uW @ {:.3} GHz ({:.1} fJ/op)",
            self.area_um2,
            self.leakage_uw,
            self.dynamic_uw,
            self.frequency_ghz,
            self.energy_per_op_fj()
        )
    }
}

/// Analyzes area, leakage and activity-driven dynamic power of `netlist`.
///
/// `activity` must have been collected on the same netlist; toggle rates
/// are read per net. Dynamic power combines net switching
/// (`½ · α · C_load · Vdd² · f`) with the driving cell's internal
/// switching energy per toggle.
pub fn analyze_power(netlist: &Netlist, activity: &Activity, config: &PowerConfig) -> PowerReport {
    let stats = netlist.stats();
    let loads = netlist.net_loads_ff();
    let mut dynamic_uw = 0.0;
    for (id, net) in netlist.nets() {
        let toggle_rate = activity.toggle_rate(id.index());
        if toggle_rate == 0.0 {
            continue;
        }
        let cell: Option<&Cell> = match net.driver {
            NetDriver::Gate { gate, .. } => Some(netlist.library().cell(netlist.gate(gate).cell)),
            _ => None,
        };
        // Net switching energy per toggle: ½ C V² (fF·V² = fJ).
        let net_energy_fj = 0.5 * loads[id.index()] * config.vdd * config.vdd;
        // Internal cell energy per output toggle.
        let cell_energy_fj = cell.map_or(0.0, |c| c.switching_energy_fj(config.vdd));
        // fJ per toggle × toggles per cycle × GHz cycles/ns = µW.
        dynamic_uw += (net_energy_fj + cell_energy_fj) * toggle_rate * config.frequency_ghz;
    }
    PowerReport {
        area_um2: stats.area_um2,
        leakage_uw: stats.leakage_nw / 1000.0,
        dynamic_uw,
        frequency_ghz: config.frequency_ghz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_sim::{NormalOperands, OperandSource};
    use std::sync::Arc;

    fn adder_with_activity(width: usize) -> (Netlist, Activity) {
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(width)).unwrap();
        let act = Activity::collect(&nl, NormalOperands::new(width, 3).vectors(300)).unwrap();
        (nl, act)
    }

    #[test]
    fn idle_circuit_consumes_only_leakage() {
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap();
        let idle = Activity::collect(&nl, vec![vec![false; 16]; 50]).unwrap();
        let report = analyze_power(&nl, &idle, &PowerConfig::at_frequency_ghz(2.0));
        assert_eq!(report.dynamic_uw, 0.0);
        assert!(report.leakage_uw > 0.0);
        assert_eq!(report.total_uw(), report.leakage_uw);
    }

    #[test]
    fn dynamic_power_scales_with_frequency() {
        let (nl, act) = adder_with_activity(8);
        let at1 = analyze_power(&nl, &act, &PowerConfig::at_frequency_ghz(1.0));
        let at2 = analyze_power(&nl, &act, &PowerConfig::at_frequency_ghz(2.0));
        assert!((at2.dynamic_uw / at1.dynamic_uw - 2.0).abs() < 1e-9);
        assert_eq!(at1.leakage_uw, at2.leakage_uw);
    }

    #[test]
    fn energy_per_op_is_frequency_invariant_for_dynamic_dominated() {
        let (nl, act) = adder_with_activity(16);
        let at1 = analyze_power(&nl, &act, &PowerConfig::at_frequency_ghz(1.0));
        let at2 = analyze_power(&nl, &act, &PowerConfig::at_frequency_ghz(2.0));
        // Dynamic energy per op is constant; leakage energy halves at 2 GHz.
        assert!(at2.energy_per_op_fj() < at1.energy_per_op_fj());
        let dyn1 = at1.dynamic_uw / at1.frequency_ghz;
        let dyn2 = at2.dynamic_uw / at2.frequency_ghz;
        assert!((dyn1 - dyn2).abs() < 1e-9);
    }

    #[test]
    fn bigger_circuits_burn_more() {
        let (small_nl, small_act) = adder_with_activity(8);
        let (big_nl, big_act) = adder_with_activity(32);
        let cfg = PowerConfig::at_frequency_ghz(1.0);
        let small = analyze_power(&small_nl, &small_act, &cfg);
        let big = analyze_power(&big_nl, &big_act, &cfg);
        assert!(big.area_um2 > small.area_um2);
        assert!(big.leakage_uw > small.leakage_uw);
        assert!(big.dynamic_uw > small.dynamic_uw);
    }

    #[test]
    fn period_constructor_matches_frequency() {
        let cfg = PowerConfig::at_period_ps(500.0);
        assert!((cfg.frequency_ghz - 2.0).abs() < 1e-12);
    }

    #[test]
    fn glitch_aware_dynamic_power_is_higher() {
        use aix_sim::oracle::timed_activity;
        use aix_sta::NetDelays;
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(12)).unwrap();
        let vectors: Vec<Vec<bool>> = NormalOperands::new(12, 8).vectors(200).collect();
        let cfg = PowerConfig::at_frequency_ghz(1.0);
        let functional =
            analyze_power(&nl, &Activity::collect(&nl, vectors.clone()).unwrap(), &cfg);
        let timed = analyze_power(
            &nl,
            &timed_activity(&nl, &NetDelays::fresh(&nl), vectors).unwrap(),
            &cfg,
        );
        assert!(
            timed.dynamic_uw >= functional.dynamic_uw,
            "glitches only add transitions: {} vs {}",
            timed.dynamic_uw,
            functional.dynamic_uw
        );
        assert_eq!(timed.leakage_uw, functional.leakage_uw);
    }

    #[test]
    fn truncation_saves_power() {
        use aix_synth::optimize;
        let lib = Arc::new(Library::nangate45_like());
        let full = build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(32)).unwrap();
        let cut = optimize(
            &build_adder(
                &lib,
                AdderKind::RippleCarry,
                ComponentSpec::new(32, 24).unwrap(),
            )
            .unwrap(),
        )
        .unwrap();
        let cfg = PowerConfig::at_frequency_ghz(1.0);
        let act_full =
            Activity::collect(&full, NormalOperands::new(32, 5).vectors(200)).unwrap();
        let act_cut = Activity::collect(&cut, NormalOperands::new(32, 5).vectors(200)).unwrap();
        let p_full = analyze_power(&full, &act_full, &cfg);
        let p_cut = analyze_power(&cut, &act_cut, &cfg);
        assert!(p_cut.area_um2 < p_full.area_um2);
        assert!(p_cut.leakage_uw < p_full.leakage_uw);
        assert!(p_cut.dynamic_uw < p_full.dynamic_uw);
    }
}
