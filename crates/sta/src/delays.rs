//! Per-net delay calculation, fresh and under aging.

use aix_aging::{AgingModel, AgingScenario, Lifetime, StressPair};
use aix_cells::DegradationAwareLibrary;
use aix_netlist::{NetDriver, Netlist};

/// Where each gate's stress comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum StressSource {
    /// Every gate under the same stress pair (worst-case / balanced /
    /// uniform analyses).
    Uniform(StressPair),
    /// Per-gate stress pairs, indexed by gate id — the *actual case*,
    /// extracted from simulated switching activity.
    PerGate(Vec<StressPair>),
}

impl StressSource {
    /// The stress pair for gate `gate_index`.
    ///
    /// # Panics
    ///
    /// Panics if a per-gate source is shorter than the gate count.
    pub fn pair_for(&self, gate_index: usize) -> StressPair {
        match self {
            StressSource::Uniform(pair) => *pair,
            StressSource::PerGate(pairs) => pairs[gate_index],
        }
    }
}

/// The propagation delay contributed by the driver of each net, in
/// picoseconds. Primary inputs and constants contribute zero.
///
/// This is the "annotated netlist" of the paper's flow: fresh delays come
/// from the original library, aged delays from scaling each arc by the
/// degradation factor of its driving cell under that cell's stress.
///
/// Annotations from [`fresh`](Self::fresh), [`aged`](Self::aged) and
/// [`aged_with_stress`](Self::aged_with_stress) also remember each gate's
/// derating factor, which does not depend on the gate's cell; that is what
/// lets an [`IncrementalTimer`](crate::IncrementalTimer) re-time a gate
/// after a cell swap. Equality compares the delays only.
#[derive(Debug, Clone)]
pub struct NetDelays {
    delays_ps: Vec<f64>,
    derating: Derating,
}

/// The per-gate factor an annotation scaled every arc by.
#[derive(Debug, Clone)]
pub(crate) enum Derating {
    /// Unknown: raw, re-scaled or table-based delays.
    Opaque,
    /// The same factor for every gate.
    Uniform(f64),
    /// One factor per gate, indexed by gate id.
    PerGate(Vec<f64>),
}

impl Derating {
    /// The factor of gate `gate_index`, `None` for opaque annotations.
    pub(crate) fn of(&self, gate_index: usize) -> Option<f64> {
        match self {
            Derating::Opaque => None,
            Derating::Uniform(factor) => Some(*factor),
            Derating::PerGate(factors) => factors.get(gate_index).copied(),
        }
    }
}

impl PartialEq for NetDelays {
    fn eq(&self, other: &Self) -> bool {
        self.delays_ps == other.delays_ps
    }
}

impl NetDelays {
    /// Fresh (design-time) delays: the synthesis-library view.
    pub fn fresh(netlist: &Netlist) -> Self {
        Self::build(netlist, Derating::Uniform(1.0))
    }

    /// Delays under a uniform aging scenario evaluated analytically from
    /// `model`.
    pub fn aged(netlist: &Netlist, model: &AgingModel, scenario: AgingScenario) -> Self {
        match scenario {
            AgingScenario::Fresh => Self::fresh(netlist),
            AgingScenario::Aged { stress, lifetime } => Self::aged_with_stress(
                netlist,
                model,
                &StressSource::Uniform(stress.stress_pair()),
                lifetime,
            ),
        }
    }

    /// Delays under an arbitrary stress source (uniform or per-gate),
    /// evaluated analytically from `model`. Cell-specific BTI sensitivity
    /// is applied on top, as in the degradation-aware library.
    pub fn aged_with_stress(
        netlist: &Netlist,
        model: &AgingModel,
        stress: &StressSource,
        lifetime: Lifetime,
    ) -> Self {
        // `build` applies the cell's BTI sensitivity via `aged_delay_ps`;
        // the derating supplies the raw physics factor, computed once for a
        // uniform source.
        let factor = |pair| model.pair_delay_factor(pair, lifetime).max(1.0);
        let derating = match stress {
            StressSource::Uniform(pair) => Derating::Uniform(factor(*pair)),
            StressSource::PerGate(_) => Derating::PerGate(
                (0..netlist.gate_count())
                    .map(|gate_index| factor(stress.pair_for(gate_index)))
                    .collect(),
            ),
        };
        Self::build(netlist, derating)
    }

    /// Delays looked up from pre-generated degradation tables — the exact
    /// artifact path of the paper (STA with the degradation-aware cell
    /// library), including bilinear interpolation between grid points.
    pub fn aged_from_tables(
        netlist: &Netlist,
        tables: &DegradationAwareLibrary,
        stress: &StressSource,
    ) -> Self {
        let mut delays = vec![0.0; netlist.net_count()];
        let loads = netlist.net_loads_ff();
        for (id, net) in netlist.nets() {
            if let NetDriver::Gate { gate, .. } = net.driver {
                let g = netlist.gate(gate);
                let cell = netlist.library().cell(g.cell);
                let factor = tables.delay_factor(g.cell, stress.pair_for(gate.index()));
                delays[id.index()] = cell.delay_ps(loads[id.index()]) * factor;
            }
        }
        Self::opaque(delays)
    }

    /// Every gate-driven net's delay: the driving cell at the net's load,
    /// derated by the gate's factor (already clamped to at least 1).
    fn build(netlist: &Netlist, derating: Derating) -> Self {
        let mut delays = vec![0.0; netlist.net_count()];
        let loads = netlist.net_loads_ff();
        for (id, net) in netlist.nets() {
            if let NetDriver::Gate { gate, .. } = net.driver {
                let g = netlist.gate(gate);
                let cell = netlist.library().cell(g.cell);
                let factor = derating
                    .of(gate.index())
                    .expect("built with a known derating");
                delays[id.index()] = cell.aged_delay_ps(loads[id.index()], factor);
            }
        }
        Self {
            delays_ps: delays,
            derating,
        }
    }

    fn opaque(delays_ps: Vec<f64>) -> Self {
        Self {
            delays_ps,
            derating: Derating::Opaque,
        }
    }

    /// Builds an annotation directly from per-net delays (indexed by net
    /// id). Used by verification layers that derate or fault existing
    /// annotations; normal flows should prefer the `fresh`/`aged`
    /// constructors.
    pub fn from_raw(delays_ps: Vec<f64>) -> Self {
        Self::opaque(delays_ps)
    }

    /// A copy with every gate-driven net's delay multiplied by
    /// `factor(gate_index)` — the hook Monte-Carlo derating and delay-fault
    /// injection build on. Primary inputs and constants stay at zero.
    pub fn scaled_by_gate(&self, netlist: &Netlist, factor: impl Fn(usize) -> f64) -> Self {
        let mut delays = self.delays_ps.clone();
        for (id, net) in netlist.nets() {
            if let NetDriver::Gate { gate, .. } = net.driver {
                delays[id.index()] *= factor(gate.index());
            }
        }
        Self::opaque(delays)
    }

    /// The delay contributed by the driver of net `net_index`.
    pub fn of(&self, net_index: usize) -> f64 {
        self.delays_ps[net_index]
    }

    /// All per-net delays (indexed by net id).
    pub fn as_slice(&self) -> &[f64] {
        &self.delays_ps
    }

    /// The per-gate derating factors this annotation was built with.
    pub(crate) fn derating(&self) -> &Derating {
        &self.derating
    }

    /// The per-net delays, without copying them.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.delays_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::StressFactor;
    use aix_arith::{
        build_adder, build_mac, build_multiplier, AdderKind, ComponentSpec, MultiplierKind,
    };
    use aix_cells::Library;
    use std::sync::Arc;

    fn adder() -> aix_netlist::Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap()
    }

    #[test]
    fn fresh_delays_zero_only_for_sources() {
        let nl = adder();
        let delays = NetDelays::fresh(&nl);
        for (id, net) in nl.nets() {
            let d = delays.of(id.index());
            match net.driver {
                aix_netlist::NetDriver::Gate { .. } => assert!(d > 0.0),
                _ => assert_eq!(d, 0.0),
            }
        }
    }

    #[test]
    fn aged_worst_case_scales_every_arc() {
        let nl = adder();
        let model = AgingModel::calibrated();
        let fresh = NetDelays::fresh(&nl);
        let aged = NetDelays::aged(&nl, &model, AgingScenario::worst_case(Lifetime::YEARS_10));
        for (id, net) in nl.nets() {
            if matches!(net.driver, aix_netlist::NetDriver::Gate { .. }) {
                let ratio = aged.of(id.index()) / fresh.of(id.index());
                assert!(ratio > 1.1 && ratio < 1.3, "ratio {ratio}");
            }
        }
    }

    #[test]
    fn fresh_scenario_equals_fresh() {
        let nl = adder();
        let model = AgingModel::calibrated();
        assert_eq!(
            NetDelays::aged(&nl, &model, AgingScenario::Fresh),
            NetDelays::fresh(&nl)
        );
    }

    #[test]
    fn table_lookup_close_to_analytic() {
        let nl = adder();
        let model = AgingModel::calibrated();
        let tables = DegradationAwareLibrary::generate(nl.library(), &model, Lifetime::YEARS_10);
        let stress = StressSource::Uniform(StressPair::uniform(StressFactor::new(0.63).unwrap()));
        let from_tables = NetDelays::aged_from_tables(&nl, &tables, &stress);
        let analytic = NetDelays::aged_with_stress(&nl, &model, &stress, Lifetime::YEARS_10);
        for (id, net) in nl.nets() {
            if matches!(net.driver, aix_netlist::NetDriver::Gate { .. }) {
                let t = from_tables.of(id.index());
                let a = analytic.of(id.index());
                assert!((t - a).abs() / a < 0.01, "table {t} vs analytic {a}");
            }
        }
    }

    /// The uniform scenarios the paper's approximation library
    /// characterizes: worst case at every year of ten, balanced at 1 and
    /// 10 years. Both stress pairs, (1, 1) and (0.5, 0.5), are grid points
    /// of the degradation tables.
    fn library_scenarios() -> Vec<(StressPair, Lifetime)> {
        let mut scenarios: Vec<(StressPair, Lifetime)> = (1..=10)
            .map(|y| (StressPair::WORST, Lifetime::from_years(f64::from(y))))
            .collect();
        scenarios.push((StressPair::BALANCED, Lifetime::YEARS_1));
        scenarios.push((StressPair::BALANCED, Lifetime::YEARS_10));
        scenarios
    }

    #[test]
    fn table_cells_equal_analytic_cells_on_grid_scenarios() {
        // At a grid point the bilinear weights are exactly 0 and 1, and a
        // table entry is the expression `Cell::aged_delay_ps` evaluates,
        // so every cell (every drive sizing can pick) at any load gets
        // the same bits from the exported tables as from the model.
        let lib = Library::nangate45_like();
        let model = AgingModel::calibrated();
        for (pair, lifetime) in library_scenarios() {
            let tables = DegradationAwareLibrary::generate(&lib, &model, lifetime);
            let factor = model.pair_delay_factor(pair, lifetime).max(1.0);
            for (id, cell) in lib.iter() {
                for load in [0.0, 0.9, 2.0, 3.7, 12.5, 40.0] {
                    let analytic = cell.aged_delay_ps(load, factor);
                    let from_table = cell.delay_ps(load) * tables.delay_factor(id, pair);
                    assert_eq!(
                        from_table.to_bits(),
                        analytic.to_bits(),
                        "{} at {load} fF, {pair:?} after {} y",
                        cell.name,
                        lifetime.years()
                    );
                }
            }
        }
    }

    #[test]
    fn table_sta_equals_analytic_sta_on_library_scenarios() {
        let lib = Arc::new(Library::nangate45_like());
        let model = AgingModel::calibrated();
        let mut netlists = Vec::new();
        for width in [8, 16] {
            let spec = ComponentSpec::full(width);
            for kind in AdderKind::ALL {
                netlists.push(build_adder(&lib, kind, spec).unwrap());
            }
            for kind in MultiplierKind::ALL {
                netlists.push(build_multiplier(&lib, kind, spec).unwrap());
            }
            netlists.push(build_mac(&lib, spec).unwrap());
        }
        for (pair, lifetime) in library_scenarios() {
            let tables = DegradationAwareLibrary::generate(&lib, &model, lifetime);
            let stress = StressSource::Uniform(pair);
            for nl in &netlists {
                let from_tables = NetDelays::aged_from_tables(nl, &tables, &stress);
                let analytic = NetDelays::aged_with_stress(nl, &model, &stress, lifetime);
                assert_eq!(
                    from_tables,
                    analytic,
                    "{}: {pair:?} after {} y",
                    nl.name(),
                    lifetime.years()
                );
            }
        }
    }

    #[test]
    fn per_gate_stress_is_respected() {
        let nl = adder();
        let model = AgingModel::calibrated();
        // All gates fresh except gate 0 at worst stress.
        let mut pairs = vec![StressPair::default(); nl.gate_count()];
        pairs[0] = StressPair::WORST;
        let delays = NetDelays::aged_with_stress(
            &nl,
            &model,
            &StressSource::PerGate(pairs),
            Lifetime::YEARS_10,
        );
        let fresh = NetDelays::fresh(&nl);
        for (id, net) in nl.nets() {
            if let aix_netlist::NetDriver::Gate { gate, .. } = net.driver {
                let ratio = delays.of(id.index()) / fresh.of(id.index());
                if gate.index() == 0 {
                    assert!(ratio > 1.1);
                } else {
                    assert!((ratio - 1.0).abs() < 1e-12);
                }
            }
        }
    }
}
