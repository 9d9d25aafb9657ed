//! Effort-driven component synthesis: architecture selection, cleanup and
//! timing-driven sizing, composing the rest of the crate.

use crate::{optimize, recover_area, size_for_performance, Planner};
use aix_arith::{AdderKind, Canonical, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_netlist::{Netlist, NetlistError};
use aix_sta::NetDelays;
use std::fmt;
use std::sync::Arc;

/// Synthesis effort, mirroring a commercial tool's effort knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Effort {
    /// Smallest area: ripple/array structures, no sizing.
    Area,
    /// Balanced: lookahead/array structures, no sizing.
    Medium,
    /// Best performance (the paper's "ultra compile"): fast structures plus
    /// timing-driven sizing.
    #[default]
    Ultra,
}

impl Effort {
    /// All effort levels.
    pub const ALL: [Effort; 3] = [Effort::Area, Effort::Medium, Effort::Ultra];

    pub(crate) fn adder_kind(self) -> AdderKind {
        match self {
            Effort::Area => AdderKind::RippleCarry,
            Effort::Medium => AdderKind::CarryLookahead,
            Effort::Ultra => AdderKind::CarrySelect,
        }
    }

    pub(crate) fn multiplier_kind(self) -> MultiplierKind {
        match self {
            Effort::Area | Effort::Medium => MultiplierKind::Array,
            Effort::Ultra => MultiplierKind::Wallace,
        }
    }

    fn sizing_iterations(self) -> usize {
        match self {
            Effort::Area | Effort::Medium => 0,
            Effort::Ultra => 400,
        }
    }
}

impl fmt::Display for Effort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl Effort {
    /// Stable lower-case token, used by the approximation-library text
    /// format and the characterization cache's file names and key lines.
    /// [`FromStr`](std::str::FromStr) parses it back.
    pub fn token(self) -> &'static str {
        match self {
            Effort::Area => "area",
            Effort::Medium => "medium",
            Effort::Ultra => "ultra",
        }
    }
}

/// Error returned when parsing an [`Effort`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEffortError(String);

impl fmt::Display for ParseEffortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown synthesis effort `{}`", self.0)
    }
}

impl std::error::Error for ParseEffortError {}

impl std::str::FromStr for Effort {
    type Err = ParseEffortError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "area" => Ok(Effort::Area),
            "medium" => Ok(Effort::Medium),
            "ultra" => Ok(Effort::Ultra),
            other => Err(ParseEffortError(other.to_owned())),
        }
    }
}

/// The synthesis recipe every [`Synthesizer`] call ends with: cleanup
/// ([`optimize`]), then — at efforts that size — timing-driven sizing
/// against fresh delays and area recovery at the delay sizing achieved,
/// then validation. Generators outside this crate that build their own
/// netlists call it to get the same "ultra compile" treatment.
///
/// # Errors
///
/// Propagates optimization, timing and validation errors.
pub fn compile(netlist: &Netlist, effort: Effort) -> Result<Netlist, NetlistError> {
    size(optimize(netlist)?, effort)
}

/// [`compile`] after cleanup: sizing and area recovery at efforts that
/// size, then validation.
fn size(mut optimized: Netlist, effort: Effort) -> Result<Netlist, NetlistError> {
    if effort.sizing_iterations() > 0 {
        let sized =
            size_for_performance(&mut optimized, NetDelays::fresh, effort.sizing_iterations())?;
        // Timing closure is followed by area recovery at the achieved
        // constraint — this produces the slack wall characteristic of
        // timing-closed netlists.
        recover_area(&mut optimized, NetDelays::fresh, sized.final_delay_ps, 25)?;
    }
    optimized.validate()?;
    Ok(optimized)
}

/// Component synthesizer: maps arithmetic specifications to optimized,
/// sized gate-level netlists over a cell library.
///
/// # Examples
///
/// ```
/// use aix_arith::ComponentSpec;
/// use aix_cells::Library;
/// use aix_synth::{Effort, Synthesizer};
/// use std::sync::Arc;
///
/// let synth = Synthesizer::new(Arc::new(Library::nangate45_like()), Effort::Medium);
/// let mult = synth.multiplier(ComponentSpec::full(8))?;
/// assert!(mult.gate_count() > 50);
/// # Ok::<(), aix_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer {
    library: Arc<Library>,
    effort: Effort,
}

impl Synthesizer {
    /// Creates a synthesizer over `library` at the given effort.
    pub fn new(library: Arc<Library>, effort: Effort) -> Self {
        Self { library, effort }
    }

    /// The effort level in use.
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// The library mapped onto.
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    /// [`compile`] of `component`'s netlist, with cleanup planned as the
    /// generator writes the gates, so the unoptimized netlist is never
    /// built.
    fn synthesize(&self, component: Canonical) -> Result<Netlist, NetlistError> {
        size(
            Planner::plan(&component, &self.library)?.finish()?,
            self.effort,
        )
    }

    /// Synthesizes an adder.
    ///
    /// # Errors
    ///
    /// Propagates construction errors; well-formed specs never fail.
    pub fn adder(&self, spec: ComponentSpec) -> Result<Netlist, NetlistError> {
        let _span = aix_obs::span!(
            "synthesize",
            kind = "adder",
            width = spec.width(),
            precision = spec.precision(),
        );
        self.synthesize(Canonical::Adder(self.effort.adder_kind(), spec))
    }

    /// Synthesizes an adder with an explicit architecture override (used by
    /// the architecture-ablation benches).
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn adder_with(
        &self,
        kind: AdderKind,
        spec: ComponentSpec,
    ) -> Result<Netlist, NetlistError> {
        self.synthesize(Canonical::Adder(kind, spec))
    }

    /// Synthesizes a multiplier.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn multiplier(&self, spec: ComponentSpec) -> Result<Netlist, NetlistError> {
        let _span = aix_obs::span!(
            "synthesize",
            kind = "multiplier",
            width = spec.width(),
            precision = spec.precision(),
        );
        self.synthesize(Canonical::Multiplier(self.effort.multiplier_kind(), spec))
    }

    /// Synthesizes a multiplier with an explicit architecture override.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn multiplier_with(
        &self,
        kind: MultiplierKind,
        spec: ComponentSpec,
    ) -> Result<Netlist, NetlistError> {
        self.synthesize(Canonical::Multiplier(kind, spec))
    }

    /// Synthesizes a multiply-accumulate unit.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn mac(&self, spec: ComponentSpec) -> Result<Netlist, NetlistError> {
        let _span = aix_obs::span!(
            "synthesize",
            kind = "mac",
            width = spec.width(),
            precision = spec.precision(),
        );
        self.synthesize(Canonical::Mac(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sim::oracle;
    use aix_sta::analyze;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    #[test]
    fn effort_tokens_roundtrip() {
        for effort in Effort::ALL {
            assert_eq!(effort.token().parse::<Effort>().unwrap(), effort);
            assert_eq!(effort.to_string(), effort.token());
        }
        assert!("turbo".parse::<Effort>().is_err());
    }

    #[test]
    fn effort_orders_adder_delay() {
        let spec = ComponentSpec::full(16);
        let delay = |effort| {
            let nl = Synthesizer::new(lib(), effort).adder(spec).unwrap();
            analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps()
        };
        let area = delay(Effort::Area);
        let ultra = delay(Effort::Ultra);
        assert!(ultra < area, "ultra {ultra} must beat area {area}");
    }

    #[test]
    fn effort_orders_adder_area() {
        let spec = ComponentSpec::full(16);
        let area_of = |effort| {
            Synthesizer::new(lib(), effort)
                .adder(spec)
                .unwrap()
                .stats()
                .area_um2
        };
        assert!(area_of(Effort::Area) < area_of(Effort::Ultra));
    }

    #[test]
    fn synthesized_components_compute_correctly() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let synth = Synthesizer::new(lib(), Effort::Ultra);
        let mut rng = StdRng::seed_from_u64(31);
        let adder = synth.adder(ComponentSpec::full(16)).unwrap();
        let mult = synth.multiplier(ComponentSpec::full(12)).unwrap();
        for _ in 0..50 {
            let a = u64::from(rng.gen::<u16>());
            let b = u64::from(rng.gen::<u16>());
            let mut inputs = bus_from_u64(a, 16);
            inputs.extend(bus_from_u64(b, 16));
            assert_eq!(bus_to_u64(&oracle::eval(&adder, &inputs).unwrap()), a + b);
            let (a, b) = (a & 0xFFF, b & 0xFFF);
            let mut inputs = bus_from_u64(a, 12);
            inputs.extend(bus_from_u64(b, 12));
            assert_eq!(bus_to_u64(&oracle::eval(&mult, &inputs).unwrap()), a * b);
        }
    }

    #[test]
    fn truncation_shortens_synthesized_critical_path() {
        let synth = Synthesizer::new(lib(), Effort::Ultra);
        let full = synth.adder(ComponentSpec::full(32)).unwrap();
        let cut = synth.adder(ComponentSpec::new(32, 22).unwrap()).unwrap();
        let d_full = analyze(&full, &NetDelays::fresh(&full))
            .unwrap()
            .max_delay_ps();
        let d_cut = analyze(&cut, &NetDelays::fresh(&cut))
            .unwrap()
            .max_delay_ps();
        assert!(
            d_cut < d_full * 0.93,
            "10-bit truncation should buy >7% delay: {d_cut} vs {d_full}"
        );
    }

    #[test]
    fn mac_synthesis_correct_with_truncation() {
        let synth = Synthesizer::new(lib(), Effort::Medium);
        let spec = ComponentSpec::new(8, 5).unwrap();
        let nl = synth.mac(spec).unwrap();
        let (a, b, acc) = (0xABu64, 0xCDu64, 0x1234u64);
        let mut inputs = bus_from_u64(a, 8);
        inputs.extend(bus_from_u64(b, 8));
        inputs.extend(bus_from_u64(acc, 16));
        let expect = (spec.truncate(a) * spec.truncate(b) + acc) & 0xFFFF;
        assert_eq!(bus_to_u64(&oracle::eval(&nl, &inputs).unwrap()), expect);
    }
}
