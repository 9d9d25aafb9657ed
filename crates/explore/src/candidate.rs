//! Search-space candidates: a tagged union over the `aix-arith` variant
//! generators, with deterministic labels and neighbourhood enumeration for
//! the evolutionary loop.

use aix_arith::{
    AdderKind, AdderVariant, Component, ComponentSpec, MacVariant, MultiplierKind,
    MultiplierVariant,
};
use aix_cells::Library;
use aix_core::ComponentKind;
use aix_netlist::{GateSink, Netlist, NetlistError};
use aix_synth::Planner;
use std::fmt;
use std::sync::Arc;

/// One point in the approximation design space: a fully parameterized
/// variant of an arithmetic component, buildable as a real netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Candidate {
    /// An [`AdderVariant`].
    Adder(AdderVariant),
    /// A [`MultiplierVariant`].
    Multiplier(MultiplierVariant),
    /// A [`MacVariant`].
    Mac(MacVariant),
}

impl Candidate {
    /// The exact (zero-knob) candidate for `kind` at full `width` —
    /// the origin of the search space, bit-identical to the canonical
    /// generators.
    pub fn exact(kind: ComponentKind, width: usize) -> Candidate {
        let spec = ComponentSpec::full(width);
        match kind {
            ComponentKind::Adder => {
                Candidate::Adder(AdderVariant::exact(AdderKind::CarrySelect, spec))
            }
            ComponentKind::Multiplier => {
                Candidate::Multiplier(MultiplierVariant::exact(MultiplierKind::Wallace, spec))
            }
            ComponentKind::Mac => Candidate::Mac(MacVariant::exact(spec)),
        }
    }

    /// The uniform-truncation candidate at `precision` — the paper's only
    /// approximation, expressed in variant space. Returns `None` for
    /// out-of-range precisions.
    pub fn truncated(kind: ComponentKind, width: usize, precision: usize) -> Option<Candidate> {
        let spec = ComponentSpec::new(width, precision).ok()?;
        Some(match kind {
            ComponentKind::Adder => {
                Candidate::Adder(AdderVariant::exact(AdderKind::CarrySelect, spec))
            }
            ComponentKind::Multiplier => {
                Candidate::Multiplier(MultiplierVariant::exact(MultiplierKind::Wallace, spec))
            }
            ComponentKind::Mac => {
                let mut mac = MacVariant::exact(ComponentSpec::full(width));
                mac.mult.spec = spec;
                Candidate::Mac(mac)
            }
        })
    }

    /// Which component family this candidate approximates.
    pub fn kind(&self) -> ComponentKind {
        match self {
            Candidate::Adder(_) => ComponentKind::Adder,
            Candidate::Multiplier(_) => ComponentKind::Multiplier,
            Candidate::Mac(_) => ComponentKind::Mac,
        }
    }

    /// Operand width.
    pub fn width(&self) -> usize {
        match self {
            Candidate::Adder(v) => v.spec.width(),
            Candidate::Multiplier(v) => v.spec.width(),
            Candidate::Mac(v) => v.mult.spec.width(),
        }
    }

    /// Whether every approximation knob is at its exact setting (a possibly
    /// truncated spec is still "exact" in variant space).
    pub fn is_exact(&self) -> bool {
        match self {
            Candidate::Adder(v) => v.is_exact(),
            Candidate::Multiplier(v) => v.is_exact(),
            Candidate::Mac(v) => v.is_exact(),
        }
    }

    /// A stable human-readable identity; doubles as the search's seen-set
    /// key and the quarantine site name.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Builds the candidate's netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from construction.
    pub fn build(&self, library: &Arc<Library>) -> Result<Netlist, NetlistError> {
        Component::build(self, library)
    }

    /// The candidate's optimized netlist, as the search scores it: the
    /// generator writes straight into the optimizer's [`Planner`], so the
    /// unoptimized netlist is never built. Byte for byte
    /// `aix_synth::optimize(&self.build(library)?)`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from construction.
    pub fn build_optimized(&self, library: &Arc<Library>) -> Result<Netlist, NetlistError> {
        Planner::plan(self, library)?.finish()
    }

    /// Deterministic neighbourhood for the evolutionary loop: small steps on
    /// each knob plus architecture swaps, in a fixed enumeration order. The
    /// caller dedupes against its seen-set.
    pub fn neighbors(&self) -> Vec<Candidate> {
        match self {
            Candidate::Adder(v) => adder_neighbors(v)
                .into_iter()
                .map(Candidate::Adder)
                .collect(),
            Candidate::Multiplier(v) => mult_neighbors(v)
                .into_iter()
                .map(Candidate::Multiplier)
                .collect(),
            Candidate::Mac(v) => {
                let mut out = Vec::new();
                for m in mult_neighbors(&v.mult) {
                    out.push(Candidate::Mac(MacVariant {
                        mult: m,
                        adder: v.adder,
                    }));
                }
                for a in adder_neighbors(&v.adder) {
                    out.push(Candidate::Mac(MacVariant {
                        mult: v.mult,
                        adder: a,
                    }));
                }
                out
            }
        }
    }
}

/// The variant's ports and gates; the netlist is named after the variant.
impl Component for Candidate {
    fn name(&self) -> String {
        match self {
            Candidate::Adder(v) => v.name(),
            Candidate::Multiplier(v) => v.name(),
            Candidate::Mac(v) => v.name(),
        }
    }

    fn build_into(&self, sink: &mut impl GateSink) -> Result<(), NetlistError> {
        match self {
            Candidate::Adder(v) => v.build_into(sink),
            Candidate::Multiplier(v) => v.build_into(sink),
            Candidate::Mac(v) => v.build_into(sink),
        }
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Candidate::Adder(v) => write!(f, "add-{v}"),
            Candidate::Multiplier(v) => write!(f, "mul-{v}"),
            Candidate::Mac(v) => write!(f, "mac-{v}"),
        }
    }
}

fn adder_neighbors(v: &AdderVariant) -> Vec<AdderVariant> {
    let w = v.spec.width();
    let mut out = Vec::new();
    // Lower-OR region steps.
    for lo in knob_steps(v.lower_or_bits, w.saturating_sub(1)) {
        out.push(AdderVariant {
            lower_or_bits: lo,
            ..*v
        });
    }
    // Approximate-FA region steps.
    for afa in knob_steps(v.approx_fa_bits, w.saturating_sub(1)) {
        out.push(AdderVariant {
            approx_fa_bits: afa,
            ..*v
        });
    }
    // Segment lengths: off, and a few chain cuts.
    let mut segments = vec![0, 4, 8, w / 2];
    segments.sort_unstable();
    segments.dedup();
    for seg in segments {
        if seg != v.segment_bits && seg < w {
            out.push(AdderVariant {
                segment_bits: seg,
                ..*v
            });
        }
    }
    // Uniform truncation steps.
    for spec in spec_steps(v.spec) {
        out.push(AdderVariant { spec, ..*v });
    }
    // Architecture swaps at the same knobs.
    for kind in AdderKind::ALL {
        if kind != v.kind {
            out.push(AdderVariant { kind, ..*v });
        }
    }
    out
}

fn mult_neighbors(v: &MultiplierVariant) -> Vec<MultiplierVariant> {
    let w = v.spec.width();
    let max_col = (2 * w).saturating_sub(2);
    let mut out = Vec::new();
    for col in knob_steps(v.pruned_columns, max_col) {
        out.push(MultiplierVariant {
            pruned_columns: col,
            ..*v
        });
    }
    for mlo in knob_steps(v.merge_lower_or, max_col) {
        out.push(MultiplierVariant {
            merge_lower_or: mlo,
            ..*v
        });
    }
    for spec in spec_steps(v.spec) {
        out.push(MultiplierVariant { spec, ..*v });
    }
    for kind in MultiplierKind::ALL {
        if kind != v.kind {
            out.push(MultiplierVariant { kind, ..*v });
        }
    }
    out
}

/// ±1 and ±2 steps of a knob, clamped to `0..=max`, excluding the current
/// value, in ascending order.
fn knob_steps(current: usize, max: usize) -> Vec<usize> {
    let mut steps = Vec::new();
    for delta in [-2i64, -1, 1, 2] {
        let next = current as i64 + delta;
        if next >= 0 && next as usize <= max && next as usize != current {
            steps.push(next as usize);
        }
    }
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// ±1 precision steps of a spec, staying within `1..=width`.
fn spec_steps(spec: ComponentSpec) -> Vec<ComponentSpec> {
    let mut out = Vec::new();
    for delta in [-1i64, 1] {
        let p = spec.precision() as i64 + delta;
        if p >= 1 {
            if let Ok(next) = ComponentSpec::new(spec.width(), p as usize) {
                out.push(next);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_across_neighbors() {
        let base = Candidate::exact(ComponentKind::Adder, 16);
        let mut labels: Vec<String> = base.neighbors().iter().map(Candidate::label).collect();
        labels.push(base.label());
        let count = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), count, "duplicate neighbor labels");
    }

    #[test]
    fn exact_candidates_build_for_all_kinds() {
        let lib = Arc::new(Library::nangate45_like());
        for kind in ComponentKind::ALL {
            let candidate = Candidate::exact(kind, 4);
            assert!(candidate.is_exact());
            let nl = candidate.build(&lib).unwrap();
            assert!(nl.stats().gate_count > 0);
        }
    }

    #[test]
    fn neighbors_stay_in_range() {
        let candidate = Candidate::Multiplier(MultiplierVariant {
            kind: MultiplierKind::Wallace,
            spec: ComponentSpec::full(8),
            pruned_columns: 14,
            merge_lower_or: 0,
        });
        for n in candidate.neighbors() {
            if let Candidate::Multiplier(v) = n {
                assert!(v.pruned_columns <= 14, "pruning must stay below width");
            }
        }
    }
}
