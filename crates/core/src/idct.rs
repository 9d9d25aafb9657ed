//! The IDCT microarchitecture of the paper's case study.

use crate::{ComponentKind, MicroarchDesign};
use aix_cells::Library;
use aix_netlist::NetlistError;
use aix_synth::Effort;
use std::sync::Arc;

/// Block names of the IDCT design, in order.
pub const IDCT_BLOCK_NAMES: [&str; 3] = ["multiplier", "accumulator", "rounding"];

/// Builds the IDCT microarchitecture the paper evaluates: a 32-bit
/// coefficient multiplier (the critical-path block), a 32-bit accumulator
/// and a 16-bit rounding/level-shift adder, each a registered combinational
/// block sharing one clock.
///
/// # Errors
///
/// Propagates synthesis errors; never fails for the built-in library.
///
/// # Examples
///
/// ```
/// use aix_core::idct_design;
/// use aix_cells::Library;
/// use aix_synth::Effort;
/// use std::sync::Arc;
///
/// let cells = Arc::new(Library::nangate45_like());
/// let design = idct_design(&cells, Effort::Medium)?;
/// assert_eq!(design.blocks().len(), 3);
/// # Ok::<(), aix_netlist::NetlistError>(())
/// ```
pub fn idct_design(
    library: &Arc<Library>,
    effort: Effort,
) -> Result<MicroarchDesign, NetlistError> {
    let mut design = MicroarchDesign::new("idct", effort);
    design.add_block(library, "multiplier", ComponentKind::Multiplier, 32)?;
    design.add_block(library, "accumulator", ComponentKind::Adder, 32)?;
    design.add_block(library, "rounding", ComponentKind::Adder, 16)?;
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_sta::{analyze, NetDelays};

    #[test]
    fn multiplier_is_the_critical_block() {
        let cells = Arc::new(Library::nangate45_like());
        let design = idct_design(&cells, Effort::Medium).unwrap();
        let constraint = design.timing_constraint().unwrap();
        let delays: Vec<f64> = design
            .blocks()
            .iter()
            .map(|b| {
                analyze(&b.netlist, &NetDelays::fresh(&b.netlist))
                    .unwrap()
                    .max_delay_ps()
            })
            .collect();
        assert_eq!(
            delays[0],
            constraint.period_ps(),
            "the multiplier sets the clock"
        );
        assert!(delays[1] < delays[0] && delays[2] < delays[1]);
    }

    #[test]
    fn block_names_match_constant() {
        let cells = Arc::new(Library::nangate45_like());
        let design = idct_design(&cells, Effort::Medium).unwrap();
        let names: Vec<&str> = design.blocks().iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, IDCT_BLOCK_NAMES);
    }
}
