//! Complete components: named ports plus the generator's gates, written
//! into any [`GateSink`].

use crate::adder::truncate_bus;
use crate::{add_into, mac_into, multiply_into, AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_netlist::{GateSink, NetId, Netlist, NetlistError};
use std::sync::Arc;

/// A complete arithmetic component: its generator writes the ports and
/// every gate into a [`GateSink`], so the same description builds a
/// [`Netlist`] or feeds a consumer that never stores the unoptimized graph.
pub trait Component {
    /// The name of the component's netlist.
    fn name(&self) -> String;

    /// Writes the component's ports and gates into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from the sink.
    fn build_into(&self, sink: &mut impl GateSink) -> Result<(), NetlistError>;

    /// Builds the component as a validated netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from construction and validation.
    fn build(&self, library: &Arc<Library>) -> Result<Netlist, NetlistError> {
        let mut nl = Netlist::new(self.name(), Arc::clone(library));
        self.build_into(&mut nl)?;
        nl.validate()?;
        Ok(nl)
    }
}

/// The components [`crate::build_adder`], [`crate::build_multiplier`] and
/// [`crate::build_mac`] build: one canonical architecture at a
/// [`ComponentSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Canonical {
    /// Inputs `a`, `b`; outputs `sum[width]` plus `cout`.
    Adder(AdderKind, ComponentSpec),
    /// Inputs `a`, `b`; output `p` of `2 × width` bits.
    Multiplier(MultiplierKind, ComponentSpec),
    /// Inputs `a`, `b` and `acc` of `2 × width` bits; output `out`. The
    /// core is the carry-save array, the accumulator carry-select.
    Mac(ComponentSpec),
}

impl Component for Canonical {
    fn name(&self) -> String {
        match self {
            Canonical::Adder(kind, spec) => format!("adder_{}_{spec}", kind.label()),
            Canonical::Multiplier(kind, spec) => format!("mult_{}_{spec}", kind.label()),
            Canonical::Mac(spec) => format!("mac_{spec}"),
        }
    }

    fn build_into(&self, sink: &mut impl GateSink) -> Result<(), NetlistError> {
        match *self {
            Canonical::Adder(kind, spec) => {
                let (a, b, _) = operands(sink, spec, 0);
                let (sum, cout) = add_into(sink, kind, &a, &b, None)?;
                sink.mark_output_bus("sum", &sum);
                sink.mark_output("cout", cout);
            }
            Canonical::Multiplier(kind, spec) => {
                let (a, b, _) = operands(sink, spec, 0);
                let product = multiply_into(sink, kind, &a, &b)?;
                sink.mark_output_bus("p", &product);
            }
            Canonical::Mac(spec) => {
                let (a, b, acc) = operands(sink, spec, 2 * spec.width());
                let out = mac_into(
                    sink,
                    MultiplierKind::Array,
                    AdderKind::CarrySelect,
                    &a,
                    &b,
                    &acc,
                )?;
                sink.mark_output_bus("out", &out);
            }
        }
        Ok(())
    }
}

/// Adds a component's input ports: operand buses `a` and `b` of
/// `spec.width()` bits, then an accumulator bus `acc` of `acc_bits` (none
/// when zero). Returns `a` and `b` with their truncated bits tied to
/// constant zero, and `acc`.
pub(crate) fn operands(
    sink: &mut impl GateSink,
    spec: ComponentSpec,
    acc_bits: usize,
) -> (Vec<NetId>, Vec<NetId>, Vec<NetId>) {
    let a = sink.add_input_bus("a", spec.width());
    let b = sink.add_input_bus("b", spec.width());
    let acc = sink.add_input_bus("acc", acc_bits);
    let a = truncate_bus(sink, &a, spec);
    let b = truncate_bus(sink, &b, spec);
    (a, b, acc)
}
