//! The construction interface generators write gates into.

use crate::{NetId, Netlist, NetlistError, Pins};
use aix_cells::{CellId, Library, MAX_OUTPUTS};
use std::sync::Arc;

/// Somewhere gates can be generated into: a [`Netlist`], or a consumer
/// that processes each gate as it arrives instead of storing the graph
/// (the synthesis optimizer's planner).
///
/// A sink hands out net ids the way a netlist does: one per primary input,
/// one per constant value on first use and one per gate output pin, in
/// creation order. Every gate reads only nets created before it, so the
/// order gates are added in is a topological order.
pub trait GateSink {
    /// The cell library gates are instantiated from.
    fn library(&self) -> &Arc<Library>;

    /// Adds a named primary input and returns its net.
    fn add_input(&mut self, name: impl Into<String>) -> NetId;

    /// The net carrying constant `value`, created on first use.
    fn constant(&mut self, value: bool) -> NetId;

    /// Instantiates `cell` over `inputs`, returning its output nets in pin
    /// order.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ArityMismatch`] if the connection count does not
    /// match the cell's pin count, and [`NetlistError::UnknownNet`] if any
    /// input net does not exist.
    fn add_gate(
        &mut self,
        cell: CellId,
        inputs: &[NetId],
    ) -> Result<Pins<MAX_OUTPUTS>, NetlistError>;

    /// Declares `net` as the primary output named `name`.
    fn mark_output(&mut self, name: impl Into<String>, net: NetId);

    /// Adds a `width`-bit input bus named `name`, LSB first
    /// (`name[0]`, `name[1]`, …).
    fn add_input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.add_input(format!("{name}[{i}]")))
            .collect()
    }

    /// Declares a whole bus of outputs, LSB first.
    fn mark_output_bus(&mut self, name: &str, nets: &[NetId]) {
        for (i, &net) in nets.iter().enumerate() {
            self.mark_output(format!("{name}[{i}]"), net);
        }
    }
}

impl GateSink for Netlist {
    fn library(&self) -> &Arc<Library> {
        Netlist::library(self)
    }

    fn add_input(&mut self, name: impl Into<String>) -> NetId {
        Netlist::add_input(self, name)
    }

    fn constant(&mut self, value: bool) -> NetId {
        Netlist::constant(self, value)
    }

    fn add_gate(
        &mut self,
        cell: CellId,
        inputs: &[NetId],
    ) -> Result<Pins<MAX_OUTPUTS>, NetlistError> {
        Netlist::add_gate(self, cell, inputs)
    }

    fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        Netlist::mark_output(self, name, net)
    }
}
