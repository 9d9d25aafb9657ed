//! Gate-level generators for the arithmetic RTL components the paper
//! characterizes: adders, multipliers and multiply-accumulate (MAC) units.
//!
//! Every generator exists in two forms:
//!
//! * a *composable* form (`add_into`, `multiply_into`, `mac_into` and the
//!   `variant_*_into` functions) that instantiates logic into any
//!   [`aix_netlist::GateSink`] and wires it to caller-provided operand
//!   buses. A [`aix_netlist::Netlist`] is one sink; the synthesis
//!   optimizer's planner (`aix_synth::Planner`) is another, which
//!   simplifies each gate as it arrives and never stores the unoptimized
//!   graph;
//! * a *component* form ([`build_adder`], [`build_multiplier`],
//!   [`build_mac`], and the variants' [`Component::build`]) that produces a
//!   complete, validated netlist with named ports — the unit the paper's
//!   characterization flow synthesizes and ages. Each is a [`Component`],
//!   whose [`Component::build_into`] writes the same ports and gates into
//!   any sink.
//!
//! # Precision reduction
//!
//! The paper's generic approximation is truncation of least-significant
//! bits. [`ComponentSpec::precision`] below the full width ties the low
//! operand bits to constant zero; the synthesis optimizer
//! (`aix-synth`) then removes the dead logic, exactly like re-synthesizing
//! the component at reduced precision, which shortens its critical path.
//!
//! # Examples
//!
//! ```
//! use aix_arith::{build_adder, AdderKind, ComponentSpec};
//! use aix_cells::Library;
//! use std::sync::Arc;
//!
//! let lib = Arc::new(Library::nangate45_like());
//! let adder = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(8))?;
//! // Two 8-bit operand buses in; the 8-bit sum and the carry out.
//! assert_eq!(adder.inputs().len(), 16);
//! assert_eq!(adder.outputs().len(), 9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod adder;
mod cellset;
mod component;
mod mac;
mod multiplier;
mod spec;
mod variant;

pub use adder::{add_into, build_adder, AdderKind};
pub use component::{Canonical, Component};
pub use mac::{build_mac, mac_into};
pub use multiplier::{build_multiplier, multiply_into, MultiplierKind};
pub use spec::{ComponentSpec, InvalidSpecError};
pub use variant::{
    variant_add_into, variant_mac_into, variant_multiply_into, AdderVariant, MacVariant,
    MultiplierVariant,
};

pub(crate) use cellset::CellSet;
