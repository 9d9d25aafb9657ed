//! Gate-level netlist intermediate representation.
//!
//! A [`Netlist`] is a directed graph of standard-cell instances ([`Gate`])
//! connected by wires ([`Net`]). Netlists in this workspace are purely
//! combinational — they model the datapath logic between register stages,
//! which is exactly the granularity at which the paper characterizes RTL
//! components and analyzes timing.
//!
//! The crate provides construction, validation, topological ordering,
//! structural statistics, import and Verilog, EDIF and DOT export.
//! Evaluation lives with the simulators in `aix-sim`.
//!
//! # Examples
//!
//! Build and validate a one-bit half adder:
//!
//! ```
//! use aix_cells::{CellFunction, DriveStrength, Library};
//! use aix_netlist::Netlist;
//! use std::sync::Arc;
//!
//! let lib = Arc::new(Library::nangate45_like());
//! let mut nl = Netlist::new("ha", lib.clone());
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let ha = lib.find(CellFunction::HalfAdder, DriveStrength::X1).unwrap();
//! let out = nl.add_gate(ha, &[a, b])?;
//! nl.mark_output("sum", out[0]);
//! nl.mark_output("carry", out[1]);
//! nl.validate()?;
//! assert_eq!(nl.gate_count(), 1);
//! assert_eq!((nl.inputs().len(), nl.outputs().len()), (2, 2));
//! # Ok::<(), aix_netlist::NetlistError>(())
//! ```

mod bus;
mod dot;
mod edif;
mod error;
mod graph;
pub mod import;
mod names;
mod netlist;
mod pins;
mod sink;
mod stats;
mod verilog;

pub use bus::{bus_from_u64, bus_to_u64, Bus};
pub use dot::to_dot;
pub use edif::to_edif;
pub use error::NetlistError;
pub use graph::Schedule;
pub use import::{
    import_edif, import_edif_with, import_netlist, import_verilog, import_verilog_with,
    CellAliases, ImportError, ImportFormat, Loc,
};
pub use netlist::{Gate, GateId, Net, NetDriver, NetId, Netlist, PortDirection};
pub use pins::Pins;
pub use sink::GateSink;
pub use stats::NetlistStats;
pub use verilog::to_verilog;
