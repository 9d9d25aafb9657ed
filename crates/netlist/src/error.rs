//! Netlist construction and validation errors.

use crate::{GateId, NetId};
use std::error::Error;
use std::fmt;

/// Errors produced while building, validating or evaluating a [`crate::Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate was instantiated with the wrong number of input connections.
    ArityMismatch {
        /// Cell name of the offending instance.
        cell: String,
        /// Pins the cell expects.
        expected: usize,
        /// Connections provided.
        provided: usize,
    },
    /// A net is read by a gate or output port but has no driver.
    UndrivenNet(NetId),
    /// A net would be driven by more than one source.
    MultipleDrivers(NetId),
    /// The gate graph contains a combinational cycle through this gate.
    CombinationalCycle(GateId),
    /// A sequential cell was instantiated in a combinational netlist.
    SequentialCell {
        /// The offending gate.
        gate: GateId,
        /// Cell name of the instance.
        cell: String,
    },
    /// An evaluation was invoked with the wrong number of input values.
    InputWidthMismatch {
        /// Number of primary inputs of the netlist.
        expected: usize,
        /// Number of values provided.
        provided: usize,
    },
    /// The netlist declares no primary outputs.
    NoOutputs,
    /// A referenced net id does not exist in this netlist.
    UnknownNet(NetId),
    /// A delay annotation is unusable for timed simulation (NaN, negative,
    /// or non-finite). The offending value is carried as its `{:?}` rendering
    /// so the variant stays `Eq`.
    InvalidDelay {
        /// Net whose annotation is invalid.
        net: NetId,
        /// The rejected delay value, rendered as text.
        delay: String,
    },
    /// A delay annotation an incremental timer cannot keep in step with
    /// cell swaps: it carries no per-gate derating factor (raw, re-scaled,
    /// table-based or combined-model annotations) or was built for a
    /// different netlist. The payload says which.
    NotRetimeable(&'static str),
    /// A clock period is unusable for timed simulation (NaN or negative).
    /// `+∞` is valid and means "never sample". The offending value is
    /// carried as its `{:?}` rendering so the variant stays `Eq`.
    InvalidClock {
        /// The rejected clock period, rendered as text.
        clock: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch {
                cell,
                expected,
                provided,
            } => write!(
                f,
                "cell `{cell}` expects {expected} inputs but {provided} were connected"
            ),
            NetlistError::UndrivenNet(net) => write!(f, "net {net} has no driver"),
            NetlistError::MultipleDrivers(net) => {
                write!(f, "net {net} is driven by more than one source")
            }
            NetlistError::CombinationalCycle(gate) => {
                write!(f, "combinational cycle through gate {gate}")
            }
            NetlistError::SequentialCell { gate, cell } => write!(
                f,
                "sequential cell `{cell}` (gate {gate}) in combinational netlist"
            ),
            NetlistError::InputWidthMismatch { expected, provided } => write!(
                f,
                "netlist has {expected} primary inputs but {provided} values were supplied"
            ),
            NetlistError::NoOutputs => write!(f, "netlist declares no primary outputs"),
            NetlistError::UnknownNet(net) => write!(f, "net {net} does not exist"),
            NetlistError::InvalidDelay { net, delay } => write!(
                f,
                "net {net} has invalid delay annotation {delay} ps (must be finite and >= 0)"
            ),
            NetlistError::NotRetimeable(why) => {
                write!(
                    f,
                    "delay annotation cannot be re-timed incrementally: {why}"
                )
            }
            NetlistError::InvalidClock { clock } => {
                write!(f, "invalid clock period {clock} ps (must be >= 0 or +inf)")
            }
        }
    }
}

impl Error for NetlistError {}
