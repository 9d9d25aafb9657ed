//! `aix serve`: a fault-tolerant characterization daemon.
//!
//! The daemon accepts concurrent `characterize` / `select-precision` /
//! `verify` requests over a length-prefixed JSON protocol ([`protocol`])
//! and runs them through the same fault-hardened engine the batch CLI
//! uses — so everything `aix-faults` can throw at a batch campaign can be
//! thrown at the daemon, and the daemon must degrade rather than die.
//!
//! The robustness surface, end to end:
//!
//! - **Deadlines** ([`protocol::WorkRequest::deadline`]): each request
//!   carries an optional budget that is propagated into the engine's
//!   [`aix_core::CancelToken`]; a past-deadline request cancels its
//!   remaining jobs and returns whatever partial results exist.
//! - **Backpressure** ([`queue`]): the request queue is bounded. When it
//!   is full the daemon sheds load with an `overloaded` response carrying
//!   a retry-after hint instead of queueing unboundedly.
//! - **Coalescing** ([`coalesce`]): identical in-flight campaigns (same
//!   fingerprint, deadline excluded) share one execution; late joiners
//!   subscribe to the in-flight result instead of re-running it.
//! - **Crash recovery** ([`journal`]): accepted requests are journaled
//!   before execution and marked done after; a daemon killed mid-request
//!   replays the pending work on restart, and the deterministic engine
//!   cache makes the replayed response byte-identical.
//! - **Graceful drain** ([`server`]): SIGTERM or a `shutdown` request
//!   stops intake, finishes queued work, flushes the journal and trace,
//!   and exits 0.
//! - **Admission priorities** ([`queue`]): the bounded queue carries two
//!   tiers — interactive `select-precision` overtakes bulk
//!   `characterize`/`verify`, and shedding stays bounded per tier.

pub mod client;
pub mod coalesce;
pub mod exec;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

pub use client::Client;
pub use protocol::{Request, Response, Status, WorkRequest};
pub use server::{install_sigterm_drain, Server, ServerConfig};
