//! # dde-netsim — deterministic discrete-event network simulation
//!
//! Substrate for the Athena reproduction, substituting for the EMANE-Shim
//! emulator the paper's evaluation used (§VII). The evaluation's results
//! depend on transfer times implied by object sizes over 1 Mbps links and on
//! hop-by-hop message ordering; this crate models exactly those:
//!
//! - [`topology`] — nodes, duplex links with bandwidth / propagation latency
//!   / loss, topology builders (line, ring, star, grid, random-connected),
//!   and all-pairs shortest-path next-hop routing;
//! - [`sim`] — the handler seam: the [`Protocol`] trait a node implements
//!   and the [`Context`] through which it sends to neighbors, sets timers
//!   and emits trace events;
//! - [`metrics`] — per-link and per-message-kind traffic accounting, the
//!   instrument behind the paper's Fig. 3 bandwidth comparison;
//! - [`fault`] — seeded, replayable fault timelines (node churn, link
//!   outages, partitions) the simulator applies at exact instants;
//! - [`partition`] — deterministic balanced region partitioning with
//!   conservative lookahead derived from boundary-link latency;
//! - [`shard`] — the engine, [`ShardedSimulator`]: FIFO links that
//!   serialize transmissions, timers, external stimuli and fault
//!   application, run as regions on up to `threads` workers in barrier
//!   windows sized by the lookahead. Stable partition-independent event
//!   keys mean one seed yields a byte-identical trace at any thread count,
//!   one included.

#![deny(missing_docs)]
// Determinism guardrails (see clippy.toml and dde-lint): hashed collections
// and ambient clocks/env reads are disallowed in simulation library code.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod fault;
pub mod metrics;
pub mod partition;
pub mod shard;
pub mod sim;
pub mod topology;

pub use fault::{FaultEvent, FaultSchedule, TimedFault};
pub use metrics::{KindCounters, Metrics};
pub use partition::Partition;
pub use shard::{EventKey, ShardedSimulator};
pub use sim::{Command, Context, MediumMode, Protocol, SendError, WireMessage};
pub use topology::{LinkSpec, NodeId, Topology};

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::fault::{FaultEvent, FaultSchedule};
    pub use crate::metrics::Metrics;
    pub use crate::partition::Partition;
    pub use crate::shard::ShardedSimulator;
    pub use crate::sim::{Context, Protocol, WireMessage};
    pub use crate::topology::{LinkSpec, NodeId, Topology};
    pub use dde_logic::time::{SimDuration, SimTime};
}
