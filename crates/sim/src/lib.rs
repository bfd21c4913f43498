//! Discrete-event network simulation substrate for Hyper-M (ICDE 2007).
//!
//! The paper evaluates Hyper-M on a home-grown Java simulator: *"We
//! implemented CAN … and simulated the parallel behavior of a peer-to-peer
//! network with a scheduler class and an event queue. Every message generated
//! in the network is sent to the event queue. Periodically, parallel
//! execution is simulated by emptying the queue."* This crate is the Rust
//! equivalent of that substrate, plus the two things the paper motivates but
//! never quantifies — the MANET radio underlay and an energy model:
//!
//! * [`event`] — a deterministic event queue (time + FIFO tie-break) and the
//!   round-based scheduler that emulates parallel execution: every message
//!   in flight advances one overlay hop per round, so the number of rounds
//!   to drain the queue is the *makespan* of a parallel insertion;
//! * [`stats`] — cheap atomic counters for messages/bytes and per-operation
//!   `OpStats` records (hops are the paper's primary metric);
//! * [`faults`] — deterministic message-level fault injection (per-hop
//!   drop/delay/dead-recipient with bounded retry), each hop resolved on
//!   its own event-queue timeline;
//! * [`energy`] — per-byte/per-message radio energy accounting with
//!   Bluetooth-class constants, used to substantiate the "energy efficient"
//!   claim of the abstract;
//! * [`load`] — the per-peer [`LoadLedger`]: exactly-once attribution of
//!   served queries, flood relays and fetches (plus bytes, retries and a
//!   radio-energy estimate), charged through the disabled-by-default
//!   [`LoadProbe`] overlay hook;
//! * [`underlay`] — a static unit-disk random-geometric-graph MANET: overlay
//!   hops are translated into physical radio hops via BFS path lengths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod event;
pub mod faults;
pub mod load;
pub mod stats;
pub mod underlay;

pub use energy::EnergyModel;
pub use event::{Event, EventQueue, Scheduler, SimTime};
pub use faults::{splitmix64, Backoff, FaultConfig, FaultInjector, FaultReport, HopDelivery};
pub use load::{LoadLedger, LoadProbe, PeerLoad};
pub use stats::{NetStats, OpKind, OpStats};
pub use underlay::{PartitionPlan, Underlay, UnderlayConfig};

/// Identifier of a simulated node. Nodes are dense indices into the
/// overlay/underlay tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
