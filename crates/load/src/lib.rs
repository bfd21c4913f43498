//! Load balancing and hot-spot relief for Hyper-M networks.
//!
//! The paper's CAN zones are carved by *data* placement, but query traffic
//! is rarely uniform: a Zipf-skewed workload concentrates phase-1 floods on
//! the handful of overlay nodes whose zones cover the popular query
//! centres, and those hosts burn disproportionate messages, bytes and —
//! on a MANET — battery. This crate measures that imbalance and relieves
//! it with two independently toggleable mechanisms, both layered on
//! primitives the repair subsystem already ships:
//!
//! * **Measurement** — [`LoadBalancer::install`] wires a
//!   [`hyperm_sim::LoadLedger`] into every overlay level (served lookups,
//!   flood relays, answered fetches, bytes, retries, exactly-once
//!   attribution) and [`LoadBalancer::snapshot`] folds it into a
//!   [`LoadSnapshot`]: max/median/p99 per-peer load, the Gini coefficient,
//!   per-zone heat and a radio-energy estimate.
//! * **Virtual nodes** — join-time placement carves extra "virtual zones"
//!   per level (seeded random split points, granted round-robin), so each
//!   host owns several small scattered zones instead of one big one;
//!   [`LoadBalancer::relieve`] migrates the hottest host's largest virtual
//!   zone to the coldest host through the leave/takeover replica handoff.
//! * **Load-triggered splits/merges** — when the max/median load ratio
//!   exceeds [`LoadConfig::split_ratio`], the hottest zone is halved and
//!   one half granted to the coldest host (replicas copied, the candidate
//!   set only grows — Theorem 4.1 holds); when load flattens again the
//!   background dyadic sibling merge (`repair_to_quiescence`) folds the
//!   fragments back.
//!
//! Everything defaults to **off**: a network without an installed balancer
//! (or with [`LoadConfig::default`]) is bit-identical — results and
//! telemetry both — to one that has never heard of this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod balancer;
mod config;
mod snapshot;

pub use balancer::{LoadBalancer, ReliefReport};
pub use config::LoadConfig;
pub use snapshot::LoadSnapshot;

pub use hyperm_sim::{LoadLedger, PeerLoad};
