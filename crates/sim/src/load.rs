//! Per-peer load accounting for hot-spot analysis and relief.
//!
//! The paper assumes queries arrive uniformly over the key space; under a
//! realistic Zipf-skewed workload a handful of CAN zones absorb most of
//! the traffic while the rest idle — which on MANET peers also means
//! skewed battery drain. The [`LoadLedger`] attributes every served
//! query, relayed flood visit and answered fetch to **exactly one peer**
//! (the peer whose radio transmits the reply), so the load-balancing
//! layer (`hyperm-load`) can find the hot hosts and the experiments can
//! report max/median/p99 per-peer load, Gini coefficients and per-zone
//! heat maps.
//!
//! Accounting is strictly observational: charging never changes results,
//! costs or telemetry, and the overlay hooks are behind an
//! [`Option`]-backed [`LoadProbe`] that is disabled by default — when no
//! ledger is installed the query paths are bit-identical to an
//! uninstrumented build (asserted by
//! `tests/load_measurement.rs::measurement_only_balancer_is_bit_identical_and_telemetry_byte_equal`).
//!
//! Counters are relaxed atomics: the ledger is shared behind an [`Arc`]
//! and charged from `&self` query paths without locks. Exact
//! cross-thread ordering is irrelevant — only the final sums are read.

use crate::energy::EnergyModel;
use crate::stats::OpStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One peer's accumulated load, as plain numbers (a snapshot of the
/// ledger's atomic cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerLoad {
    /// Range/point queries this peer answered as the flood entry owner.
    pub queries_served: u64,
    /// Flood visits this peer served as a relay (store scan + reply).
    pub floods_relayed: u64,
    /// Phase-2 direct fetches this peer answered from its local data.
    pub fetches_answered: u64,
    /// Messages this peer transmitted while serving the above.
    pub messages: u64,
    /// Bytes this peer transmitted while serving the above.
    pub bytes: u64,
    /// Lossy-hop retransmissions this peer paid for as the sender.
    pub retries: u64,
}

impl PeerLoad {
    /// Total served events — the scalar "load" the balancer compares
    /// across peers (queries + flood relays + fetches).
    pub fn events(&self) -> u64 {
        self.queries_served + self.floods_relayed + self.fetches_answered
    }

    /// Radio energy this peer spent serving, in joules, under `model`.
    pub fn energy_j(&self, model: &EnergyModel) -> f64 {
        model.op_joules(OpStats {
            messages: self.messages,
            bytes: self.bytes,
            retries: self.retries,
            ..OpStats::zero()
        })
    }
}

/// Per-peer atomic cells (one [`PeerCell`] per peer, relaxed ordering).
#[derive(Debug, Default)]
struct PeerCell {
    queries_served: AtomicU64,
    floods_relayed: AtomicU64,
    fetches_answered: AtomicU64,
    messages: AtomicU64,
    bytes: AtomicU64,
    retries: AtomicU64,
}

impl PeerCell {
    fn snapshot(&self) -> PeerLoad {
        PeerLoad {
            queries_served: self.queries_served.load(Ordering::Relaxed),
            floods_relayed: self.floods_relayed.load(Ordering::Relaxed),
            fetches_answered: self.fetches_answered.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.queries_served.store(0, Ordering::Relaxed);
        self.floods_relayed.store(0, Ordering::Relaxed);
        self.fetches_answered.store(0, Ordering::Relaxed);
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
    }
}

/// Thread-safe per-peer load ledger.
///
/// Sized at creation for a fixed peer population and level count; peers
/// that join after the ledger was installed fall outside the table and
/// are silently untracked (install a fresh ledger after membership
/// changes to track them). Every charge site attributes the work to the
/// **single** peer that serves it — the flood relay that scans its store
/// and transmits the reply, the owner that admits the query, the peer
/// that answers the fetch — so sums over the ledger equal the per-query
/// `OpStats` without double counting (regression-tested in
/// `crates/load/tests/balancer.rs::measurement_charges_queries_and_fetches`).
#[derive(Debug)]
pub struct LoadLedger {
    cells: Vec<PeerCell>,
    /// Flood-visit heat per `(level, peer)`, row-major by level.
    heat: Vec<AtomicU64>,
    levels: usize,
}

impl LoadLedger {
    /// A ledger for `peers` peers across `levels` wavelet levels.
    pub fn new(peers: usize, levels: usize) -> Self {
        Self {
            cells: (0..peers).map(|_| PeerCell::default()).collect(),
            heat: (0..peers * levels).map(|_| AtomicU64::new(0)).collect(),
            levels,
        }
    }

    /// Number of tracked peers.
    pub fn peers(&self) -> usize {
        self.cells.len()
    }

    /// Number of tracked wavelet levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Charge `peer` with admitting one query as the flood entry owner.
    pub fn charge_query_served(&self, peer: usize) {
        if let Some(c) = self.cells.get(peer) {
            c.queries_served.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge `peer` with serving one flood visit at `level`: a store
    /// scan plus a `bytes`-sized reply transmission.
    pub fn charge_flood_visit(&self, level: usize, peer: usize, bytes: u64) {
        if let Some(c) = self.cells.get(peer) {
            c.floods_relayed.fetch_add(1, Ordering::Relaxed);
            c.messages.fetch_add(1, Ordering::Relaxed);
            c.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        if level < self.levels {
            if let Some(h) = self.heat.get(level * self.cells.len() + peer) {
                h.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Charge `peer` with answering one phase-2 direct fetch of `bytes`.
    pub fn charge_fetch_answered(&self, peer: usize, bytes: u64) {
        if let Some(c) = self.cells.get(peer) {
            c.fetches_answered.fetch_add(1, Ordering::Relaxed);
            c.messages.fetch_add(1, Ordering::Relaxed);
            c.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Charge `peer` with `n` lossy-hop retransmissions it sent.
    pub fn charge_retries(&self, peer: usize, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(c) = self.cells.get(peer) {
            c.retries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Every peer's accumulated load, indexed by peer id.
    pub fn per_peer(&self) -> Vec<PeerLoad> {
        self.cells.iter().map(PeerCell::snapshot).collect()
    }

    /// Flood-visit heat per peer at `level` (empty if out of range).
    pub fn heat_of(&self, level: usize) -> Vec<u64> {
        if level >= self.levels {
            return Vec::new();
        }
        let n = self.cells.len();
        self.heat[level * n..(level + 1) * n]
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of served events across all peers.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.snapshot().events()).sum()
    }

    /// Zero every counter (start a fresh measurement window).
    pub fn reset(&self) {
        for c in &self.cells {
            c.reset();
        }
        for h in &self.heat {
            h.store(0, Ordering::Relaxed);
        }
    }
}

/// A cheap-clone charging handle installed on one per-level overlay.
///
/// Mirrors the telemetry `Recorder` slot pattern: disabled by default
/// (`LoadProbe::disabled()`), and every charge method is a no-op costing
/// one `Option` check when no ledger is attached — accounting is free
/// when off.
#[derive(Debug, Clone, Default)]
pub struct LoadProbe {
    ledger: Option<Arc<LoadLedger>>,
    level: usize,
}

impl LoadProbe {
    /// The default no-op probe.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A probe charging `ledger` on behalf of wavelet `level`.
    pub fn new(ledger: Arc<LoadLedger>, level: usize) -> Self {
        Self {
            ledger: Some(ledger),
            level,
        }
    }

    /// Whether a ledger is attached.
    pub fn is_enabled(&self) -> bool {
        self.ledger.is_some()
    }

    /// Charge one admitted query to `peer` (see
    /// [`LoadLedger::charge_query_served`]).
    pub fn query_served(&self, peer: usize) {
        if let Some(l) = &self.ledger {
            l.charge_query_served(peer);
        }
    }

    /// Charge one served flood visit to `peer` (see
    /// [`LoadLedger::charge_flood_visit`]).
    pub fn flood_visit(&self, peer: usize, bytes: u64) {
        if let Some(l) = &self.ledger {
            l.charge_flood_visit(self.level, peer, bytes);
        }
    }

    /// Charge `n` retransmissions to sender `peer` (see
    /// [`LoadLedger::charge_retries`]).
    pub fn retries(&self, peer: usize, n: u64) {
        if let Some(l) = &self.ledger {
            l.charge_retries(peer, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_attribute_to_exactly_one_peer() {
        let ledger = LoadLedger::new(4, 2);
        ledger.charge_query_served(1);
        ledger.charge_flood_visit(0, 1, 100);
        ledger.charge_flood_visit(1, 2, 50);
        ledger.charge_fetch_answered(3, 200);
        ledger.charge_retries(2, 2);

        let loads = ledger.per_peer();
        assert_eq!(loads[0], PeerLoad::default());
        assert_eq!(loads[1].queries_served, 1);
        assert_eq!(loads[1].floods_relayed, 1);
        assert_eq!(loads[1].bytes, 100);
        assert_eq!(loads[2].floods_relayed, 1);
        assert_eq!(loads[2].retries, 2);
        assert_eq!(loads[3].fetches_answered, 1);
        assert_eq!(loads[3].bytes, 200);
        assert_eq!(ledger.total_events(), 4);
        assert_eq!(ledger.heat_of(0), vec![0, 1, 0, 0]);
        assert_eq!(ledger.heat_of(1), vec![0, 0, 1, 0]);
    }

    #[test]
    fn out_of_table_peers_are_ignored() {
        let ledger = LoadLedger::new(2, 1);
        ledger.charge_query_served(9);
        ledger.charge_flood_visit(0, 9, 10);
        ledger.charge_fetch_answered(9, 10);
        ledger.charge_retries(9, 1);
        assert_eq!(ledger.total_events(), 0);
        assert_eq!(ledger.per_peer(), vec![PeerLoad::default(); 2]);
    }

    #[test]
    fn reset_clears_every_counter() {
        let ledger = LoadLedger::new(2, 1);
        ledger.charge_flood_visit(0, 0, 10);
        ledger.charge_fetch_answered(1, 5);
        ledger.reset();
        assert_eq!(ledger.total_events(), 0);
        assert_eq!(ledger.heat_of(0), vec![0, 0]);
    }

    #[test]
    fn disabled_probe_is_a_no_op() {
        let p = LoadProbe::disabled();
        assert!(!p.is_enabled());
        p.query_served(0);
        p.flood_visit(0, 10);
        p.retries(0, 1);
    }

    #[test]
    fn probe_charges_its_level() {
        let ledger = Arc::new(LoadLedger::new(3, 2));
        let p = LoadProbe::new(ledger.clone(), 1);
        assert!(p.is_enabled());
        p.flood_visit(2, 16);
        assert_eq!(ledger.heat_of(0), vec![0, 0, 0]);
        assert_eq!(ledger.heat_of(1), vec![0, 0, 1]);
    }

    #[test]
    fn energy_estimate_uses_the_radio_model() {
        let load = PeerLoad {
            messages: 10,
            bytes: 1000,
            ..PeerLoad::default()
        };
        let m = EnergyModel::bluetooth_class2();
        // 10 msgs × 50_000 nJ + 1000 B × 200 nJ/B = 7e5 nJ = 7e-4 J.
        assert!((load.energy_j(&m) - 7e-4).abs() < 1e-12);
        assert_eq!(load.energy_j(&EnergyModel::zero()), 0.0);
    }
}
