//! Point-in-time view of the per-peer load distribution.

use hyperm_baseline::distribution_stats;
use hyperm_sim::{EnergyModel, LoadLedger, PeerLoad};
use hyperm_telemetry::nearest_rank;

/// Aggregated per-peer load statistics over the *alive* peers, computed by
/// [`crate::LoadBalancer::snapshot`]. "Load" is a peer's total charged
/// events: served lookups + flood relays + answered fetches (retries and
/// bytes are reported separately). The `load` figure prints one per
/// relief cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSnapshot {
    /// Alive peers the distribution was computed over.
    pub peers: usize,
    /// Total charged events across those peers.
    pub total_events: u64,
    /// Total charged bytes.
    pub total_bytes: u64,
    /// Total charged retransmissions.
    pub total_retries: u64,
    /// Heaviest per-peer load.
    pub max: u64,
    /// Median per-peer load.
    pub median: u64,
    /// 99th-percentile per-peer load (nearest-rank).
    pub p99: u64,
    /// Mean per-peer load.
    pub mean: f64,
    /// Gini coefficient of the load distribution (0 = perfectly even,
    /// → 1 = one peer does everything). 0 when nothing was charged.
    pub gini: f64,
    /// The headline imbalance metric: `max / max(median, 1)`.
    pub max_median_ratio: f64,
    /// Per-zone heat, folded per level: the hottest peer's flood-visit
    /// count in each level's overlay.
    pub heat_max_per_level: Vec<u64>,
    /// Total flood visits per level.
    pub heat_total_per_level: Vec<u64>,
    /// Radio-energy estimate (J) of the heaviest-loaded peer, under the
    /// Bluetooth class-2 model.
    pub max_energy_j: f64,
    /// Radio-energy estimate (J) summed over all peers.
    pub total_energy_j: f64,
}

impl LoadSnapshot {
    /// Compute the distribution over `ledger`, restricted to peers whose
    /// index satisfies `alive` (dead peers serve nothing and would drag
    /// the median down artificially).
    pub fn compute(ledger: &LoadLedger, alive: impl Fn(usize) -> bool) -> Self {
        let model = EnergyModel::bluetooth_class2();
        let per_peer: Vec<(usize, PeerLoad)> = ledger
            .per_peer()
            .into_iter()
            .enumerate()
            .filter(|(p, _)| alive(*p))
            .collect();
        let mut loads: Vec<u64> = per_peer.iter().map(|(_, l)| l.events()).collect();
        loads.sort_unstable();
        let n = loads.len();
        let total_events: u64 = loads.iter().sum();
        let total_bytes: u64 = per_peer.iter().map(|(_, l)| l.bytes).sum();
        let total_retries: u64 = per_peer.iter().map(|(_, l)| l.retries).sum();
        let max = loads.last().copied().unwrap_or(0);
        let median = if n == 0 { 0 } else { loads[n / 2] };
        let p99 = if n == 0 {
            0
        } else {
            loads[nearest_rank(0.99, n) - 1]
        };
        let mean = if n == 0 {
            0.0
        } else {
            total_events as f64 / n as f64
        };
        let gini = if n == 0 {
            0.0
        } else {
            distribution_stats(&loads).gini
        };
        let heat_max_per_level: Vec<u64> = (0..ledger.levels())
            .map(|l| {
                ledger
                    .heat_of(l)
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| alive(*p))
                    .map(|(_, &h)| h)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let heat_total_per_level: Vec<u64> = (0..ledger.levels())
            .map(|l| {
                ledger
                    .heat_of(l)
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| alive(*p))
                    .map(|(_, &h)| h)
                    .sum()
            })
            .collect();
        let max_energy_j = per_peer
            .iter()
            .map(|(_, l)| l.energy_j(&model))
            .fold(0.0, f64::max);
        let total_energy_j: f64 = per_peer.iter().map(|(_, l)| l.energy_j(&model)).sum();
        LoadSnapshot {
            peers: n,
            total_events,
            total_bytes,
            total_retries,
            max,
            median,
            p99,
            mean,
            gini,
            max_median_ratio: max as f64 / median.max(1) as f64,
            heat_max_per_level,
            heat_total_per_level,
            max_energy_j,
            total_energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_with(loads: &[u64]) -> LoadLedger {
        let ledger = LoadLedger::new(loads.len(), 1);
        for (p, &n) in loads.iter().enumerate() {
            for _ in 0..n {
                ledger.charge_query_served(p);
            }
        }
        ledger
    }

    #[test]
    fn even_load_has_zero_gini_and_unit_ratio() {
        let s = LoadSnapshot::compute(&ledger_with(&[5, 5, 5, 5]), |_| true);
        assert_eq!((s.max, s.median, s.p99), (5, 5, 5));
        assert!(s.gini.abs() < 1e-12);
        assert!((s.max_median_ratio - 1.0).abs() < 1e-12);
        assert_eq!(s.total_events, 20);
    }

    #[test]
    fn concentrated_load_is_flagged() {
        let s = LoadSnapshot::compute(&ledger_with(&[100, 1, 1, 1, 1]), |_| true);
        assert_eq!(s.max, 100);
        assert_eq!(s.median, 1);
        assert!(s.max_median_ratio >= 100.0);
        assert!(s.gini > 0.7, "gini {} should be near 1", s.gini);
    }

    #[test]
    fn dead_peers_are_excluded() {
        let s = LoadSnapshot::compute(&ledger_with(&[9, 9, 0, 9]), |p| p != 2);
        assert_eq!(s.peers, 3);
        assert_eq!(s.median, 9);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_snapshot_is_all_zero() {
        let s = LoadSnapshot::compute(&ledger_with(&[0, 0]), |_| true);
        assert_eq!((s.max, s.median, s.p99, s.total_events), (0, 0, 0, 0));
        assert_eq!(s.gini, 0.0);
        assert_eq!(s.max_median_ratio, 0.0);
    }
}
