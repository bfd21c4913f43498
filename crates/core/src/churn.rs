//! Peer failure (churn) modelling.
//!
//! The paper's scenario is a short-lived network with "limited mobility" —
//! but devices still leave early: someone walks out of the conference room
//! with their phone. This module models the *fail-stop* case: a failed
//! peer stops answering direct fetches, while its previously published
//! summaries linger in the overlay (they were replicated onto other
//! devices' zones, so lookups still route — the candidate just never
//! responds).
//!
//! Two recall notions follow, both exercised by the `churn` figure
//! (`hyperm_bench::figures::churn`):
//! * against **all** data: recall degrades roughly with the failed fraction
//!   (those items are physically gone — no protocol can recover them);
//! * against **alive** data: Hyper-M's no-false-dismissal property is
//!   unaffected — everything still reachable is still found.
//!
//! Two churn models coexist:
//!
//! * **Flag-only** ([`HypermNetwork::fail_peer`]): the failed peer stops
//!   answering fetches but keeps its overlay routing duties — the paper's
//!   own model, where substrate maintenance is out of scope.
//! * **Overlay-level** ([`HypermNetwork::crash_peer`] /
//!   [`HypermNetwork::depart_peer`]): the peer's CAN nodes actually die in
//!   every per-level overlay. With repair enabled the smallest-volume
//!   neighbour takes each zone over (see `hyperm_can::repair`) and
//!   [`HypermNetwork::refresh_peer_summaries`] — the soft-state republish
//!   loop — restores the replicas that lived on the dead zones, so recall
//!   over alive peers' data returns to 1. With repair disabled the zones
//!   become routing holes and queries degrade, which is the baseline the
//!   `churn` figure quantifies.

// Panic-free hot path: no unwrap/expect, panic!/unreachable! or
// unchecked indexing outside tests without a written reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
#![expect(
    clippy::indexing_slicing,
    reason = "node indices come from the dense live-node table this module maintains"
)]
use crate::network::HypermNetwork;
use crate::op::Op;
use hyperm_can::{CanOverlay, RepairOutcome};
use hyperm_sim::{FaultConfig, FaultReport, NodeId, OpStats};
use hyperm_telemetry::{Fields, Name, OpKind, SpanId};

/// Cost record of an overlay-level membership change, summed over the
/// per-level overlays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Control + handoff + detection message cost across all levels.
    pub stats: OpStats,
    /// Sim-time ticks until every level's zones were owned again (levels
    /// repair in parallel, so this is the per-level maximum).
    pub takeover_rounds: u64,
    /// Adoption events across all levels (zones that changed hands).
    pub adoptions: usize,
}

impl HypermNetwork {
    /// Mark a peer as failed: it stops answering direct item fetches.
    pub fn fail_peer(&mut self, peer: usize) {
        assert!(peer < self.len(), "no such peer {peer}");
        self.failed_mut()[peer] = true;
    }

    /// Crash-stop a peer at the overlay level (CAN substrate): its node in
    /// every per-level overlay dies, its local replicas are lost, and —
    /// with `repair` — the smallest-volume alive neighbour takes each zone
    /// over after the detection timeout. Without `repair`, the zones
    /// become routing holes (the no-repair baseline). The peer also stops
    /// answering fetches, like [`HypermNetwork::fail_peer`].
    pub fn crash_peer(&mut self, peer: usize, repair: bool) -> ChurnOutcome {
        assert!(peer < self.len(), "no such peer {peer}");
        assert!(self.is_alive(peer), "peer {peer} already failed");
        self.failed_mut()[peer] = true;
        let op = self.repair_op(|| {
            vec![
                ("kind", "crash".into()),
                ("peer", peer.into()),
                ("repair", repair.into()),
            ]
        });
        self.hand_over(op, peer, |can, id| {
            if repair {
                can.fail(id)
            } else {
                RepairOutcome {
                    adopters: Vec::new(),
                    stats: can.fail_no_takeover(id),
                    takeover_rounds: 0,
                    fully_merged: false,
                }
            }
        })
    }

    /// Graceful departure: the peer unpublishes its summaries, hands every
    /// zone (with the replicas stored on it) to the smallest-volume
    /// neighbour, and leaves. No other peer's data is lost.
    pub fn depart_peer(&mut self, peer: usize) -> ChurnOutcome {
        assert!(peer < self.len(), "no such peer {peer}");
        assert!(self.is_alive(peer), "peer {peer} already gone");
        let mut op = self.repair_op(|| vec![("kind", "depart".into()), ("peer", peer.into())]);
        // The departing peer's own data leaves with it: invalidate its
        // published spheres before the zone handoff.
        for l in 0..self.levels() {
            let clusters = self.peer(peer).summaries[l].len() as u64;
            let (_, invalidation) = self.overlay_mut(l).remove_objects(peer, 0..clusters);
            op.stats += invalidation;
        }
        self.failed_mut()[peer] = true;
        self.hand_over(op, peer, CanOverlay::leave)
    }

    /// Run the background fragment-merge loop on every level until
    /// quiescence; returns the total repair message cost.
    pub fn repair_overlays(&mut self, max_passes: usize) -> OpStats {
        let mut op = self.repair_op(|| vec![("kind", "merge".into())]);
        for l in 0..self.levels() {
            op.level(l, &self.level_recorder(l), None, |lv| {
                let can = self.overlay_mut(l).can_mut("a merge pass");
                lv.stats += can.repair_to_quiescence(max_passes);
            });
        }
        op.close(|s| vec![("messages", s.messages.into()), ("bytes", s.bytes.into())])
    }

    /// One round of finger upkeep for `peer`: [`CanOverlay::fix_fingers`]
    /// on every level that keeps fingers (the 1-d CANs), traced as a
    /// `repair_step` of kind `fix_fingers`. Zero, and untraced, when no
    /// level keeps fingers.
    pub fn fix_fingers(&self, peer: usize) -> OpStats {
        if !self.cans().any(CanOverlay::has_fingers) {
            return OpStats::zero();
        }
        let mut op = self.repair_op(|| vec![("kind", "fix_fingers".into()), ("peer", peer.into())]);
        for l in 0..self.levels() {
            if let Some(can) = self.overlay(l).as_can().filter(|c| c.has_fingers()) {
                op.level(l, &self.level_recorder(l), None, |lv| {
                    lv.stats += can.fix_fingers(NodeId(peer));
                });
            }
        }
        op.close(|s| vec![("messages", s.messages.into()), ("bytes", s.bytes.into())])
    }

    /// A `repair_step` op: a crash, a departure, a merge pass or a finger
    /// upkeep round.
    fn repair_op(&self, fields: impl FnOnce() -> Fields) -> Op {
        Op::open(
            self.recorder(),
            SpanId::NONE,
            OpKind::Repair,
            Name::RepairStep,
            fields,
        )
    }

    /// Run `step` (a crash or a departure) on `peer`'s node at every
    /// level's CAN as `op`'s levels, then close `op` with the takeover it
    /// caused.
    fn hand_over(
        &mut self,
        mut op: Op,
        peer: usize,
        step: impl Fn(&mut CanOverlay, NodeId) -> RepairOutcome,
    ) -> ChurnOutcome {
        let (mut takeover_rounds, mut adoptions) = (0, 0);
        for l in 0..self.levels() {
            op.level(l, &self.level_recorder(l), None, |lv| {
                let can = self.overlay_mut(l).can_mut("a crash or departure");
                let r = step(can, NodeId(peer));
                lv.stats += r.stats;
                takeover_rounds = takeover_rounds.max(r.takeover_rounds);
                adoptions += r.adopters.len();
            });
        }
        let stats = op.close(|s| {
            vec![
                ("messages", s.messages.into()),
                ("bytes", s.bytes.into()),
                ("rounds", takeover_rounds.into()),
                ("adoptions", adoptions.into()),
            ]
        });
        ChurnOutcome {
            stats,
            takeover_rounds,
            adoptions,
        }
    }

    /// Zone fragments still awaiting background merge, over all levels
    /// (0 on a tree-backed network, which has no takeover).
    pub fn fragment_count(&self) -> usize {
        self.cans().map(CanOverlay::fragment_count).sum()
    }

    /// Soft-state republish: re-insert every cluster sphere `peer` has
    /// published, invalidating old replicas first. Replicas that were lost
    /// on crashed zones are thereby restored — the TTL refresh loop of the
    /// repair engine calls this periodically for every alive peer.
    ///
    /// Refreshes route through the fault injector like any other data
    /// traffic (see the `publish` module); use
    /// [`HypermNetwork::refresh_peer_summaries_report`] to count the
    /// spheres that failed to land under loss. With faults off the two
    /// paths are bit-identical.
    pub fn refresh_peer_summaries(&mut self, peer: usize) -> OpStats {
        self.refresh_peer_summaries_report(peer).stats
    }

    /// Install (or clear) message-level fault injection on every level's
    /// CAN traffic. Per-level injectors get decorrelated seeds. Installing
    /// a plan on a tree-backed network panics.
    pub fn set_fault_plan(&mut self, cfg: Option<FaultConfig>) {
        for (l, can) in self.cans_mut("a fault plan", cfg.is_some()) {
            can.set_faults(cfg.map(|c| c.with_seed(c.seed.wrapping_add(l as u64))));
        }
    }

    /// Fault counters summed over all levels (`None` when injection is
    /// off everywhere, as on a tree-backed network).
    pub fn fault_report(&self) -> Option<FaultReport> {
        let mut merged: Option<FaultReport> = None;
        for can in self.cans() {
            if let Some(r) = can.fault_report() {
                let m = merged.get_or_insert_with(FaultReport::default);
                m.attempts += r.attempts;
                m.drops += r.drops;
                m.delays += r.delays;
                m.dead_hops += r.dead_hops;
                m.exhausted += r.exhausted;
            }
        }
        merged
    }

    /// Whether a peer currently answers fetches.
    pub fn is_alive(&self, peer: usize) -> bool {
        !self.failed()[peer]
    }

    /// Number of currently alive peers.
    pub fn alive_count(&self) -> usize {
        self.failed().iter().filter(|&&f| !f).count()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::HypermConfig;
    use crate::network::HypermNetwork;
    use crate::query::knn::KnnOptions;
    use hyperm_cluster::Dataset;
    use hyperm_geometry::vecmath::sq_dist;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> HypermNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<Dataset> = (0..8)
            .map(|_| {
                let c: f64 = rng.gen::<f64>() * 0.5;
                let mut ds = Dataset::new(8);
                let mut row = [0.0f64; 8];
                for _ in 0..25 {
                    for x in row.iter_mut() {
                        *x = (c + rng.gen::<f64>() * 0.3).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(3)
            .with_seed(seed);
        HypermNetwork::build(peers, cfg).unwrap().0
    }

    #[test]
    fn failed_peers_stop_answering() {
        let mut net = build(1);
        let q = net.peer(3).items.row(0).to_vec();
        let before = net.range_query(0, &q, 0.05, None);
        assert!(before.items.iter().any(|&(p, _)| p == 3));
        net.fail_peer(3);
        assert!(!net.is_alive(3));
        assert_eq!(net.alive_count(), 7);
        let after = net.range_query(0, &q, 0.05, None);
        assert!(
            after.items.iter().all(|&(p, _)| p != 3),
            "failed peer answered"
        );
    }

    #[test]
    fn alive_data_still_fully_found() {
        let mut net = build(3);
        net.fail_peer(0);
        net.fail_peer(4);
        // Ground truth over alive peers only.
        let q = net.peer(2).items.row(0).to_vec();
        let eps = 0.3;
        let mut alive_truth = Vec::new();
        for p in 0..net.len() {
            if !net.is_alive(p) {
                continue;
            }
            // A plain scan, not `Peer::local_range`: the oracle must not
            // be the code under test.
            for (i, row) in net.peer(p).items.rows().enumerate() {
                if sq_dist(row, &q) <= eps * eps + 1e-12 {
                    alive_truth.push((p, i));
                }
            }
        }
        let res = net.range_query(1, &q, eps, None);
        let got: std::collections::BTreeSet<_> = res.items.iter().copied().collect();
        for t in &alive_truth {
            assert!(got.contains(t), "alive item {t:?} missed under churn");
        }
        assert_eq!(got.len(), alive_truth.len());
    }

    #[test]
    fn knn_and_point_skip_failed_peers() {
        let mut net = build(4);
        let q = net.peer(6).items.row(0).to_vec();
        net.fail_peer(6);
        let res = net.knn_query(0, &q, 5, KnnOptions::default());
        assert!(res.topk.iter().all(|&((p, _), _)| p != 6));
        let pt = net.point_query(0, &q);
        assert!(pt.matches.is_empty());
    }
}
