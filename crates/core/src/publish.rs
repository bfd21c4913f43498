//! Reliable summary publication: fault-aware republish with delivery
//! accounting.
//!
//! The paper's soft-state model assumes publishes "eventually succeed";
//! this module makes the *eventually* explicit. A sphere publish routes
//! through the per-level [`hyperm_sim::FaultInjector`] (ack/retransmit per
//! hop, with an optional exponential [`hyperm_sim::Backoff`] schedule) and
//! can therefore fail: routing can dead-end under loss or a partition, and
//! flood edges can exhaust their retries and leave coverage holes. Instead
//! of silently degrading, every publish round returns a [`PublishReport`]
//! counting the spheres *delivered* (full replica coverage) and *failed*
//! (route failed or coverage incomplete). Published spheres are soft
//! state: a failed sphere is republished with the rest of its peer's set
//! by that peer's next `RepairEngine` refresh, at most one refresh
//! interval later.
//!
//! With no fault injector and no partition installed, every path here is
//! bit-identical to the legacy unconditional republish — asserted by the
//! `tests/telemetry.rs` equivalence suite. Build, live joins and
//! republishing inserts use the reliable path, `place_sphere`.

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
    reason = "per-level vectors are built with len == levels() and indexed by the same 0..levels() range"
)]
use crate::network::HypermNetwork;
use crate::op::{cost_fields, Op};
use hyperm_can::{InsertOutcome, ObjectRef};
use hyperm_sim::{NodeId, OpStats};
use hyperm_telemetry::{Name, OpKind, SpanId};

/// A published cluster sphere, by position: `peer`'s cluster `cluster` at
/// wavelet level `level`. The unit of delivery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SphereRef {
    /// Publishing peer.
    pub peer: usize,
    /// Wavelet level (overlay index).
    pub level: usize,
    /// Cluster index within the peer's level summary.
    pub cluster: usize,
}

/// Delivery accounting for one reliable publish round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublishReport {
    /// Spheres fully delivered (owner reached, every overlapping zone got
    /// its replica).
    pub delivered: u64,
    /// Spheres whose publish failed or landed incompletely; the peer's
    /// next refresh republishes them.
    pub failed: u64,
    /// Total message cost of the round, including failed attempts.
    pub stats: OpStats,
}

impl HypermNetwork {
    /// The publish rule (Figure 2, step *i3*): `peer`'s `c`-th sphere at
    /// level `l` as the overlay object every publication path stores —
    /// centre and radius in key space, plus the payload lookups score by. A
    /// centre outside the configured bounds is clamped into key space;
    /// widening the radius by the clamp slack keeps the stored sphere
    /// covering the images of all its items, so Theorem 4.1 keeps holding.
    /// The slack is exactly 0 for an in-bounds centre.
    fn sphere_object(&self, peer: usize, l: usize, c: usize) -> (Vec<f64>, f64, ObjectRef) {
        let keymap = self.keymap(l);
        let sphere = &self.peer(peer).summaries[l][c];
        let (key, slack) = keymap.to_key_slack(&sphere.centroid);
        let payload = ObjectRef {
            peer,
            tag: c as u64,
            items: sphere.items as u32,
        };
        (key, keymap.to_key_radius(sphere.radius) + slack, payload)
    }

    /// Place `peer`'s `c`-th sphere at level `l`: its `sphere_object`,
    /// inserted into the level's overlay as one `publish` op. Build, live
    /// joins and republishing inserts all place spheres here.
    pub(crate) fn place_sphere(&mut self, peer: usize, l: usize, c: usize) -> InsertOutcome {
        let (key, key_radius, payload) = self.sphere_object(peer, l, c);
        let replicate = self.config.replicate;
        let ltel = self.level_recorder(l);
        let mut op = Op::open(&ltel, SpanId::NONE, OpKind::Publish, Name::Publish, || {
            vec![("peer", peer.into()), ("cluster", c.into())]
        });
        let out = op.level(l, &ltel, None, |lv| {
            let overlay = self.overlay_mut(l);
            let out = overlay.insert_sphere(NodeId(peer), key, key_radius, payload, replicate);
            lv.stats += out.stats;
            out
        });
        let (replicas, rounds) = (out.replicas, out.rounds);
        op.close(|s| {
            let tail = vec![("replicas", replicas.into()), ("rounds", rounds.into())];
            [cost_fields(s), tail].concat()
        });
        out
    }

    /// Publish (or re-publish) one cluster sphere through the fault-aware
    /// path: invalidate old replicas, then `try_insert_sphere` the
    /// `sphere_object`. Returns whether the sphere reached full replica
    /// coverage, plus the message cost (failed attempts included).
    pub fn publish_sphere(&mut self, s: SphereRef) -> (bool, OpStats) {
        assert!(self.is_alive(s.peer), "dead peers cannot publish");
        let tag = s.cluster as u64;
        let (_, invalidation) = self
            .overlay_mut(s.level)
            .remove_objects(s.peer, tag..tag + 1);
        let (delivered, stats) = self.try_place_sphere(s);
        (delivered, invalidation + stats)
    }

    /// The insert half of [`HypermNetwork::publish_sphere`], once the old
    /// replicas are gone.
    fn try_place_sphere(&mut self, s: SphereRef) -> (bool, OpStats) {
        let (key, key_radius, payload) = self.sphere_object(s.peer, s.level, s.cluster);
        let replicate = self.config.replicate;
        let overlay = self.overlay_mut(s.level);
        match overlay.try_insert_sphere(NodeId(s.peer), key, key_radius, payload, replicate) {
            Ok(out) => (out.complete(), out.stats),
            Err(burnt) => (false, burnt),
        }
    }

    /// Fault-aware soft-state republish of every cluster sphere `peer` has
    /// published, with per-sphere delivery accounting: spheres that fail
    /// to route or land incompletely are counted as failed instead of
    /// silently assumed placed, and stay missing until the peer's next
    /// refresh.
    pub fn refresh_peer_summaries_report(&mut self, peer: usize) -> PublishReport {
        assert!(self.is_alive(peer), "dead peers cannot refresh");
        let mut op = Op::open(
            self.recorder(),
            SpanId::NONE,
            OpKind::Refresh,
            Name::Refresh,
            || vec![("peer", peer.into())],
        );
        let mut report = PublishReport::default();
        for level in 0..self.levels() {
            op.level(level, &self.level_recorder(level), None, |lv| {
                // One invalidation pass for the whole level, then the
                // inserts in cluster order: removal neither routes nor
                // rolls the fault injector, so the stores and costs are
                // those of one `publish_sphere` per cluster.
                let clusters = self.peer(peer).summaries[level].len();
                let overlay = self.overlay_mut(level);
                let (_, invalidation) = overlay.remove_objects(peer, 0..clusters as u64);
                lv.stats += invalidation;
                for cluster in 0..clusters {
                    let sphere = SphereRef {
                        peer,
                        level,
                        cluster,
                    };
                    let (delivered, stats) = self.try_place_sphere(sphere);
                    lv.stats += stats;
                    if delivered {
                        report.delivered += 1;
                    } else {
                        report.failed += 1;
                    }
                }
            });
        }
        report.stats = op.close(cost_fields);
        report
    }
}
