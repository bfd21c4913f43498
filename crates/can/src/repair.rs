//! Zone leave, failure takeover and background repair.
//!
//! The original CAN paper pairs its join protocol with a departure story:
//! a leaving node hands its zone to a neighbour, and a crashed node's zone
//! is **taken over** by the neighbour with the smallest zone volume once
//! its heartbeats stop. The takeover node may temporarily hold several
//! zone fragments; a background process then merges fragments back until
//! every node again owns a single box (or hands a fragment to the owner of
//! its dyadic sibling, relocating that owner if the sibling has been
//! subdivided). This module implements exactly that on top of the dyadic
//! split tree (see [`Zone::sibling`]):
//!
//! * [`CanOverlay::leave`] — graceful departure: zones and stored replicas
//!   are handed to the smallest-volume abutting neighbour; no data is lost.
//! * [`CanOverlay::fail`] — crash-stop: the store dies with the node, the
//!   smallest-volume abutting neighbour adopts each zone after a detection
//!   timeout. Lost replicas come back via the soft-state refresh loop in
//!   `hyperm-repair`.
//! * [`CanOverlay::fail_no_takeover`] — the no-repair baseline: the node
//!   vanishes and its zones become routing holes (queries dead-end there
//!   with an explicit [`crate::overlay::RouteOutcome`], never a panic).
//! * [`CanOverlay::repair_step`] — one background normalisation pass.
//!
//! After `leave`/`fail` (with takeover) and any number of `repair_step`s,
//! [`CanOverlay::check_invariants`] holds: the alive zones tile the space,
//! neighbour lists are exact and symmetric, and the spatial index and the
//! finger lists are current. Each public operation here recomputes the
//! fingers once, after its last zone change.

// Panic-free hot path: no unwrap/expect, panic!/unreachable! or
// unchecked indexing outside tests without a written reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
use crate::overlay::CanOverlay;
use crate::zone::Zone;
use hyperm_sim::{NodeId, OpStats};
use hyperm_telemetry::Name;

/// Heartbeat rounds a neighbour waits before declaring a node dead.
pub const DETECT_TICKS: u64 = 3;
/// Wire size of a takeover/handoff control packet.
const CTRL_MSG_BYTES: u64 = 64;
/// Wire size of one heartbeat probe.
const HEARTBEAT_BYTES: u64 = 16;

/// Outcome of a leave/fail membership change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Nodes that adopted (or merged away) the departed zones.
    pub adopters: Vec<NodeId>,
    /// Message cost of the handoff/takeover (control + data transfer +
    /// neighbour updates).
    pub stats: OpStats,
    /// Sim-time ticks from the membership change until the zones were
    /// owned again (detection timeout + handshake).
    pub takeover_rounds: u64,
    /// Whether every transferred zone merged immediately into an
    /// adopter's primary (no background repair needed).
    pub fully_merged: bool,
}

impl CanOverlay {
    /// Number of adopted fragments still awaiting background merge.
    pub fn fragment_count(&self) -> usize {
        self.nodes().map(|n| n.adopted.len()).sum()
    }

    /// Graceful departure: `id` hands each of its zones — and the replicas
    /// stored for it — to the smallest-volume alive neighbour abutting
    /// that zone, then drops out. No data is lost.
    pub fn leave(&mut self, id: NodeId) -> RepairOutcome {
        assert!(self.alive_count() > 1, "the last node cannot leave");
        let store = self.node_mut(id).store.take();
        let (zones, old_neighbours) = self.detach(id);
        let mut out = self.adopt_zones(id, zones, &old_neighbours, Some(&store));
        // Handoff handshake: request + transfer, no detection delay.
        out.takeover_rounds = 2;
        self.refresh_fingers();
        self.trace_takeover("leave", id, &out);
        out
    }

    /// Crash-stop failure: `id` disappears without handoff. Its store is
    /// lost; after [`DETECT_TICKS`] missed heartbeats the smallest-volume
    /// alive neighbour abutting each zone takes it over (empty). The
    /// soft-state refresh loop republishes the lost replicas.
    pub fn fail(&mut self, id: NodeId) -> RepairOutcome {
        assert!(self.alive_count() > 1, "the last node cannot fail");
        self.node_mut(id).store.clear();
        let (zones, old_neighbours) = self.detach(id);
        // Detection: every old neighbour probes the silent node.
        let detection = OpStats {
            messages: old_neighbours.len() as u64 * DETECT_TICKS,
            bytes: old_neighbours.len() as u64 * DETECT_TICKS * HEARTBEAT_BYTES,
            ..OpStats::zero()
        };
        let mut out = self.adopt_zones(id, zones, &old_neighbours, None);
        out.stats += detection;
        out.takeover_rounds = DETECT_TICKS + 2;
        self.refresh_fingers();
        self.trace_takeover("fail", id, &out);
        out
    }

    /// Emit a `takeover` trace event for a completed leave/fail (no-op
    /// when tracing is off).
    fn trace_takeover(&self, kind: &'static str, id: NodeId, out: &RepairOutcome) {
        let tel = self.recorder();
        if tel.is_enabled() {
            tel.event(
                tel.scope(),
                Name::Takeover,
                vec![
                    ("node", id.0.into()),
                    ("kind", kind.into()),
                    ("adopters", (out.adopters.len() as u64).into()),
                    ("rounds", out.takeover_rounds.into()),
                    ("merged", out.fully_merged.into()),
                ],
            );
        }
    }

    /// The no-repair baseline: `id` crashes and nobody takes its zones
    /// over. Routing holes remain (queries terminate with explicit
    /// dead-end outcomes); `check_invariants` intentionally does not hold.
    pub fn fail_no_takeover(&mut self, id: NodeId) -> OpStats {
        assert!(self.alive_count() > 1, "the last node cannot fail");
        self.node_mut(id).store.clear();
        let (_, old_neighbours) = self.detach(id);
        self.refresh_fingers();
        OpStats {
            messages: old_neighbours.len() as u64 * DETECT_TICKS,
            bytes: old_neighbours.len() as u64 * DETECT_TICKS * HEARTBEAT_BYTES,
            ..OpStats::zero()
        }
    }

    /// Give each departed zone to the smallest-volume alive node abutting
    /// it, preferring an immediate sibling merge into the adopter's
    /// primary. `store` carries the departed node's replicas on graceful
    /// leaves (`None` on crashes — the data died).
    fn adopt_zones(
        &mut self,
        departed: NodeId,
        zones: Vec<Zone>,
        old_neighbours: &[NodeId],
        store: Option<&crate::store::ObjectStore>,
    ) -> RepairOutcome {
        let mut stats = OpStats::zero();
        let mut adopters: Vec<NodeId> = Vec::new();
        let mut fully_merged = true;
        // Zones are granted pass by pass: a fragment whose only abutters
        // are *later* fragments of the same departure waits until those
        // are re-owned. The outer boundary of the remaining region always
        // touches an alive node, so every pass grants at least one zone.
        let mut remaining = zones;
        while !remaining.is_empty() {
            let before = remaining.len();
            let mut deferred = Vec::new();
            for z in remaining {
                #[expect(
                    clippy::unwrap_used,
                    reason = "zone volumes are finite positive products of box extents; partial_cmp cannot see NaN"
                )]
                let Some(adopter) = self
                    .zone_abutters(&z)
                    .into_iter()
                    .filter(|&c| c != departed)
                    .min_by(|&a, &b| {
                        let va = self.node(a).total_volume();
                        let vb = self.node(b).total_volume();
                        va.partial_cmp(&vb).unwrap().then(a.cmp(&b))
                    })
                else {
                    deferred.push(z);
                    continue;
                };
                adopters.push(adopter);
                // Takeover claim for this zone.
                stats += OpStats {
                    messages: 1,
                    bytes: CTRL_MSG_BYTES,
                    ..OpStats::zero()
                };
                // Replica handoff (graceful only): copy the departed
                // store's objects overlapping this zone, deduplicated by
                // object id.
                if let Some(objs) = store {
                    let obj_bytes = crate::ops::object_bytes(self.dim());
                    let moved = self
                        .node_mut(adopter)
                        .store
                        .absorb(objs, |o| z.intersects_sphere(o.centre, o.radius));
                    if moved > 0 {
                        stats += OpStats {
                            messages: 1,
                            bytes: moved as u64 * obj_bytes,
                            ..OpStats::zero()
                        };
                    }
                }
                if !self.grant_zone(adopter, z) {
                    fully_merged = false;
                }
            }
            assert!(
                deferred.len() < before,
                "departed zones must have alive abutters"
            );
            remaining = deferred;
        }
        // Neighbour lists around the departure are rebuilt; each updated
        // node costs one control message.
        let mut affected: Vec<NodeId> = old_neighbours.to_vec();
        affected.extend(adopters.iter().copied());
        self.refresh_neighbours(&affected);
        let distinct: std::collections::BTreeSet<NodeId> = affected.into_iter().collect();
        stats += OpStats {
            messages: distinct.len() as u64,
            bytes: distinct.len() as u64 * CTRL_MSG_BYTES,
            ..OpStats::zero()
        };
        adopters.sort_unstable();
        adopters.dedup();
        RepairOutcome {
            adopters,
            stats,
            takeover_rounds: 0,
            fully_merged,
        }
    }

    /// Alive nodes whose zones abut `z` (spatial-index accelerated).
    fn zone_abutters(&self, z: &Zone) -> Vec<NodeId> {
        self.box_candidates_around(z)
            .into_iter()
            .filter(|&c| self.node(c).zones().any(|zc| zc.is_neighbour(z)))
            .collect()
    }

    /// Grant `zone` to `id`: merge it into the primary if it is the
    /// primary's dyadic sibling (returns `true`), otherwise park it as an
    /// adopted fragment for background repair (returns `false`).
    fn grant_zone(&mut self, id: NodeId, zone: Zone) -> bool {
        if let Some(parent) = zone.try_merge(&self.node(id).zone) {
            self.replace_primary(id, parent);
            true
        } else {
            self.add_zone(id, zone);
            false
        }
    }

    /// One background normalisation pass over all adopted fragments.
    ///
    /// Per fragment `V` held by `Y`, in order of preference:
    /// 1. merge `V` with `Y`'s primary (dyadic siblings) — free, local;
    /// 2. merge `V` with another fragment of `Y` — free, local;
    /// 3. hand `V` to the node owning exactly `sibling(V)`, which merges
    ///    both into the parent (replicas for `V` travel along);
    /// 4. `sibling(V)` is subdivided: find the deepest single-zone node
    ///    `Z2` inside it — the dyadic tree guarantees `sibling(Z2)` is an
    ///    exact current zone — merge `Z2`'s zone into that sibling's owner
    ///    and relocate `Z2` to fill `V`.
    ///
    /// Fragments whose resolution is blocked this round (the relevant
    /// sibling is itself a fragment mid-repair) are left for a later pass.
    /// Returns `(fragments_resolved, cost)`.
    pub fn repair_step(&mut self) -> (usize, OpStats) {
        let out = self.repair_pass();
        if out.0 > 0 {
            self.refresh_fingers();
        }
        out
    }

    /// [`CanOverlay::repair_step`] without the finger recompute.
    fn repair_pass(&mut self) -> (usize, OpStats) {
        let mut stats = OpStats::zero();
        let mut resolved = 0usize;
        let snapshot: Vec<(NodeId, Zone)> = self
            .nodes()
            .flat_map(|n| n.adopted.iter().map(move |z| (n.id, z.clone())))
            .collect();
        for (y, v) in snapshot {
            // The fragment may have been consumed by an earlier action in
            // this same pass.
            if !self.node(y).alive || !self.node(y).adopted.iter().any(|z| z.same_box(&v)) {
                continue;
            }
            if self.resolve_fragment(y, &v, &mut stats) {
                resolved += 1;
            }
        }
        (resolved, stats)
    }

    /// Run [`CanOverlay::repair_step`] until no fragment resolves or
    /// `max_passes` is hit; returns the total cost.
    pub fn repair_to_quiescence(&mut self, max_passes: usize) -> OpStats {
        let mut stats = OpStats::zero();
        let mut changed = false;
        for _ in 0..max_passes {
            if self.fragment_count() == 0 {
                break;
            }
            let (resolved, s) = self.repair_pass();
            stats += s;
            if resolved == 0 {
                break;
            }
            changed = true;
        }
        if changed {
            self.refresh_fingers();
        }
        stats
    }

    /// Try to resolve one fragment; returns whether it was consumed.
    fn resolve_fragment(&mut self, y: NodeId, v: &Zone, stats: &mut OpStats) -> bool {
        // 1. Merge with own primary.
        if let Some(parent) = v.try_merge(&self.node(y).zone) {
            self.drop_fragment(y, v);
            self.replace_primary(y, parent);
            return true;
        }
        // 2. Merge with another own fragment.
        let partner = self
            .node(y)
            .adopted
            .iter()
            .find(|w| !w.same_box(v) && v.try_merge(w).is_some())
            .cloned();
        if let Some(w) = partner {
            #[expect(
                clippy::expect_used,
                reason = "the find() predicate just checked try_merge(w).is_some() for this partner"
            )]
            let parent = v.try_merge(&w).expect("checked");
            self.drop_fragment(y, v);
            self.drop_fragment(y, &w);
            self.add_zone(y, parent);
            return true;
        }
        let Some(sib) = v.sibling() else {
            return false; // root fragment: only possible with one node
        };
        // 3. The sibling is somebody's exact primary: hand the fragment
        //    over and let them merge up.
        if let Some(w) = self.primary_owner_of(&sib) {
            #[expect(
                clippy::expect_used,
                reason = "a sibling exists, so the zone is not the root and has a parent"
            )]
            let parent = v.parent().expect("sibling exists, so parent does");
            *stats += self.transfer_replicas(y, w, v);
            self.drop_fragment(y, v);
            self.replace_primary(w, parent);
            *stats += OpStats {
                messages: 2,
                bytes: 2 * CTRL_MSG_BYTES,
                ..OpStats::zero()
            };
            let affected = self.nodes_around(&[v.clone(), sib]);
            self.refresh_neighbours(&affected);
            return true;
        }
        // 4. The sibling region is subdivided. Deepest single-zone node
        //    inside it; its dyadic sibling is an exact current zone. If
        //    that zone is a primary, merge the deepest node's zone into it
        //    and relocate the deepest node onto V.
        let Some(z2) = self.deepest_primary_inside(&sib) else {
            return false; // blocked on another fragment this round
        };
        let z2_zone = self.node(z2).zone.clone();
        let Some(sib2) = z2_zone.sibling() else {
            return false;
        };
        let Some(w1) = self.primary_owner_of(&sib2) else {
            return false; // sibling is a fragment mid-repair: wait
        };
        if w1 == z2 {
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "sibling_of returned Some, so z2's zone is not the root and has a parent"
        )]
        let parent2 = z2_zone.parent().expect("sibling exists");
        // W1 absorbs Z2's zone (and takes over its replicas)…
        *stats += self.transfer_replicas(z2, w1, &z2_zone);
        self.replace_primary(w1, parent2);
        // …and Z2 relocates to fill the vacancy V.
        *stats += self.transfer_replicas(y, z2, v);
        self.drop_fragment(y, v);
        self.relocate_primary(z2, v.clone());
        *stats += OpStats {
            messages: 4,
            bytes: 4 * CTRL_MSG_BYTES,
            ..OpStats::zero()
        };
        let affected = self.nodes_around(&[v.clone(), z2_zone, sib2]);
        self.refresh_neighbours(&affected);
        true
    }

    /// The alive node whose *primary* zone is exactly `z`, if any. Nodes
    /// still holding adopted fragments are skipped: relocating or growing
    /// them mid-repair would compound fragment states.
    fn primary_owner_of(&self, z: &Zone) -> Option<NodeId> {
        let cand = self.box_candidates_around(z);
        cand.into_iter().find(|&c| {
            let n = self.node(c);
            n.adopted.is_empty() && n.zone.same_box(z)
        })
    }

    /// The deepest (smallest-volume) alive node whose primary lies inside
    /// `region` and which holds no fragments of its own; ties break toward
    /// the lower id. `None` if the region is covered only by fragments.
    #[expect(
        clippy::unwrap_used,
        reason = "zone volumes are finite positive products of box extents; partial_cmp cannot see NaN"
    )]
    fn deepest_primary_inside(&self, region: &Zone) -> Option<NodeId> {
        self.box_candidates_around(region)
            .into_iter()
            .filter(|&c| {
                let n = self.node(c);
                n.adopted.is_empty() && region.contains_zone(&n.zone)
            })
            .min_by(|&a, &b| {
                let va = self.node(a).zone.volume();
                let vb = self.node(b).zone.volume();
                va.partial_cmp(&vb).unwrap().then(a.cmp(&b))
            })
    }

    /// Copy the objects in `from`'s store overlapping `region` into `to`'s
    /// store (deduplicated by object id); returns the message cost.
    fn transfer_replicas(&mut self, from: NodeId, to: NodeId, region: &Zone) -> OpStats {
        if from == to {
            return OpStats::zero();
        }
        let obj_bytes = crate::ops::object_bytes(self.dim());
        let (src, dst) = self.store_pair(from, to);
        let moved = dst.absorb(src, |o| region.intersects_sphere(o.centre, o.radius));
        if moved == 0 {
            return OpStats::zero();
        }
        OpStats {
            messages: 1,
            bytes: moved as u64 * obj_bytes,
            ..OpStats::zero()
        }
    }

    /// Load-relief split: halve the zone covering `point` and grant the
    /// half containing `point` to `to` (GeoP2P-style adaptive
    /// subdivision, driven by the load ledger instead of churn).
    ///
    /// The current owner keeps the other half (its primary shrinks in
    /// place, or the covering fragment is replaced); replicas overlapping
    /// the granted half are copied along, so the flood covering property
    /// — every node whose zone intersects a query ball holds the
    /// overlapping replicas — is preserved and Theorem 4.1 still admits
    /// every true candidate. [`CanOverlay::check_invariants`] holds on
    /// return. Also the join-time placement primitive for virtual nodes:
    /// each extra "virtual zone" of a host is carved out of the covering
    /// owner at a seeded random point.
    ///
    /// Returns the message cost, or `None` when the split is impossible:
    /// `to` is dead, the point is in dead space, `to` already owns the
    /// covering zone, or the zone is too thin to halve meaningfully.
    pub fn split_adopt(&mut self, point: &[f64], to: NodeId) -> Option<OpStats> {
        assert_eq!(point.len(), self.dim(), "point dimension mismatch");
        /// Narrower than this along the split axis stays unsplit: the
        /// midpoint would no longer be strictly between the faces.
        const MIN_SPLIT_EXTENT: f64 = 1e-6;
        if !self.node(to).alive {
            return None;
        }
        let owner = self.try_owner_of(point)?;
        if owner == to {
            return None;
        }
        // The exact covering zone (primary or fragment) of the owner.
        let zone = self
            .node(owner)
            .zones()
            .find(|z| z.contains(point))?
            .clone();
        let axis = zone.longest_dim();
        #[expect(
            clippy::indexing_slicing,
            reason = "longest_dim returns an in-bounds axis of this zone"
        )]
        if zone.hi()[axis] - zone.lo()[axis] < MIN_SPLIT_EXTENT {
            return None;
        }
        let (lo_half, hi_half) = zone.split(axis);
        let (keep, give) = if lo_half.contains(point) {
            (hi_half, lo_half)
        } else {
            (lo_half, hi_half)
        };
        // Shrink the owner onto `keep` (index updated by the primitives).
        if zone.same_box(&self.node(owner).zone) {
            self.replace_primary(owner, keep);
        } else {
            self.drop_fragment(owner, &zone);
            self.add_zone(owner, keep);
        }
        // Replicas overlapping the granted half travel along (copy — the
        // owner keeping spares only ever *adds* candidates).
        let mut stats = self.transfer_replicas(owner, to, &give);
        let merged = self.grant_zone(to, give.clone());
        let mut affected = self.nodes_around(&[zone]);
        affected.push(owner);
        affected.push(to);
        self.refresh_neighbours(&affected);
        self.refresh_fingers();
        let distinct: std::collections::BTreeSet<NodeId> = affected.into_iter().collect();
        // Split handshake + one neighbour update per affected node.
        stats += OpStats {
            messages: 2 + distinct.len() as u64,
            bytes: (2 + distinct.len() as u64) * CTRL_MSG_BYTES,
            ..OpStats::zero()
        };
        let tel = self.recorder();
        if tel.is_enabled() {
            tel.event(
                tel.scope(),
                Name::ZoneSplit,
                vec![
                    ("from", owner.0.into()),
                    ("to", to.0.into()),
                    ("axis", axis.into()),
                    ("merged", merged.into()),
                ],
            );
            if merged {
                // The granted half was the beneficiary's dyadic sibling
                // and folded straight into its primary.
                tel.event(
                    tel.scope(),
                    Name::ZoneMerge,
                    vec![("node", to.0.into()), ("axis", axis.into())],
                );
            }
        }
        Some(stats)
    }

    /// Load-relief migration: move `from`'s largest adopted fragment (a
    /// "virtual zone") to `to`, through the same replica handoff the
    /// leave/takeover machinery uses. [`CanOverlay::check_invariants`]
    /// holds on return.
    ///
    /// Returns the migrated zone and the message cost, or `None` when
    /// either node is dead, `from == to`, or `from` holds no fragments
    /// (the balancer then falls back to [`CanOverlay::split_adopt`] on
    /// the primary).
    pub fn migrate_fragment(&mut self, from: NodeId, to: NodeId) -> Option<(Zone, OpStats)> {
        if from == to || !self.node(from).alive || !self.node(to).alive {
            return None;
        }
        #[expect(
            clippy::unwrap_used,
            reason = "zone volumes are finite positive products of box extents; partial_cmp cannot see NaN"
        )]
        let frag = self
            .node(from)
            .adopted
            .iter()
            .max_by(|a, b| a.volume().partial_cmp(&b.volume()).unwrap())?
            .clone();
        let mut stats = self.transfer_replicas(from, to, &frag);
        self.drop_fragment(from, &frag);
        let merged = self.grant_zone(to, frag.clone());
        let mut affected = self.nodes_around(std::slice::from_ref(&frag));
        affected.push(from);
        affected.push(to);
        self.refresh_neighbours(&affected);
        self.refresh_fingers();
        let distinct: std::collections::BTreeSet<NodeId> = affected.into_iter().collect();
        stats += OpStats {
            messages: 2 + distinct.len() as u64,
            bytes: (2 + distinct.len() as u64) * CTRL_MSG_BYTES,
            ..OpStats::zero()
        };
        let tel = self.recorder();
        if tel.is_enabled() {
            tel.event(
                tel.scope(),
                Name::VnodeMigrate,
                vec![
                    ("from", from.0.into()),
                    ("to", to.0.into()),
                    ("merged", merged.into()),
                ],
            );
            if merged {
                tel.event(tel.scope(), Name::ZoneMerge, vec![("node", to.0.into())]);
            }
        }
        Some((frag, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::{CanConfig, CanOverlay, RouteOutcome};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn overlay(dim: usize, n: usize, seed: u64) -> CanOverlay {
        CanOverlay::bootstrap(CanConfig::new(dim).with_seed(seed), n)
    }

    #[test]
    fn graceful_leave_keeps_invariants_and_data() {
        let mut o = overlay(2, 16, 1);
        let obj = crate::ops::ObjectRef {
            peer: 0,
            tag: 0,
            items: 1,
        };
        o.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.2, obj, true);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let alive = o.alive_ids();
            let victim = alive[rng.gen_range(0..alive.len())];
            o.leave(victim);
            o.repair_to_quiescence(16);
            o.check_invariants();
        }
        assert_eq!(o.alive_count(), 6);
        // The sphere is still fully replicated over the survivors.
        for n in o.nodes().filter(|n| n.alive) {
            if n.intersects_sphere(&[0.5, 0.5], 0.2) {
                assert!(
                    n.store.iter().any(|s| s.id == 0),
                    "replica missing at {} after leaves",
                    n.id
                );
            }
        }
    }

    #[test]
    fn crash_takeover_keeps_invariants() {
        let mut o = overlay(2, 32, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..12 {
            let alive = o.alive_ids();
            let victim = alive[rng.gen_range(0..alive.len())];
            let out = o.fail(victim);
            assert!(out.takeover_rounds >= DETECT_TICKS);
            assert!(!out.adopters.is_empty());
            o.repair_to_quiescence(16);
            o.check_invariants();
        }
        assert_eq!(o.alive_count(), 20);
        // Routing still reaches an owner from any alive start.
        let alive = o.alive_ids();
        for _ in 0..40 {
            let t = [rng.gen::<f64>(), rng.gen::<f64>()];
            let from = alive[rng.gen_range(0..alive.len())];
            let res = o.route_result(from, &t, 8);
            assert_eq!(res.outcome, RouteOutcome::Delivered);
            assert_eq!(res.node, o.owner_of(&t));
        }
    }

    #[test]
    fn repair_normalises_fragments() {
        let mut o = overlay(2, 24, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..8 {
            let alive = o.alive_ids();
            o.fail(alive[rng.gen_range(0..alive.len())]);
        }
        o.repair_to_quiescence(64);
        o.check_invariants();
        // Quiescent repair leaves at most a handful of stubborn fragments.
        assert!(
            o.fragment_count() <= 2,
            "{} fragments survived repair",
            o.fragment_count()
        );
    }

    #[test]
    fn no_takeover_leaves_explicit_dead_ends() {
        let mut o = overlay(2, 16, 7);
        let hole_centre = o.node(NodeId(3)).zone.centre();
        o.fail_no_takeover(NodeId(3));
        let res = o.route_result(NodeId(0), &hole_centre, 8);
        assert_eq!(res.outcome, RouteOutcome::DeadEnd);
        assert_eq!(res.stats.failed_routes, 1);
        assert!(o.try_owner_of(&hole_centre).is_none());
    }

    #[test]
    fn interleaved_joins_and_failures_stay_sound() {
        let mut o = overlay(2, 8, 8);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..30 {
            if i % 3 == 0 && o.alive_count() > 4 {
                let alive = o.alive_ids();
                let victim = alive[rng.gen_range(0..alive.len())];
                if i % 2 == 0 {
                    o.fail(victim);
                } else {
                    o.leave(victim);
                }
            } else {
                let alive = o.alive_ids();
                let entry = alive[rng.gen_range(0..alive.len())];
                let p = vec![rng.gen::<f64>(), rng.gen::<f64>()];
                o.join(entry, &p);
            }
            o.repair_to_quiescence(16);
            o.check_invariants();
        }
    }

    #[test]
    fn leave_respects_last_node_guard() {
        let mut o = overlay(2, 2, 10);
        o.leave(NodeId(0));
        o.check_invariants();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            o.leave(NodeId(1));
        }));
        assert!(result.is_err(), "last node must not leave");
    }

    #[test]
    fn split_adopt_keeps_invariants_and_replicas() {
        let mut o = overlay(2, 8, 21);
        let obj = crate::ops::ObjectRef {
            peer: 0,
            tag: 0,
            items: 1,
        };
        o.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.3, obj, true);
        let mut rng = StdRng::seed_from_u64(22);
        let mut splits = 0usize;
        for _ in 0..24 {
            let point = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let alive = o.alive_ids();
            let to = alive[rng.gen_range(0..alive.len())];
            if o.split_adopt(&point, to).is_some() {
                splits += 1;
            }
            o.check_invariants();
        }
        assert!(splits > 0, "some splits must land");
        // The covering property survives: every node whose zone overlaps
        // the sphere holds its replica.
        for n in o.nodes().filter(|n| n.alive) {
            if n.intersects_sphere(&[0.5, 0.5], 0.3) {
                assert!(
                    n.store.iter().any(|s| s.id == 0),
                    "replica missing at {} after splits",
                    n.id
                );
            }
        }
        // Range results are a superset of the pre-split candidates: the
        // single inserted sphere is still found from anywhere.
        let out = o.range_query(NodeId(1), &[0.5, 0.5], 0.05);
        assert!(out.matches.iter().any(|m| m.id == 0));
    }

    #[test]
    fn split_adopt_rejects_degenerate_targets() {
        let mut o = overlay(2, 4, 23);
        let owner = o.try_owner_of(&[0.1, 0.1]).unwrap();
        assert!(o.split_adopt(&[0.1, 0.1], owner).is_none(), "self-split");
        let other = o.alive_ids().into_iter().find(|&n| n != owner).unwrap();
        let out = o.fail_no_takeover(other);
        let _ = out;
        assert!(
            o.split_adopt(&[0.9, 0.9], other).is_none(),
            "dead beneficiary"
        );
    }

    #[test]
    fn migrate_fragment_keeps_invariants_and_replicas() {
        let mut o = overlay(2, 12, 25);
        let obj = crate::ops::ObjectRef {
            peer: 1,
            tag: 0,
            items: 1,
        };
        o.insert_sphere(NodeId(0), vec![0.4, 0.6], 0.25, obj, true);
        // Manufacture fragments via splits, then migrate them around.
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..8 {
            let point = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let alive = o.alive_ids();
            let to = alive[rng.gen_range(0..alive.len())];
            let _ = o.split_adopt(&point, to);
        }
        o.check_invariants();
        let mut migrated = 0usize;
        for _ in 0..16 {
            let holders: Vec<NodeId> = o
                .nodes()
                .filter(|n| n.alive && !n.adopted.is_empty())
                .map(|n| n.id)
                .collect();
            let Some(&from) = holders.first() else { break };
            let alive = o.alive_ids();
            let to = alive[rng.gen_range(0..alive.len())];
            if let Some((zone, _)) = o.migrate_fragment(from, to) {
                migrated += 1;
                // The new holder owns the zone now.
                assert!(o
                    .node(to)
                    .zones()
                    .any(|z| z.same_box(&zone) || z.contains_zone(&zone)));
            }
            o.check_invariants();
        }
        assert!(migrated > 0, "some migrations must land");
        for n in o.nodes().filter(|n| n.alive) {
            if n.intersects_sphere(&[0.4, 0.6], 0.25) {
                assert!(
                    n.store.iter().any(|s| s.id == 0),
                    "replica missing at {} after migrations",
                    n.id
                );
            }
        }
        // Fragments always merge back to quiescence afterwards.
        o.repair_to_quiescence(32);
        o.check_invariants();
    }

    #[test]
    fn migrate_without_fragments_returns_none() {
        let mut o = overlay(2, 4, 27);
        assert_eq!(o.fragment_count(), 0);
        assert!(o.migrate_fragment(NodeId(0), NodeId(1)).is_none());
    }
}
