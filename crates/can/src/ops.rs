//! Object operations: insertion with replication, lookups and flooding
//! range queries.
//!
//! Hyper-M's published objects are cluster *spheres*, and "a problem
//! specific to CAN when used to index non-zero sized objects is the
//! possibility that the area of the object overlaps more than one region"
//! (Section 5, Figure 6). A sphere is therefore **replicated** into every
//! zone it overlaps, by flooding outward from its centroid's owner; range
//! queries symmetrically flood every zone overlapping the query ball.
//! Both floods are costed as idealised multicast trees: one message per
//! newly reached node (real gossip would add duplicate-suppression traffic,
//! which affects constants, not shapes).
//!
//! The range flood is [`CanOverlay::range_visit`]: per visited node it
//! runs the store's one scan ([`crate::store::ObjectStore::scan`], a
//! branch-free pass over the centre and radius columns), then hands each
//! newly matched object to a visitor as a borrowed [`ObjectView`] with the
//! centre distance the scan computed, in slot order. So a caller that only
//! folds the matches (Eq. 1 scoring) copies nothing, and the scan reads
//! the bytes the sphere test needs and no others.
//! [`CanOverlay::point_lookup`] is the same scan at radius 0 on the
//! owner's store, and [`CanOverlay::range_query`] the flood with a copying
//! collector. BATON and VBI floods follow the same contract, lend views of
//! their own objects and share [`SeenIds`] and
//! [`dist`](hyperm_geometry::vecmath::dist).

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
    reason = "flood slot indices are binary_search hits into the candidate list built in the same scope"
)]
use crate::overlay::CanOverlay;
use crate::zone::Zone;
use hyperm_sim::{NodeId, OpStats};
use hyperm_telemetry::{Name, SpanId};
#[expect(
    clippy::disallowed_types,
    reason = "SeenIds only inserts and tests membership: its order never reaches a result"
)]
use std::collections::HashSet;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Render a zone's box for trace events (`[0.000,0.250)x[0.500,1.000)`).
fn zone_str(z: &Zone) -> String {
    z.lo()
        .iter()
        .zip(z.hi())
        .map(|(l, h)| format!("[{l:.3},{h:.3})"))
        .collect::<Vec<_>>()
        .join("x")
}

/// What a stored object points back to: the peer that published it and an
/// opaque tag (e.g. which of the peer's clusters it is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRef {
    /// Publishing peer (application-level id, not the CAN node id).
    pub peer: usize,
    /// Publisher-chosen tag (cluster index, item index, …).
    pub tag: u64,
    /// Number of data items this object summarises (`items_c` of Eq. 1).
    pub items: u32,
}

/// An object stored in a CAN node's local store (possibly a replica).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject {
    /// Globally unique object id (assigned at insertion; replicas share it).
    pub id: u64,
    /// Key-space centre.
    pub centre: Vec<f64>,
    /// Key-space radius (0 for point objects).
    pub radius: f64,
    /// Back-reference to the publisher.
    pub payload: ObjectRef,
}

impl StoredObject {
    /// Exact wire size of this object's binary encoding (see
    /// [`crate::codec`]).
    pub fn wire_bytes(&self) -> u64 {
        object_bytes(self.centre.len())
    }

    /// This object, borrowed.
    pub fn view(&self) -> ObjectView<'_> {
        ObjectView {
            id: self.id,
            centre: &self.centre,
            radius: self.radius,
            payload: self.payload,
        }
    }
}

/// A stored object lent to a range flood's visitor: the fields of a
/// [`StoredObject`], with the centre borrowed from wherever the store
/// keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectView<'a> {
    /// Globally unique object id.
    pub id: u64,
    /// Key-space centre.
    pub centre: &'a [f64],
    /// Key-space radius (0 for point objects).
    pub radius: f64,
    /// Back-reference to the publisher.
    pub payload: ObjectRef,
}

impl ObjectView<'_> {
    /// An owned copy.
    pub fn to_stored(self) -> StoredObject {
        StoredObject {
            id: self.id,
            centre: self.centre.to_vec(),
            radius: self.radius,
            payload: self.payload,
        }
    }
}

/// Result of a sphere/point insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertOutcome {
    /// Owner of the object's centre.
    pub owner: NodeId,
    /// Nodes storing the object (1 = no replication happened/needed).
    pub replicas: usize,
    /// Zones the sphere overlaps — the replica count a fully delivered
    /// flood achieves. `replicas < targets` means lossy flood edges left
    /// coverage holes (possible only on the fallible publish path).
    pub targets: usize,
    /// Total message cost (routing + replication fan-out).
    pub stats: OpStats,
    /// Critical-path length in rounds: routing hops + replication-flood
    /// depth (flood messages at the same depth travel in parallel).
    pub rounds: u64,
}

impl InsertOutcome {
    /// Whether every overlapping zone received its replica.
    pub fn complete(&self) -> bool {
        self.replicas == self.targets
    }
}

/// Result of a range query.
#[derive(Debug, Clone)]
pub struct RangeOutcome {
    /// Matching objects, deduplicated by object id.
    pub matches: Vec<StoredObject>,
    /// Overlay nodes visited by the flood.
    pub nodes_visited: usize,
    /// Total message cost (routing + flood + responses).
    pub stats: OpStats,
}

/// A range flood's duplicate filter: the ids of the objects it has matched.
/// Replicas share their object's id, so each object reaches the visitor
/// once. Memory grows with the objects a flood matches, never with the id
/// values, which keep growing as summaries are republished.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "SeenIds only inserts and tests membership: its order never reaches a result"
)]
pub struct SeenIds(HashSet<u64, BuildHasherDefault<IdHasher>>);

impl SeenIds {
    /// Record `id`; `true` the first time it is seen.
    pub fn insert(&mut self, id: u64) -> bool {
        self.0.insert(id)
    }

    /// Make room for `additional` more ids.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }
}

/// Multiplicative (Fibonacci) hash of an object id. Ids are assigned by
/// the overlay itself, never taken from a frame, so no sender can choose
/// keys that collide, and SipHash's protection buys nothing here.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Size of a range-query packet: centre + radius + header.
fn query_bytes(dim: usize) -> u64 {
    8 * (dim as u64 + 1) + 16
}

/// Wire size of one `dim`-dimensional object in a reply or a handoff —
/// what [`StoredObject::wire_bytes`] reports for every object a store
/// holds.
pub(crate) fn object_bytes(dim: usize) -> u64 {
    crate::codec::object_wire_len(dim) as u64
}

impl CanOverlay {
    /// Insert a sphere object whose centre/radius are already in key space.
    ///
    /// Routes from `from` to the centre's owner, then (if `replicate`)
    /// floods replicas into every zone the sphere overlaps. With
    /// `replicate = false` only the owner stores it — the paper's
    /// "no-replication standard" baseline of Figure 8a.
    pub fn insert_sphere(
        &mut self,
        from: NodeId,
        centre: Vec<f64>,
        radius: f64,
        payload: ObjectRef,
        replicate: bool,
    ) -> InsertOutcome {
        match self.insert_sphere_impl(from, centre, radius, payload, replicate, false) {
            Ok(out) => out,
            #[expect(
                clippy::panic,
                reason = "infallible entry point by contract: callers on this path run on repaired topologies (see doc comment); fault-aware callers use try_insert_sphere"
            )]
            Err(_) => panic!("publish route failed on the reliable path"),
        }
    }

    /// Fallible, fault-aware sphere insertion — the reliable-publish data
    /// path. The route to the owner and every replication flood edge roll
    /// the installed fault injector (ack/retransmit per hop) and respect
    /// an active partition. A route that dead-ends returns `Err` with the
    /// burnt cost and stores nothing; a flood edge whose retries exhaust
    /// leaves that zone to be covered by another branch, if any —
    /// surfacing as `replicas < targets` when none reaches it. With no
    /// injector and no partition installed this is bit-identical to
    /// [`CanOverlay::insert_sphere`].
    pub fn try_insert_sphere(
        &mut self,
        from: NodeId,
        centre: Vec<f64>,
        radius: f64,
        payload: ObjectRef,
        replicate: bool,
    ) -> Result<InsertOutcome, OpStats> {
        self.insert_sphere_impl(from, centre, radius, payload, replicate, true)
    }

    fn insert_sphere_impl(
        &mut self,
        from: NodeId,
        centre: Vec<f64>,
        radius: f64,
        payload: ObjectRef,
        replicate: bool,
        with_faults: bool,
    ) -> Result<InsertOutcome, OpStats> {
        assert_eq!(centre.len(), self.dim(), "centre dimension mismatch");
        assert!(radius >= 0.0, "negative radius {radius}");
        let id = self.next_object_id;
        self.next_object_id += 1;
        let obj = StoredObject {
            id,
            centre,
            radius,
            payload,
        };
        let bytes = obj.wire_bytes();
        let tel = self.recorder().clone();
        let traced = tel.is_enabled();

        let res = self.route_result_with(from, &obj.centre, bytes, with_faults);
        if res.outcome != crate::overlay::RouteOutcome::Delivered {
            return Err(res.stats);
        }
        let (owner, mut stats) = (res.node, res.stats);
        let route_rounds = res.rounds;
        let flood_span = if traced {
            tel.span(
                tel.scope(),
                Name::Flood,
                vec![
                    ("kind", "publish".into()),
                    ("owner", owner.0.into()),
                    ("radius", radius.into()),
                ],
            )
        } else {
            SpanId::NONE
        };

        let replicas;
        let mut targets = 1usize;
        let mut flood_depth = 0u64;
        if replicate && radius > 0.0 {
            // BFS flood over zones overlapping the sphere; the queue holds
            // (node, depth) so the critical path is the max depth reached.
            // Candidate zones come from the spatial index; membership in
            // the pre-filtered candidate set is exactly the old per-edge
            // `intersects_sphere` test. Each edge is one transmission,
            // subject to fault injection on the fallible path (no-fault
            // path: 1 attempt, so costs are bit-identical); an undelivered
            // edge leaves the neighbour to another flood branch, and
            // severed (partitioned) links are simply absent.
            let candidates = self.flood_candidates(&obj.centre, obj.radius);
            targets = candidates.len();
            let slot_of = |id: NodeId| candidates.binary_search(&(id.0 as u32)).ok();
            let mut visited = vec![false; candidates.len()];
            // The BFS queue is `order` itself: every node is appended once,
            // when first reached, and `next` walks it in visit order. The
            // flood only reads the overlay, so the replicas are stored
            // after it, in that same order.
            let mut order: Vec<(NodeId, u64)> = Vec::with_capacity(candidates.len());
            #[expect(
                clippy::expect_used,
                reason = "owner's zone overlaps the object it stores, so owner is always in candidates"
            )]
            let start = slot_of(owner).expect("owner zone overlaps its own object");
            visited[start] = true;
            order.push((owner, 0u64));
            let mut next = 0;
            while let Some(&(n, depth)) = order.get(next) {
                next += 1;
                flood_depth = flood_depth.max(depth);
                if traced {
                    tel.event(
                        flood_span,
                        Name::Replica,
                        vec![("node", n.0.into()), ("depth", depth.into())],
                    );
                }
                for &nb in &self.node(n).neighbours {
                    if let Some(slot) = slot_of(nb) {
                        if !visited[slot] && self.reachable(n, nb) {
                            let (delivered, attempts, _ticks) = if with_faults {
                                self.fault_hop()
                            } else {
                                (true, 1, 1)
                            };
                            stats.messages += attempts;
                            stats.bytes += attempts * bytes;
                            stats.retries += attempts.saturating_sub(1);
                            if traced && attempts > 1 {
                                tel.event(
                                    flood_span,
                                    Name::Retry,
                                    vec![
                                        ("from", n.0.into()),
                                        ("to", nb.0.into()),
                                        ("attempts", attempts.into()),
                                    ],
                                );
                            }
                            if delivered {
                                stats.hops += 1;
                                visited[slot] = true;
                                if traced {
                                    tel.event(
                                        flood_span,
                                        Name::FloodEdge,
                                        vec![
                                            ("from", n.0.into()),
                                            ("to", nb.0.into()),
                                            ("depth", (depth + 1).into()),
                                        ],
                                    );
                                }
                                order.push((nb, depth + 1));
                            } else if traced {
                                tel.event(
                                    flood_span,
                                    Name::Drop,
                                    vec![("from", n.0.into()), ("to", nb.0.into())],
                                );
                            }
                        }
                    }
                }
            }
            replicas = order.len();
            for (n, _) in order {
                self.node_mut(n).store.push(obj.view());
            }
        } else {
            self.node_mut(owner).store.push(obj.view());
            replicas = 1;
            if traced {
                tel.event(
                    flood_span,
                    Name::Replica,
                    vec![("node", owner.0.into()), ("depth", 0u64.into())],
                );
            }
        }
        tel.end(
            flood_span,
            Name::Flood,
            vec![("replicas", replicas.into()), ("depth", flood_depth.into())],
        );
        Ok(InsertOutcome {
            owner,
            replicas,
            targets,
            stats,
            rounds: route_rounds + flood_depth,
        })
    }

    /// Insert a zero-sized (point) object.
    pub fn insert_point(
        &mut self,
        from: NodeId,
        point: Vec<f64>,
        payload: ObjectRef,
    ) -> InsertOutcome {
        self.insert_sphere(from, point, 0.0, payload, false)
    }

    /// Remove every stored object (all replicas, all versions) published by
    /// `peer` under a tag in `tags` — the invalidation step of a summary
    /// re-publish, in one pass over the stores however many tags it covers.
    ///
    /// Cost model: one invalidation message per removed replica (the
    /// publisher re-floods the same tree that placed them). Host cost: each
    /// store reads its publisher column up to the first victim and is
    /// written only from there on ([`crate::store::ObjectStore::remove_published`]).
    pub fn remove_objects(&mut self, peer: usize, tags: Range<u64>) -> (usize, OpStats) {
        let removed: usize = self
            .nodes_mut()
            .map(|node| node.store.remove_published(peer, &tags))
            .sum();
        let stats = OpStats {
            hops: removed as u64,
            messages: removed as u64,
            bytes: removed as u64 * 24,
            ..OpStats::zero()
        };
        (removed, stats)
    }

    /// Route to the owner of `point` and return the stored objects whose
    /// spheres contain it (the overlay half of a Hyper-M *point query*).
    ///
    /// Replication guarantees completeness: any sphere containing `point`
    /// overlaps the zone containing `point`, so a replica lives at the
    /// owner.
    /// Queries on damaged or faulty overlays degrade instead of panicking:
    /// if routing dead-ends (an unrepaired hole, or injected faults
    /// exhausting retries), the result is empty and the cost record carries
    /// `failed_routes = 1`.
    pub fn point_lookup(&self, from: NodeId, point: &[f64]) -> (Vec<StoredObject>, OpStats) {
        assert_eq!(point.len(), self.dim(), "point dimension mismatch");
        let tel = self.recorder();
        let res = self.route_result(from, point, query_bytes(self.dim()));
        if res.outcome != crate::overlay::RouteOutcome::Delivered {
            return (Vec::new(), res.stats);
        }
        let (owner, mut stats) = (res.node, res.stats);
        // Load attribution: the owner both admits and answers a point
        // lookup (one query_served; the reply is charged below).
        self.load.query_served(owner.0);
        if tel.is_enabled() {
            tel.event(
                tel.scope(),
                Name::Visit,
                vec![
                    ("node", owner.0.into()),
                    ("zone", zone_str(&self.node(owner).zone).into()),
                ],
            );
        }
        // The flood's scan at radius 0: `radius_c + 0.0 + 1e-12` is
        // `radius_c + 1e-12`, so a hit is a sphere containing the point.
        let store = &self.node(owner).store;
        let mut hits = Vec::new();
        let matches: Vec<StoredObject> = store
            .scan(point, 0.0, &mut hits)
            .iter()
            .filter_map(|&(slot, _)| store.get(slot as usize))
            .map(ObjectView::to_stored)
            .collect();
        // One response message carrying the matches.
        let resp_bytes = (matches.len() as u64 * object_bytes(self.dim())).max(16);
        stats += OpStats::one_hop(resp_bytes);
        self.load.flood_visit(owner.0, resp_bytes);
        (matches, stats)
    }

    /// Flooding range query: find every stored object whose sphere
    /// intersects the query ball `(centre, radius)` (key space).
    ///
    /// [`CanOverlay::range_visit`] with a collector that clones each match,
    /// deduplicated by id, in the order the flood reached them.
    pub fn range_query(&self, from: NodeId, centre: &[f64], radius: f64) -> RangeOutcome {
        let mut matches = Vec::new();
        let (nodes_visited, stats) =
            self.range_visit(from, centre, radius, |obj, _| matches.push(obj.to_stored()));
        RangeOutcome {
            matches,
            nodes_visited,
            stats,
        }
    }

    /// The range flood: hand every stored object whose sphere intersects
    /// the query ball `(centre, radius)` (key space) to `visit` as
    /// `(object, b)`, once per object id and in first-seen BFS order (slot
    /// order within a node), where `b` is
    /// [`dist`](hyperm_geometry::vecmath::dist) from the object's centre to
    /// `centre`. Returns the nodes visited and the total message
    /// cost (routing + flood + responses).
    ///
    /// Routes to the centre's owner, then floods every node whose zone
    /// overlaps the query ball. Thanks to replication this visits exactly
    /// the zones that can hold a match, so the result is complete — the
    /// overlay-level precondition for Theorem 4.1's no-false-dismissal
    /// guarantee. Like [`CanOverlay::point_lookup`], the query is total
    /// under damage and faults: a dead-ended route visits nothing (with
    /// `failed_routes` ticked), and with fault injection active every flood
    /// edge may be retried or lost — a lost edge leaves the neighbour to be
    /// reached via another branch of the flood, if any.
    pub fn range_visit(
        &self,
        from: NodeId,
        centre: &[f64],
        radius: f64,
        mut visit: impl FnMut(ObjectView<'_>, f64),
    ) -> (usize, OpStats) {
        assert_eq!(centre.len(), self.dim(), "centre dimension mismatch");
        assert!(radius >= 0.0, "negative radius {radius}");
        let qb = query_bytes(self.dim());
        let tel = self.recorder();
        let traced = tel.is_enabled();
        let res = self.route_result(from, centre, qb);
        if res.outcome != crate::overlay::RouteOutcome::Delivered {
            return (0, res.stats);
        }
        let (owner, mut stats) = (res.node, res.stats);
        // Load attribution: the owner admits the query (exactly one
        // query_served charge per delivered lookup).
        self.load.query_served(owner.0);
        let flood_span = if traced {
            tel.span(
                tel.scope(),
                Name::Flood,
                vec![
                    ("kind", "range".into()),
                    ("owner", owner.0.into()),
                    ("radius", radius.into()),
                ],
            )
        } else {
            SpanId::NONE
        };

        // Flood membership via the spatial index: the candidate set is the
        // exact set of zones overlapping the query ball, so BFS order,
        // visited set and all charged costs match the unindexed flood
        // bit-for-bit — only host-side work per edge shrinks.
        let candidates = self.flood_candidates(centre, radius);
        let slot_of = |id: NodeId| candidates.binary_search(&(id.0 as u32)).ok();
        let mut visited = vec![false; candidates.len()];
        let mut queue = VecDeque::new();
        #[expect(
            clippy::expect_used,
            reason = "route postcondition: the owner's zone contains the query centre, so it is in candidates"
        )]
        let start = slot_of(owner).expect("owner zone contains the query centre");
        visited[start] = true;
        queue.push_back(owner);
        let mut seen = SeenIds::default();
        let mut hits = Vec::new();
        let obj_bytes = object_bytes(self.dim());
        let mut matches = 0usize;
        let (mut scanned, mut hit_count) = (0usize, 0usize);
        let mut nodes_visited = 0usize;
        let mut resp_bytes = 0u64;

        while let Some(n) = queue.pop_front() {
            nodes_visited += 1;
            let node = self.node(n);
            let store = &node.store;
            let found = store.scan(centre, radius, &mut hits);
            if nodes_visited == 1 {
                seen.reserve(found.len());
            }
            scanned += store.len();
            hit_count += found.len();
            let before = matches;
            for &(slot, b) in found {
                if let Some(obj) = store.get(slot as usize) {
                    if seen.insert(obj.id) {
                        matches += 1;
                        visit(obj, b);
                    }
                }
            }
            // Every visited node replies; load attribution: the visited
            // node scans its store and transmits the reply — charged once,
            // to it alone.
            let local_bytes = ((matches - before) as u64 * obj_bytes).max(16);
            resp_bytes += local_bytes;
            self.load.flood_visit(n.0, local_bytes);
            if traced {
                tel.event(
                    flood_span,
                    Name::Visit,
                    vec![
                        ("node", n.0.into()),
                        ("matched", (matches - before).into()),
                        ("zone", zone_str(&node.zone).into()),
                    ],
                );
            }
            for &nb in &node.neighbours {
                if let Some(slot) = slot_of(nb) {
                    if !visited[slot] && self.reachable(n, nb) {
                        // Each flood edge is one transmission, subject to
                        // fault injection (no-fault path: 1 attempt, so
                        // costs are bit-identical with injection off);
                        // severed (partitioned) links are simply absent.
                        let (delivered, attempts, _ticks) = self.fault_hop();
                        stats.messages += attempts;
                        stats.bytes += attempts * qb;
                        stats.retries += attempts.saturating_sub(1);
                        // Retransmissions are paid by the flood-edge
                        // sender `n`, never also by the receiver.
                        self.load.retries(n.0, attempts.saturating_sub(1));
                        if traced && attempts > 1 {
                            tel.event(
                                flood_span,
                                Name::Retry,
                                vec![
                                    ("from", n.0.into()),
                                    ("to", nb.0.into()),
                                    ("attempts", attempts.into()),
                                ],
                            );
                        }
                        if delivered {
                            stats.hops += 1;
                            visited[slot] = true;
                            if traced {
                                tel.event(
                                    flood_span,
                                    Name::FloodEdge,
                                    vec![("from", n.0.into()), ("to", nb.0.into())],
                                );
                            }
                            queue.push_back(nb);
                        } else if traced {
                            tel.event(
                                flood_span,
                                Name::Drop,
                                vec![("from", n.0.into()), ("to", nb.0.into())],
                            );
                        }
                    }
                }
            }
        }
        // Response messages: one per visited node (idealised direct reply).
        stats += OpStats {
            hops: nodes_visited as u64,
            messages: nodes_visited as u64,
            bytes: resp_bytes,
            ..OpStats::zero()
        };
        tel.end(
            flood_span,
            Name::Flood,
            vec![
                ("visited", nodes_visited.into()),
                ("scanned", scanned.into()),
                ("hits", hit_count.into()),
                ("matches", matches.into()),
                ("resp_bytes", resp_bytes.into()),
            ],
        );
        (nodes_visited, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::CanConfig;
    use hyperm_geometry::vecmath::dist;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn overlay_2d(n: usize, seed: u64) -> CanOverlay {
        CanOverlay::bootstrap(CanConfig::new(2).with_seed(seed), n)
    }

    fn payload(peer: usize) -> ObjectRef {
        ObjectRef {
            peer,
            tag: 0,
            items: 1,
        }
    }

    #[test]
    fn point_insert_lands_at_owner() {
        let mut overlay = overlay_2d(16, 1);
        let out = overlay.insert_point(NodeId(0), vec![0.7, 0.2], payload(3));
        assert_eq!(out.replicas, 1);
        assert_eq!(out.owner, overlay.owner_of(&[0.7, 0.2]));
        assert_eq!(overlay.node(out.owner).store.len(), 1);
    }

    #[test]
    fn sphere_replicates_into_overlapping_zones() {
        let mut overlay = overlay_2d(32, 2);
        // A big sphere overlapping many zones.
        let out = overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.3, payload(1), true);
        assert!(
            out.replicas > 1,
            "expected replication, got {}",
            out.replicas
        );
        // Exactly the overlapping zones hold a replica.
        for node in overlay.nodes() {
            let should = node.zone.intersects_sphere(&[0.5, 0.5], 0.3);
            let has = node.store.iter().any(|o| o.id == 0);
            assert_eq!(should, has, "node {} replica mismatch", node.id);
        }
    }

    #[test]
    fn no_replication_mode_stores_once() {
        let mut overlay = overlay_2d(32, 3);
        let out = overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.3, payload(1), false);
        assert_eq!(out.replicas, 1);
        let total: usize = overlay.store_sizes().iter().sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn smaller_spheres_replicate_less() {
        let mut a = overlay_2d(64, 4);
        let mut b = a.clone();
        let big = a.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.25, payload(1), true);
        let small = b.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.02, payload(1), true);
        assert!(small.replicas <= big.replicas);
        assert!(small.stats.hops <= big.stats.hops);
    }

    #[test]
    fn point_lookup_finds_covering_spheres() {
        let mut overlay = overlay_2d(32, 5);
        overlay.insert_sphere(NodeId(0), vec![0.3, 0.3], 0.15, payload(1), true);
        overlay.insert_sphere(NodeId(0), vec![0.8, 0.8], 0.05, payload(2), true);
        let (hits, _) = overlay.point_lookup(NodeId(1), &[0.35, 0.3]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].payload.peer, 1);
        let (hits, _) = overlay.point_lookup(NodeId(1), &[0.5, 0.5]);
        assert!(hits.is_empty());
    }

    #[test]
    fn range_query_is_complete_versus_linear_scan() {
        let mut overlay = overlay_2d(48, 6);
        let mut rng = StdRng::seed_from_u64(9);
        let mut truth: Vec<(u64, Vec<f64>, f64)> = Vec::new();
        for i in 0..200 {
            let centre = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let radius = rng.gen::<f64>() * 0.08;
            let out = overlay.insert_sphere(NodeId(0), centre.clone(), radius, payload(i), true);
            truth.push((out.replicas as u64, centre, radius));
        }
        for _ in 0..30 {
            let q = [rng.gen::<f64>(), rng.gen::<f64>()];
            let qr = rng.gen::<f64>() * 0.2;
            let res = overlay.range_query(NodeId(2), &q, qr);
            let expected: usize = truth
                .iter()
                .filter(|(_, c, r)| {
                    let d = ((c[0] - q[0]).powi(2) + (c[1] - q[1]).powi(2)).sqrt();
                    d <= r + qr + 1e-12
                })
                .count();
            assert_eq!(res.matches.len(), expected, "query {q:?} r={qr}");
        }
    }

    #[test]
    fn range_query_dedupes_replicas() {
        let mut overlay = overlay_2d(32, 7);
        overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.4, payload(1), true);
        let res = overlay.range_query(NodeId(0), &[0.5, 0.5], 0.5);
        assert_eq!(res.matches.len(), 1);
        assert!(res.nodes_visited > 1);
    }

    /// The flood's dedupe is sized by the objects it matches, not by their
    /// ids: with ids near `u64::MAX` (a long-lived overlay that has
    /// republished for ages) a flood still answers, where a bitset indexed
    /// by id would try to allocate exabytes.
    #[test]
    fn range_query_dedupes_ids_near_the_top_of_u64() {
        let mut overlay = overlay_2d(32, 12);
        overlay.next_object_id = u64::MAX - 1_000;
        let mut rng = StdRng::seed_from_u64(13);
        let mut truth = Vec::new();
        for i in 0..60 {
            let centre = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let radius = rng.gen::<f64>() * 0.2;
            overlay.insert_sphere(NodeId(i % 32), centre.clone(), radius, payload(i), true);
            truth.push((centre, radius));
        }
        for _ in 0..10 {
            let q = [rng.gen::<f64>(), rng.gen::<f64>()];
            let res = overlay.range_query(NodeId(4), &q, 0.15);
            let mut ids: Vec<u64> = res.matches.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            let expected: Vec<u64> = (0u64..)
                .zip(&truth)
                .filter(|(_, (c, r))| dist(c, &q) <= r + 0.15 + 1e-12)
                .map(|(i, _)| u64::MAX - 1_000 + i)
                .collect();
            assert_eq!(ids, expected, "query {q:?}");
        }
    }

    /// `remove_objects` as it was before the publisher column: `retain`
    /// over every store, costed at one 24-byte message per removed replica.
    fn remove_objects_by_retain(
        overlay: &mut CanOverlay,
        peer: usize,
        tags: Range<u64>,
    ) -> (usize, OpStats) {
        let mut removed = 0usize;
        for node in overlay.nodes_mut() {
            let before = node.store.len();
            node.store
                .retain(|o| !(o.payload.peer == peer && tags.contains(&o.payload.tag)));
            removed += before - node.store.len();
        }
        let stats = OpStats {
            hops: removed as u64,
            messages: removed as u64,
            bytes: removed as u64 * 24,
            ..OpStats::zero()
        };
        (removed, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Over a replicated overlay where publishers and tags repeat, each
        /// invalidation removes what the `retain` reference removes, from
        /// the same stores, leaves every survivor in its slot order, and
        /// charges the same `OpStats`.
        #[test]
        fn remove_objects_matches_the_retain_reference(
            seed in any::<u64>(),
            n in 1usize..40,
            spheres in prop::collection::vec(
                (0usize..4, 0u64..6, 0.0..1.0f64, 0.0..1.0f64, 0.0..0.3f64),
                0..60,
            ),
            removals in prop::collection::vec((0usize..5, 0u64..7, 0u64..4), 1..6),
        ) {
            let mut overlay = overlay_2d(n, seed);
            for (peer, tag, x, y, r) in spheres {
                let payload = ObjectRef { peer, tag, items: 1 };
                overlay.insert_sphere(NodeId(peer % n), vec![x, y], r, payload, true);
            }
            let mut reference = overlay.clone();
            for (peer, lo, width) in removals {
                let got = overlay.remove_objects(peer, lo..lo + width);
                let want = remove_objects_by_retain(&mut reference, peer, lo..lo + width);
                prop_assert_eq!(got, want);
                for (a, b) in overlay.nodes().zip(reference.nodes()) {
                    prop_assert_eq!(&a.store, &b.store);
                }
            }
            overlay.check_invariants();
        }
    }

    #[test]
    fn zero_radius_query_checks_only_owner_zone() {
        let mut overlay = overlay_2d(32, 8);
        overlay.insert_point(NodeId(0), vec![0.2, 0.2], payload(1));
        let res = overlay.range_query(NodeId(3), &[0.2, 0.2], 0.0);
        assert_eq!(res.matches.len(), 1);
        assert_eq!(res.nodes_visited, 1);
    }

    #[test]
    fn insert_costs_are_recorded() {
        let mut overlay = overlay_2d(64, 9);
        let out = overlay.insert_sphere(NodeId(5), vec![0.9, 0.1], 0.05, payload(1), true);
        // At least the routing hops must carry object-sized messages.
        assert!(out.stats.bytes >= out.stats.messages * 16);
        assert_eq!(out.stats.hops, out.stats.messages);
    }

    #[test]
    fn objects_survive_topology_changes() {
        // Insert first, then let new nodes join: replicas must follow the
        // splits so queries stay complete.
        let mut overlay = overlay_2d(8, 10);
        overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.2, payload(1), true);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..24 {
            let point = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            overlay.join(NodeId(rng.gen_range(0..overlay.len())), &point);
        }
        overlay.check_invariants();
        let res = overlay.range_query(NodeId(1), &[0.5, 0.5], 0.1);
        assert_eq!(res.matches.len(), 1);
        // Every zone overlapping the sphere still has its replica.
        for node in overlay.nodes() {
            if node.zone.intersects_sphere(&[0.5, 0.5], 0.2) {
                assert!(
                    node.store.iter().any(|o| o.id == 0),
                    "replica missing at {} after splits",
                    node.id
                );
            }
        }
    }
}
