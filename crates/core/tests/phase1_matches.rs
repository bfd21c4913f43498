//! Phase 1 at the cost of its bytes: each substrate's range flood hands
//! every match to a visitor as a borrowed view, CAN finds them with one
//! column scan per visited node, and Eq. 1 folds them into dense per-peer
//! scores that stay dense up to the ranking. These tests pin that
//! contract — the visitor sees exactly what `range_query` collects, the
//! column scan is the per-object loop it replaced, the streaming fold is
//! the map-based Eq. 1 and the dense ranking the map-based `aggregate`,
//! bit for bit — plus the one-pass-per-level refresh.

use hyperm_can::ops::SeenIds;
use hyperm_can::{
    CanConfig, CanOverlay, ObjectRef, ObjectStore, ObjectView, RouteOutcome, StoredObject,
};
use hyperm_cluster::Dataset;
use hyperm_core::score::{aggregate, level_scores, rank, LevelScorer, LevelScores, PeerScore};
use hyperm_core::{HypermConfig, HypermNetwork, Overlay, OverlayBackend, ScorePolicy, SphereRef};
use hyperm_geometry::vecmath::dist;
use hyperm_geometry::IntersectionFraction;
use hyperm_sim::{FaultConfig, NodeId, OpStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `spheres` random spheres in `[0,1)^dim`, published from random nodes.
fn fill(overlay: &mut Overlay, rng: &mut StdRng, spheres: usize) {
    let dim = overlay.dim();
    for i in 0..spheres {
        let centre: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
        let radius = if i % 7 == 0 {
            0.0
        } else {
            rng.gen::<f64>() * 0.2
        };
        let payload = ObjectRef {
            peer: rng.gen_range(0..12),
            tag: i as u64,
            items: rng.gen_range(0..50),
        };
        let from = NodeId(rng.gen_range(0..overlay.len()));
        overlay.insert_sphere(from, centre, radius, payload, true);
    }
}

/// One flood seen both ways must agree: the visitor gets `range_query`'s
/// matches in order, each with `b` bit-equal to `dist`, and the two report
/// the same nodes and costs.
fn check_flood(
    centre: &[f64],
    collected: (Vec<StoredObject>, usize, OpStats),
    visited: (Vec<(StoredObject, f64)>, usize, OpStats),
) {
    let (matches, nodes, stats) = collected;
    let (seen, seen_nodes, seen_stats) = visited;
    assert_eq!(seen.len(), matches.len(), "match count");
    for ((obj, b), want) in seen.iter().zip(&matches) {
        assert_eq!(obj, want, "match order");
        assert_eq!(
            b.to_bits(),
            dist(&obj.centre, centre).to_bits(),
            "b is dist"
        );
    }
    assert_eq!(seen_nodes, nodes, "nodes visited");
    assert_eq!(seen_stats, stats, "flood cost");
}

/// `range_visit` on `overlay` with a collecting visitor.
fn visit_all(
    overlay: &Overlay,
    from: NodeId,
    centre: &[f64],
    radius: f64,
) -> (Vec<(StoredObject, f64)>, usize, OpStats) {
    let mut seen = Vec::new();
    let (nodes, stats) = overlay.range_visit(from, centre, radius, |obj, b| {
        seen.push((obj.to_stored(), b));
    });
    (seen, nodes, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CAN, BATON and VBI: the visitor and the collector see one flood.
    #[test]
    fn visitor_sees_range_query_matches(
        backend in 0usize..3,
        dim in 1usize..5,
        n in 2usize..40,
        spheres in 0usize..120,
        seed in any::<u64>(),
    ) {
        let backend = [OverlayBackend::Can, OverlayBackend::Baton, OverlayBackend::Vbi][backend];
        let mut overlay = Overlay::bootstrap(backend, dim, seed, n);
        let mut rng = StdRng::seed_from_u64(seed);
        fill(&mut overlay, &mut rng, spheres);
        for _ in 0..8 {
            let centre: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            let radius = if rng.gen_bool(0.2) { 0.0 } else { rng.gen::<f64>() * 0.3 };
            let from = NodeId(rng.gen_range(0..n));
            let out = overlay.range_query(from, &centre, radius);
            check_flood(
                &centre,
                (out.matches, out.nodes_visited, out.stats),
                visit_all(&overlay, from, &centre, radius),
            );
        }
    }

    /// CAN under a fault plan and a partition: two clones with the same
    /// plan, one queried through `range_query` and one through
    /// `range_visit`, draw the injector in lockstep and agree on every
    /// flood, including the lost edges and dead-ended routes.
    #[test]
    fn visitor_matches_under_faults_and_partition(
        dim in 1usize..4,
        n in 4usize..40,
        spheres in 1usize..80,
        seed in any::<u64>(),
    ) {
        let mut base = CanOverlay::bootstrap(CanConfig::new(dim).with_seed(seed), n);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..spheres {
            let centre: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            let payload = ObjectRef { peer: i % 9, tag: i as u64, items: 3 };
            base.insert_sphere(NodeId(i % n), centre, rng.gen::<f64>() * 0.2, payload, true);
        }
        let plan = FaultConfig {
            drop_prob: 0.3,
            delay_prob: 0.2,
            dead_prob: 0.05,
            max_retries: 2,
            ..FaultConfig::default()
        }
        .with_seed(seed ^ 0x5eed);
        let map: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let (mut a, mut b) = (base.clone(), base);
        for o in [&mut a, &mut b] {
            o.set_faults(Some(plan));
            o.set_partition(Some(map.clone()));
        }
        for _ in 0..8 {
            let centre: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            let radius = rng.gen::<f64>() * 0.4;
            let from = NodeId(rng.gen_range(0..n));
            let out = a.range_query(from, &centre, radius);
            let mut seen = Vec::new();
            let (nodes, stats) = b.range_visit(from, &centre, radius, |obj, d| {
                seen.push((obj.to_stored(), d));
            });
            check_flood(
                &centre,
                (out.matches, out.nodes_visited, out.stats),
                (seen, nodes, stats),
            );
        }
        prop_assert_eq!(a.fault_report(), b.fault_report());
    }
}

/// Eq. 1 as it stood before the streaming fold, kept verbatim as the
/// oracle: one `BTreeMap` entry per positive term, in match order.
fn level_scores_reference(
    matches: &[StoredObject],
    q_key: &[f64],
    eps_key: f64,
    dim: u32,
) -> BTreeMap<usize, f64> {
    let mut scores: BTreeMap<usize, f64> = BTreeMap::new();
    let lens = IntersectionFraction::new(dim);
    for obj in matches {
        let b = dist(&obj.centre, q_key);
        // A zero-radius query degenerates to containment: the volume
        // fraction is 0 but a cluster holding the point is fully relevant.
        let frac = if eps_key == 0.0 {
            if b <= obj.radius + 1e-12 {
                1.0
            } else {
                0.0
            }
        } else {
            lens.eval(obj.radius.max(0.0), eps_key, b)
        };
        if frac > 0.0 {
            *scores.entry(obj.payload.peer).or_insert(0.0) += frac * obj.payload.items as f64;
        }
    }
    scores
}

fn bits(m: &BTreeMap<usize, f64>) -> Vec<(usize, u64)> {
    m.iter().map(|(&p, s)| (p, s.to_bits())).collect()
}

/// The fold, through `level_scores` and fed by hand, against the oracle:
/// zero query radii, zero and negative sphere radii, spheres far outside
/// the ball (zero fractions), zero item counts, and peer ids repeated
/// many times or scattered up to 10⁴.
#[test]
fn eq1_fold_is_the_map_fold_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xE01);
    for case in 0..400 {
        let dim = rng.gen_range(1..=8u32);
        let q: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
        let eps = match case % 4 {
            0 => 0.0,
            1 => rng.gen::<f64>() * 0.05,
            _ => rng.gen::<f64>() * 0.8,
        };
        let sparse = case % 3 == 0;
        let matches: Vec<StoredObject> = (0..rng.gen_range(0..300))
            .map(|i| {
                let centre: Vec<f64> = if i % 5 == 0 {
                    q.clone()
                } else {
                    q.iter()
                        .map(|x| x + (rng.gen::<f64>() - 0.5) * 1.5)
                        .collect()
                };
                let radius = match i % 6 {
                    0 => 0.0,
                    1 => -0.01,
                    _ => rng.gen::<f64>() * 0.4,
                };
                let peer = if sparse {
                    rng.gen_range(0..=10_000)
                } else {
                    rng.gen_range(0..6)
                };
                StoredObject {
                    id: i,
                    centre,
                    radius,
                    payload: ObjectRef {
                        peer,
                        tag: 0,
                        items: if i % 9 == 0 { 0 } else { rng.gen_range(1..500) },
                    },
                }
            })
            .collect();
        let want = bits(&level_scores_reference(&matches, &q, eps, dim));
        assert_eq!(
            bits(&level_scores(&matches, &q, eps, dim)),
            want,
            "case {case}"
        );
        let mut fold = LevelScorer::new(eps, dim);
        for obj in &matches {
            fold.add(obj.view(), dist(&obj.centre, &q));
        }
        assert_eq!(bits(&fold.finish().to_map()), want, "case {case}");
    }
}

fn can_network(seed: u64) -> HypermNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let peers: Vec<Dataset> = (0..8)
        .map(|_| {
            let centre: f64 = rng.gen::<f64>() * 0.5;
            let mut ds = Dataset::new(16);
            let mut row = [0.0f64; 16];
            for _ in 0..30 {
                for x in row.iter_mut() {
                    *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect();
    let cfg = HypermConfig::new(16)
        .with_levels(4)
        .with_clusters_per_peer(5)
        .with_seed(seed);
    HypermNetwork::build(peers, cfg).unwrap().0
}

/// Owned copies of a CAN store's objects, in slot order.
fn objects(store: &ObjectStore) -> Vec<StoredObject> {
    store.iter().map(ObjectView::to_stored).collect()
}

/// Every level's CAN stores, node by node, in store order.
fn stores(net: &HypermNetwork) -> Vec<Vec<Vec<StoredObject>>> {
    (0..net.levels())
        .map(|l| {
            let can = net.overlay(l).as_can().expect("CAN substrate");
            can.nodes().map(|node| objects(&node.store)).collect()
        })
        .collect()
}

/// A refresh invalidates each level in one pass and then inserts: the
/// stores (object by object, in order), the costs and the delivery count
/// are those of one `publish_sphere` per cluster — with no faults, and
/// under a fault plan whose draws must stay in lockstep.
#[test]
fn refresh_is_one_publish_sphere_per_cluster() {
    for faults in [false, true] {
        let mut refreshed = can_network(3);
        let mut by_hand = refreshed.clone();
        if faults {
            let plan = FaultConfig {
                drop_prob: 0.25,
                max_retries: 1,
                ..FaultConfig::default()
            }
            .with_seed(17);
            refreshed.set_fault_plan(Some(plan));
            by_hand.set_fault_plan(Some(plan));
        }
        for peer in [0, 5, 2] {
            let report = refreshed.refresh_peer_summaries_report(peer);
            let (mut stats, mut delivered) = (OpStats::zero(), 0);
            for level in 0..by_hand.levels() {
                for cluster in 0..by_hand.peer(peer).summaries[level].len() {
                    let (ok, cost) = by_hand.publish_sphere(SphereRef {
                        peer,
                        level,
                        cluster,
                    });
                    stats += cost;
                    delivered += u64::from(ok);
                }
            }
            assert_eq!(report.stats, stats, "faults {faults}, peer {peer}");
            assert_eq!(report.delivered, delivered, "faults {faults}, peer {peer}");
            assert!(stores(&refreshed) == stores(&by_hand), "faults {faults}");
        }
        assert_eq!(refreshed.fault_report(), by_hand.fault_report());
    }
}

/// The CAN range flood as it stood before the column store: the BFS over
/// the zones overlapping the ball, with its per-object loop verbatim, run
/// over owned `StoredObject` copies of each store. No fault plan or
/// partition is installed, so every flood edge is delivered on its first
/// attempt. Returns the `(id, b bits)` sequence, nodes visited and cost.
fn reference_flood(
    can: &CanOverlay,
    from: NodeId,
    centre: &[f64],
    radius: f64,
) -> (Vec<(u64, u64)>, usize, OpStats) {
    let qb = 8 * (can.dim() as u64 + 1) + 16;
    let res = can.route_result(from, centre, qb);
    if res.outcome != RouteOutcome::Delivered {
        return (Vec::new(), 0, res.stats);
    }
    let (owner, mut stats) = (res.node, res.stats);
    let in_flood = |n: NodeId| {
        let node = can.node(n);
        node.alive && node.intersects_sphere(centre, radius)
    };
    let mut visited = BTreeSet::from([owner]);
    let mut queue = VecDeque::from([owner]);
    let mut seen = SeenIds::default();
    let mut out = Vec::new();
    let (mut nodes_visited, mut resp_bytes) = (0u64, 0u64);
    while let Some(n) = queue.pop_front() {
        nodes_visited += 1;
        let node = can.node(n);
        let store = objects(&node.store);
        let mut local_bytes = 0u64;
        for obj in &store {
            let b = dist(&obj.centre, centre);
            if b <= obj.radius + radius + 1e-12 && seen.insert(obj.id) {
                local_bytes += obj.wire_bytes();
                out.push((obj.id, b.to_bits()));
            }
        }
        resp_bytes += local_bytes.max(16);
        for &nb in &node.neighbours {
            if in_flood(nb) && visited.insert(nb) {
                stats.messages += 1;
                stats.bytes += qb;
                stats.hops += 1;
                queue.push_back(nb);
            }
        }
    }
    stats += OpStats {
        hops: nodes_visited,
        messages: nodes_visited,
        bytes: resp_bytes,
        ..OpStats::zero()
    };
    (out, nodes_visited as usize, stats)
}

/// The CAN point lookup as it stood before the column store, its filter
/// verbatim, over an owned copy of the owner's store.
fn reference_point(can: &CanOverlay, from: NodeId, point: &[f64]) -> (Vec<StoredObject>, OpStats) {
    let res = can.route_result(from, point, 8 * (can.dim() as u64 + 1) + 16);
    if res.outcome != RouteOutcome::Delivered {
        return (Vec::new(), res.stats);
    }
    let (owner, mut stats) = (res.node, res.stats);
    let matches: Vec<StoredObject> = objects(&can.node(owner).store)
        .into_iter()
        .filter(|o| dist(&o.centre, point) <= o.radius + 1e-12)
        .collect();
    let resp_bytes: u64 = matches
        .iter()
        .map(StoredObject::wire_bytes)
        .sum::<u64>()
        .max(16);
    stats += OpStats::one_hop(resp_bytes);
    (matches, stats)
}

/// Query radii that put some stored sphere exactly on the match boundary
/// for `centre`: `b − r − 1e-12` and one ulp on either side of it.
fn boundary_radii(can: &CanOverlay, centre: &[f64], rng: &mut StdRng) -> Vec<f64> {
    let spheres: Vec<StoredObject> = can.nodes().flat_map(|n| objects(&n.store)).collect();
    let mut radii = Vec::new();
    for _ in 0..3 {
        if spheres.is_empty() {
            break;
        }
        let s = &spheres[rng.gen_range(0..spheres.len())];
        let t = dist(&s.centre, centre) - s.radius - 1e-12;
        if t > 0.0 {
            radii.extend([
                f64::from_bits(t.to_bits() - 1),
                t,
                f64::from_bits(t.to_bits() + 1),
            ]);
        }
    }
    radii
}

/// `range_visit` and `point_lookup` against the reference flood and
/// lookup on every alive entry node's view of a handful of balls: radius
/// 0, random radii, boundary radii, and points on stored centres.
fn check_against_reference(can: &CanOverlay, rng: &mut StdRng, what: &str) {
    can.check_invariants();
    let dim = can.dim();
    let alive = can.alive_ids();
    let stored: Vec<StoredObject> = can.nodes().flat_map(|n| objects(&n.store)).collect();
    for i in 0..12 {
        let centre: Vec<f64> = if i % 3 == 0 && !stored.is_empty() {
            stored[rng.gen_range(0..stored.len())].centre.clone()
        } else {
            (0..dim).map(|_| rng.gen()).collect()
        };
        let mut radii = vec![0.0, rng.gen::<f64>() * 0.05, rng.gen::<f64>() * 0.3];
        radii.extend(boundary_radii(can, &centre, rng));
        let from = alive[rng.gen_range(0..alive.len())];
        for radius in radii {
            let mut got = Vec::new();
            let (nodes, stats) = can.range_visit(from, &centre, radius, |obj, b| {
                got.push((obj.id, b.to_bits()));
            });
            let want = reference_flood(can, from, &centre, radius);
            assert_eq!(
                (got, nodes, stats),
                want,
                "{what}: dim {dim}, ball {centre:?} r {radius:e}"
            );
        }
        assert_eq!(
            can.point_lookup(from, &centre),
            reference_point(can, from, &centre),
            "{what}: dim {dim}, point {centre:?}"
        );
    }
}

/// The column scan behind `range_visit` and `point_lookup` is the
/// per-object loop it replaced — same matches in the same order, same
/// `b` bits, nodes and costs — at widths 1, 2, 3, 4 and 8, on stores
/// shaped by every store mutator: joins (splits move objects), a graceful
/// leave (handoff), a crash plus repair, `remove_objects` and a republish.
#[test]
fn column_scan_is_the_per_object_flood() {
    for dim in [1usize, 2, 3, 4, 8] {
        let mut rng = StdRng::seed_from_u64(0xC0 + dim as u64);
        let mut can = CanOverlay::bootstrap(CanConfig::new(dim).with_seed(dim as u64), 12);
        let publish = |can: &mut CanOverlay, rng: &mut StdRng, peer: usize, tags: u64| {
            for tag in 0..tags {
                let centre: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
                let radius = if tag % 5 == 0 {
                    0.0
                } else {
                    rng.gen::<f64>() * 0.25
                };
                let payload = ObjectRef {
                    peer,
                    tag,
                    items: rng.gen_range(1..40),
                };
                let from = can.alive_ids()[rng.gen_range(0..can.alive_count())];
                can.insert_sphere(from, centre, radius, payload, true);
            }
        };
        for peer in 0..6 {
            publish(&mut can, &mut rng, peer, 15);
        }
        check_against_reference(&can, &mut rng, "published");
        for _ in 0..10 {
            let point: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            let entry = can.alive_ids()[rng.gen_range(0..can.alive_count())];
            can.join(entry, &point);
        }
        check_against_reference(&can, &mut rng, "after joins");
        can.leave(NodeId(3));
        check_against_reference(&can, &mut rng, "after a leave");
        can.fail(NodeId(7));
        can.repair_to_quiescence(64);
        check_against_reference(&can, &mut rng, "after a crash and repair");
        can.remove_objects(2, 0..15);
        check_against_reference(&can, &mut rng, "after remove_objects");
        publish(&mut can, &mut rng, 2, 15);
        check_against_reference(&can, &mut rng, "after a republish");
    }
}

/// Eq. 1's cross-level fold as it stood before the dense levels, kept
/// verbatim as the oracle.
fn aggregate_reference(levels: &[BTreeMap<usize, f64>], policy: ScorePolicy) -> Vec<PeerScore> {
    if levels.is_empty() {
        return Vec::new();
    }
    // Union of peers seen at any level.
    let mut all_peers: Vec<usize> = levels.iter().flat_map(|m| m.keys().copied()).collect();
    all_peers.sort_unstable();
    all_peers.dedup();

    let mut out = Vec::with_capacity(all_peers.len());
    for peer in all_peers {
        let per_level: Vec<f64> = levels
            .iter()
            .map(|m| m.get(&peer).copied().unwrap_or(0.0))
            .collect();
        let score = match policy {
            ScorePolicy::Min => per_level.iter().copied().fold(f64::INFINITY, f64::min),
            ScorePolicy::Avg => per_level.iter().sum::<f64>() / per_level.len() as f64,
            ScorePolicy::Max => per_level.iter().copied().fold(0.0, f64::max),
        };
        if score > 0.0 && score.is_finite() {
            out.push(PeerScore { peer, score });
        }
    }
    // Highest score first; ties by peer id for determinism.
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.peer.cmp(&b.peer))
    });
    out
}

fn ranked_bits(ranked: &[PeerScore]) -> Vec<(usize, u64)> {
    ranked.iter().map(|p| (p.peer, p.score.to_bits())).collect()
}

/// The dense ranking, through `aggregate` and through `rank`, against the
/// map fold for every policy: peers missing at some levels, zero sums,
/// tied scores, levels whose highest peer id differs (dense vectors of
/// unequal length), one level and none.
#[test]
fn dense_ranking_is_the_map_fold_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xA66);
    for case in 0..300 {
        let levels: Vec<BTreeMap<usize, f64>> = (0..case % 6)
            .map(|_| {
                let top = rng.gen_range(0..40);
                (0..top)
                    .filter_map(|peer| {
                        let score = match rng.gen_range(0..10) {
                            0..=3 => return None,
                            4 => 0.0,
                            5 => 2.5,
                            _ => rng.gen::<f64>() * 100.0,
                        };
                        Some((peer, score))
                    })
                    .collect()
            })
            .collect();
        let dense: Vec<LevelScores> = levels.iter().map(LevelScores::from_map).collect();
        for policy in [ScorePolicy::Min, ScorePolicy::Avg, ScorePolicy::Max] {
            let want = ranked_bits(&aggregate_reference(&levels, policy));
            assert_eq!(
                ranked_bits(&aggregate(&levels, policy)),
                want,
                "case {case}"
            );
            assert_eq!(ranked_bits(&rank(&dense, policy)), want, "case {case}");
        }
        for (map, level) in levels.iter().zip(&dense) {
            assert_eq!(&level.to_map(), map, "case {case}");
        }
    }
}
