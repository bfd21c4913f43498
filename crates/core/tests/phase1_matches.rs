//! Phase 1 at the cost of its matches: each substrate's range flood hands
//! every match to a visitor by reference, and Eq. 1 folds it there. These
//! tests pin the two halves of that contract — the visitor sees exactly
//! what `range_query` collects, and the streaming fold is the map-based
//! Eq. 1 it replaced, bit for bit — plus the one-pass-per-level refresh.

use hyperm_can::{CanConfig, CanOverlay, ObjectRef, StoredObject};
use hyperm_cluster::Dataset;
use hyperm_core::score::{level_scores, LevelScorer};
use hyperm_core::{HypermConfig, HypermNetwork, Overlay, OverlayBackend, SphereRef};
use hyperm_geometry::vecmath::dist;
use hyperm_geometry::IntersectionFraction;
use hyperm_sim::{FaultConfig, NodeId, OpStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

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
        seen.push((obj.clone(), b));
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
                seen.push((obj.clone(), d));
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
            fold.add(obj, dist(&obj.centre, &q));
        }
        assert_eq!(bits(&fold.finish()), want, "case {case}");
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

/// Every level's CAN stores, node by node, in store order.
fn stores(net: &HypermNetwork) -> Vec<Vec<Vec<StoredObject>>> {
    (0..net.levels())
        .map(|l| {
            let can = net.overlay(l).as_can().expect("CAN substrate");
            can.nodes().map(|node| node.store.clone()).collect()
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
