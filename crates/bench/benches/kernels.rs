//! Criterion micro-benchmarks for Hyper-M's hot kernels.
//!
//! These complement the figure binaries (which measure simulated message
//! counts): here we measure the *wall-clock* cost of the algorithmic
//! pieces a real device would execute — DWT decomposition, per-level
//! k-means, sphere-intersection scoring, the Eq. 8 radius solver, CAN
//! routing and the end-to-end build/query paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperm_baton::{BatonConfig, BatonOverlay};
use hyperm_can::{CanConfig, CanOverlay, ObjectRef};
use hyperm_cluster::kmeans::kmeans;
use hyperm_cluster::{spheres_from_clustering, Dataset, KMeansConfig};
use hyperm_core::{HypermConfig, HypermNetwork, InsertPolicy, KnnOptions};
use hyperm_datagen::{generate_markov, MarkovConfig};
use hyperm_geometry::{
    cap_fraction, cap_fraction_beta, intersection_fraction, solve_epsilon_for_k, ClusterView,
};
use hyperm_sim::NodeId;
use hyperm_wavelet::{decompose, haar_pyramid, Normalization, Subspace};
use std::hint::black_box;

fn bench_dwt(c: &mut Criterion) {
    let mut group = c.benchmark_group("dwt_decompose");
    for dim in [64usize, 512] {
        let v: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &v, |b, v| {
            b.iter(|| decompose(black_box(v), Normalization::PaperAverage).unwrap())
        });
    }
    // What `Peer::summarize` runs per item: the four published subspaces
    // only, in a reused scratch buffer.
    let v: Vec<f64> = (0..512).map(|i| (i as f64 * 0.37).sin()).collect();
    let published = Subspace::first(4);
    let mut scratch = Vec::new();
    group.bench_function("published_512", |b| {
        b.iter(|| {
            let coeffs = haar_pyramid(
                black_box(&v),
                Normalization::PaperAverage,
                &published,
                &mut scratch,
            );
            black_box(coeffs.unwrap()[0])
        })
    });
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_peer_level");
    group.sample_size(20);
    // A peer's level view: 1000 items in low-dimensional subspaces.
    for dim in [1usize, 2, 4] {
        let data = generate_markov(&MarkovConfig {
            count: 1000,
            dim: 64,
            max_step_cap: 0.05,
            seed: 1,
        });
        let mut view = Dataset::new(dim);
        for row in data.rows() {
            view.push_row(&row[..dim]);
        }
        group.bench_with_input(BenchmarkId::from_parameter(dim), &view, |b, view| {
            b.iter(|| kmeans(black_box(view), &KMeansConfig::new(10).with_seed(2)))
        });
    }
    group.finish();
}

/// What publishing one level costs on top of `kmeans_peer_level`: the same
/// views through k-means, then each cluster's enclosing ball.
fn bench_spheres(c: &mut Criterion) {
    let mut group = c.benchmark_group("spheres_peer_level");
    group.sample_size(20);
    let data = generate_markov(&MarkovConfig {
        count: 1000,
        dim: 64,
        max_step_cap: 0.05,
        seed: 1,
    });
    for dim in [1usize, 2, 4] {
        let mut view = Dataset::new(dim);
        for row in data.rows() {
            view.push_row(&row[..dim]);
        }
        group.bench_with_input(BenchmarkId::from_parameter(dim), &view, |b, view| {
            b.iter(|| {
                let result = kmeans(black_box(view), &KMeansConfig::new(10).with_seed(2));
                spheres_from_clustering(view, &result)
            })
        });
    }
    group.finish();
}

/// One peer's whole summarisation at the harness's shape (1000 × 512-d
/// Markov rows, the paper's four levels and ten clusters per peer): the
/// published-subspace pyramid per item, then k-means and spheres per level.
fn bench_summarize(c: &mut Criterion) {
    use hyperm_core::Peer;
    let data = generate_markov(&MarkovConfig {
        count: 1000,
        dim: 512,
        seed: 9,
        ..MarkovConfig::default()
    });
    let cfg = HypermConfig::new(512).with_seed(9);
    c.bench_function("summarize_peer_1000x512", |b| {
        b.iter_batched(
            || data.clone(),
            |items| Peer::summarize(0, items, &cfg),
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_geometry(c: &mut Criterion) {
    // The cap kernel on the overlay key dimensions (odd polynomial, Eq. 5
    // twice), beside the incomplete beta it replaced.
    let mut group = c.benchmark_group("cap_fraction");
    for d in [1u32, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            b.iter(|| cap_fraction(black_box(d), black_box(1.1)))
        });
    }
    group.bench_function("beta_4", |b| {
        b.iter(|| cap_fraction_beta(black_box(4), black_box(1.1)))
    });
    group.finish();
    c.bench_function("intersection_fraction_d4", |b| {
        b.iter(|| {
            intersection_fraction(
                black_box(4),
                black_box(0.3),
                black_box(0.25),
                black_box(0.4),
            )
        })
    });
    let clusters: Vec<ClusterView> = (0..50)
        .map(|i| ClusterView {
            centre_dist: 0.1 + i as f64 * 0.02,
            radius: 0.05 + (i % 7) as f64 * 0.01,
            items: 20.0,
        })
        .collect();
    c.bench_function("solve_epsilon_for_k", |b| {
        b.iter(|| solve_epsilon_for_k(black_box(4), black_box(&clusters), black_box(100.0), 1e-6))
    });
    // A level-3 view at paper scale: ≈ 800 of the level's 1000 spheres
    // (100 peers × 10 clusters, 100 items each) in 4-d key space, k = 10.
    let level3: Vec<ClusterView> = (0..800)
        .map(|i| ClusterView {
            centre_dist: 0.01 + i as f64 * 0.001,
            radius: 0.02 + (i % 11) as f64 * 0.005,
            items: 100.0,
        })
        .collect();
    c.bench_function("solve_epsilon_for_k_800_d4", |b| {
        b.iter(|| solve_epsilon_for_k(black_box(4), black_box(&level3), black_box(10.0), 1e-6))
    });
    // Shaped like a captured D_2 level of the paper-scale k-nn workload:
    // ≈ 780 spheres of 100 items, k = 10, and at the solved radius about
    // half the spheres hold the query ball, 44 % are disjoint from it and
    // 8 % are lenses.
    let inside: Vec<ClusterView> = (0..780)
        .map(|i| {
            let (centre_dist, radius) = match i % 25 {
                0..=11 => (0.05 + (i % 11) as f64 * 0.02, 0.6 + (i % 7) as f64 * 0.05),
                12..=22 => (1.0 + (i % 13) as f64 * 0.05, 0.05 + (i % 5) as f64 * 0.01),
                _ => (0.3 + (i % 3) as f64 * 0.02, 0.3),
            };
            ClusterView {
                centre_dist,
                radius,
                items: 100.0,
            }
        })
        .collect();
    c.bench_function("solve_epsilon_for_k_780_d4_inside", |b| {
        b.iter(|| solve_epsilon_for_k(black_box(4), black_box(&inside), black_box(10.0), 1e-6))
    });
}

fn bench_can(c: &mut Criterion) {
    let overlay = CanOverlay::bootstrap(CanConfig::new(2).with_seed(3), 100);
    c.bench_function("can_route_100n_2d", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B97F4A7C15);
            let x = (i >> 11) as f64 / (1u64 << 53) as f64;
            let y = ((i.wrapping_mul(31)) >> 11) as f64 / (1u64 << 53) as f64;
            overlay.route(NodeId((i % 100) as usize), black_box(&[x, y]), 64)
        })
    });
    c.bench_function("can_insert_sphere_100n_2d", |b| {
        b.iter_batched(
            || overlay.clone(),
            |mut ov| {
                ov.insert_sphere(
                    NodeId(0),
                    vec![0.4, 0.6],
                    0.05,
                    ObjectRef {
                        peer: 0,
                        tag: 0,
                        items: 10,
                    },
                    true,
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// Phase 1 of one level at the harness's shape: a 100-node 4-d CAN holding
/// 1000 replicated spheres (100 peers × 10 clusters), flooded by a query
/// ball that matches 316 of them — collected by `range_query` (one clone
/// per match), and visited as borrowed views; then Eq. 1 on those
/// matches, and the cross-level fold of four such levels over 100 peers —
/// from score maps (`aggregate`) and from the dense levels phase 1 keeps
/// (`rank`).
fn bench_flood(c: &mut Criterion) {
    use hyperm_core::score::{aggregate, level_scores, rank, LevelScores};
    use hyperm_core::ScorePolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    let mut overlay = CanOverlay::bootstrap(CanConfig::new(4).with_seed(5), 100);
    let mut rng = StdRng::seed_from_u64(5);
    for i in 0..1000 {
        let centre: Vec<f64> = (0..4).map(|_| rng.gen()).collect();
        let payload = ObjectRef {
            peer: i / 10,
            tag: (i % 10) as u64,
            items: 100,
        };
        let radius = 0.05 + rng.gen::<f64>() * 0.1;
        overlay.insert_sphere(NodeId(i / 10), centre, radius, payload, true);
    }
    let (q, eps) = ([0.5; 4], 0.4);
    let matches = overlay.range_query(NodeId(7), &q, eps).matches;
    let mut group = c.benchmark_group("can_range_flood_100n_4d_1000");
    group.bench_function("range_query", |b| {
        b.iter(|| overlay.range_query(NodeId(7), black_box(&q), eps))
    });
    group.bench_function("range_visit", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            let out = overlay.range_visit(NodeId(7), black_box(&q), eps, |_, d| sum += d);
            (out, black_box(sum))
        })
    });
    group.finish();
    assert_eq!(matches.len(), 316, "the flood this row is named for");
    c.bench_function("level_scores_316_d4", |b| {
        b.iter(|| level_scores(black_box(&matches), &q, eps, 4))
    });
    // Each level scores a random ≈ 80 % of the 100 peers.
    let maps: Vec<BTreeMap<usize, f64>> = (0..4)
        .map(|_| {
            let mut level = BTreeMap::new();
            for peer in 0..100 {
                if rng.gen_bool(0.8) {
                    level.insert(peer, rng.gen::<f64>() * 50.0);
                }
            }
            level
        })
        .collect();
    let dense: Vec<LevelScores> = maps.iter().map(LevelScores::from_map).collect();
    let mut group = c.benchmark_group("aggregate_4_levels_100_peers");
    group.bench_function("aggregate", |b| {
        b.iter(|| aggregate(black_box(&maps), ScorePolicy::Min))
    });
    group.bench_function("rank", |b| {
        b.iter(|| rank(black_box(&dense), ScorePolicy::Min))
    });
    group.finish();
}

/// The write path's two kernels at the harness's shape. One invalidation:
/// `remove_objects` of one publisher's 10 spheres from a 100-node 4-d CAN
/// holding 1000 replicated spheres (100 publishers × 10 clusters). And one
/// soft-state refresh: a peer of a 100-peer network withdraws and
/// republishes every sphere on every level.
fn bench_write_path(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    let mut overlay = CanOverlay::bootstrap(CanConfig::new(4).with_seed(5), 100);
    let mut rng = StdRng::seed_from_u64(5);
    for i in 0..1000 {
        let centre: Vec<f64> = (0..4).map(|_| rng.gen()).collect();
        let payload = ObjectRef {
            peer: i / 10,
            tag: (i % 10) as u64,
            items: 100,
        };
        let radius = 0.05 + rng.gen::<f64>() * 0.1;
        overlay.insert_sphere(NodeId(i / 10), centre, radius, payload, true);
    }
    // Each iteration invalidates on a fresh clone. The spent clone is
    // parked and dropped by the next setup, so freeing 100 stores stays
    // off the clock.
    let spent = RefCell::new(None);
    c.bench_function("can_remove_objects_100n_4d", |b| {
        b.iter_batched(
            || {
                drop(spent.take());
                overlay.clone()
            },
            |mut ov: CanOverlay| {
                let out = ov.remove_objects(42, 0..10);
                *spent.borrow_mut() = Some(ov);
                out
            },
            criterion::BatchSize::SmallInput,
        )
    });

    let data = generate_markov(&MarkovConfig {
        count: 5000,
        dim: 64,
        max_step_cap: 0.05,
        seed: 17,
    });
    let peers: Vec<Dataset> = (0..100)
        .map(|p| data.select(&(p * 50..(p + 1) * 50).collect::<Vec<_>>()))
        .collect();
    let cfg = HypermConfig::new(64).with_seed(19);
    let (mut net, _) = HypermNetwork::build(peers, cfg).unwrap();
    // A refresh leaves the stores as they were (new object ids aside), so
    // the same network serves every iteration.
    let mut peer = 0;
    c.bench_function("refresh_peer_summaries_100p", |b| {
        b.iter(|| {
            peer = (peer + 37) % 100;
            net.refresh_peer_summaries(peer)
        })
    });

    // One republished insert into a fresh clone of a network whose peers
    // hold 400 × 512-d rows each, as in the benchmark's `churn_mix`: the
    // first write after a clone, which is where a copied row matrix would
    // be regrown. Cloning and dropping the spent clone stay off the clock.
    let data = generate_markov(&MarkovConfig {
        count: 1600,
        dim: 512,
        seed: 23,
        ..MarkovConfig::default()
    });
    let peers: Vec<Dataset> = (0..4)
        .map(|p| data.select(&(p * 400..(p + 1) * 400).collect::<Vec<_>>()))
        .collect();
    let (built, _) = HypermNetwork::build(peers, HypermConfig::new(512).with_seed(23)).unwrap();
    let item: Vec<f64> = data.row(17).iter().map(|x| x + 0.01).collect();
    let spent = RefCell::new(None);
    c.bench_function("insert_item_after_clone", |b| {
        b.iter_batched(
            || {
                drop(spent.take());
                built.clone()
            },
            |mut net: HypermNetwork| {
                let out = net.insert_item(0, black_box(&item), InsertPolicy::Republish);
                *spent.borrow_mut() = Some(net);
                out
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_alternative_substrates(c: &mut Criterion) {
    let baton = BatonOverlay::bootstrap(BatonConfig::new(1), 100);
    c.bench_function("baton_route_100n_1d", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B97F4A7C15);
            let key = (i >> 11) as f64 / (1u64 << 53) as f64;
            baton.route_1d(hyperm_sim::NodeId((i % 100) as usize), black_box(key), 64)
        })
    });
    let vbi = hyperm_vbi::VbiOverlay::bootstrap(hyperm_vbi::VbiConfig::new(2), 100);
    c.bench_function("vbi_route_100n_2d", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B97F4A7C15);
            let x = (i >> 11) as f64 / (1u64 << 53) as f64;
            let y = ((i.wrapping_mul(31)) >> 11) as f64 / (1u64 << 53) as f64;
            vbi.route_point(
                hyperm_sim::NodeId((i % 100) as usize),
                black_box(&[x, y]),
                64,
            )
        })
    });
}

fn bench_local_index(c: &mut Criterion) {
    use hyperm_cluster::KdTree;
    let data = generate_markov(&MarkovConfig {
        count: 2000,
        dim: 64,
        max_step_cap: 0.05,
        seed: 9,
    });
    let tree = KdTree::build(&data);
    let q: Vec<f64> = data.row(17).to_vec();
    c.bench_function("local_knn_kdtree_2000x64", |b| {
        b.iter(|| tree.knn(&data, black_box(&q), 10))
    });
    c.bench_function("local_knn_linear_2000x64", |b| {
        b.iter(|| {
            let mut all: Vec<(usize, f64)> = data
                .rows()
                .enumerate()
                .map(|(i, row)| {
                    let d: f64 = row
                        .iter()
                        .zip(&q)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    (i, d)
                })
                .collect();
            all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            all.truncate(10);
            all
        })
    });
}

/// One peer's phase-2 range scan at the shape the harness measures
/// (1000 × 512-d Markov rows around stored row 17): the wavelet
/// filter-and-refine `Peer` runs at `range_wide`'s eps 0.5 and
/// `range_narrow`'s eps 0.05, against the kd-tree it replaced and a plain
/// linear scan at eps 0.5.
fn bench_local_range(c: &mut Criterion) {
    use hyperm_cluster::KdTree;
    use hyperm_core::Peer;
    use hyperm_geometry::vecmath::sq_dist;
    let data = generate_markov(&MarkovConfig {
        count: 1000,
        dim: 512,
        seed: 9,
        ..MarkovConfig::default()
    });
    let q: Vec<f64> = data.row(17).to_vec();
    let eps = 0.5;
    let peer = Peer::summarize(0, data.clone(), &HypermConfig::new(512).with_seed(9));
    let data = &data;
    let tree = KdTree::build(data);
    // The wide scan: the coarse index's window on `A` holds many rows,
    // refined in coefficient order, and few of them answer.
    c.bench_function("local_range_wide_1000x512", |b| {
        b.iter(|| peer.local_range(black_box(&q), eps))
    });
    // The narrow scan: the window holds a few rows, so the scan reads
    // little more than those.
    c.bench_function("local_range_narrow_1000x512", |b| {
        b.iter(|| peer.local_range(black_box(&q), 0.05))
    });
    c.bench_function("local_range_kdtree_1000x512", |b| {
        b.iter(|| tree.range(data, black_box(&q), eps))
    });
    c.bench_function("local_range_linear_1000x512", |b| {
        b.iter(|| {
            let rows = data.rows().enumerate();
            rows.filter(|(_, row)| sq_dist(row, black_box(&q)) <= eps * eps + 1e-12)
                .map(|(i, _)| i)
                .collect::<Vec<usize>>()
        })
    });
    // The phase-2 k-nn of a peer that ranks for its coarse coefficients but
    // is far in 512-d, as in the slowest `knn` queries: row 17 plus square
    // waves at the 64- and 32-sample scales, which the published subspaces
    // do not see. The published bound rules out few rows, so without the
    // refine guard the scan reads hundreds of them (≈ 5× slower).
    let shifted: Vec<f64> = peer
        .items
        .row(17)
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x + if (i / 32) % 2 == 0 { 0.2 } else { -0.2 }
                + if (i / 16) % 2 == 0 { 0.2 } else { -0.2 }
        })
        .collect();
    c.bench_function("local_knn_coarse_match_k1_1000x512", |b| {
        b.iter(|| peer.local_knn(black_box(&shifted), 1))
    });
    // The common phase-2 k-nn: the query is a stored row, so the scan
    // refines a handful of rows and the bound pass and the ordering of
    // the items are most of its time.
    c.bench_function("local_knn_near_k10_1000x512", |b| {
        b.iter(|| peer.local_knn(black_box(&q), 10))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("hyperm_end_to_end");
    group.sample_size(10);
    let data = generate_markov(&MarkovConfig {
        count: 2000,
        dim: 64,
        max_step_cap: 0.05,
        seed: 5,
    });
    let peers: Vec<Dataset> = (0..20)
        .map(|p| data.select(&(p * 100..(p + 1) * 100).collect::<Vec<_>>()))
        .collect();
    let cfg = HypermConfig::new(64)
        .with_levels(4)
        .with_clusters_per_peer(10)
        .with_seed(7);

    group.bench_function("build_20peers_x100items_64d", |b| {
        b.iter(|| HypermNetwork::build(black_box(peers.clone()), cfg.clone()).unwrap())
    });

    let (net, _) = HypermNetwork::build(peers.clone(), cfg).unwrap();
    let q = peers[3].row(0).to_vec();
    group.bench_function("range_query", |b| {
        b.iter(|| net.range_query(0, black_box(&q), 0.2, None))
    });
    group.bench_function("knn_query_k10", |b| {
        b.iter(|| net.knn_query(0, black_box(&q), 10, KnnOptions::default()))
    });
    group.finish();
}

fn bench_query_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_engine");
    group.sample_size(10);
    let data = generate_markov(&MarkovConfig {
        count: 2000,
        dim: 64,
        max_step_cap: 0.05,
        seed: 11,
    });
    let peers: Vec<Dataset> = (0..20)
        .map(|p| data.select(&(p * 100..(p + 1) * 100).collect::<Vec<_>>()))
        .collect();
    let cfg = HypermConfig::new(64)
        .with_levels(4)
        .with_clusters_per_peer(10)
        .with_seed(13);
    let (net, _) = HypermNetwork::build(peers.clone(), cfg).unwrap();
    let queries: Vec<Vec<f64>> = (0..32).map(|i| peers[i % 20].row(i).to_vec()).collect();

    group.bench_function("serial_32_range_queries", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(net.range_query(0, black_box(q), 0.2, None));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dwt,
    bench_kmeans,
    bench_spheres,
    bench_summarize,
    bench_geometry,
    bench_can,
    bench_flood,
    bench_write_path,
    bench_alternative_substrates,
    bench_local_index,
    bench_local_range,
    bench_end_to_end,
    bench_query_engine
);
criterion_main!(benches);
