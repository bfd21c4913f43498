//! Popular-summary cache correctness: staleness bounds, set-identity of
//! the cached path with the cold path under churn and repair, and the
//! mechanisms-off equivalence guarantee (a measurement-only balancer
//! changes no result bit and no telemetry byte).

use hyperm::datagen::{generate_aloi_like, AloiConfig};
use hyperm::load::{LoadBalancer, LoadConfig};
use hyperm::telemetry::Recorder;
use hyperm::{Dataset, HypermConfig, HypermNetwork, KnnOptions};

const DIM: usize = 32;
const LEVELS: usize = 3;

fn peers(seed: u64) -> Vec<Dataset> {
    let corpus = generate_aloi_like(&AloiConfig {
        classes: 12,
        views_per_class: 15,
        bins: DIM,
        view_jitter: 0.15,
        seed,
    });
    let per = corpus.data.len() / 14;
    (0..14)
        .map(|p| {
            let mut ds = Dataset::new(DIM);
            for i in p * per..(p + 1) * per {
                ds.push_row(corpus.data.row(i));
            }
            ds
        })
        .collect()
}

fn config(seed: u64) -> HypermConfig {
    HypermConfig::new(DIM)
        .with_levels(LEVELS)
        .with_clusters_per_peer(4)
        .with_seed(seed)
}

fn build(seed: u64) -> HypermNetwork {
    HypermNetwork::build(peers(seed), config(seed)).unwrap().0
}

fn sorted_items(net: &HypermNetwork, entry: usize, q: &[f64], eps: f64) -> Vec<(usize, usize)> {
    let mut items = net.range_query(entry, q, eps, None).items;
    items.sort_unstable();
    items
}

#[test]
fn repeat_queries_hit_and_replay_the_cold_result() {
    let mut net = build(3);
    let balancer = LoadBalancer::install(
        &mut net,
        LoadConfig::default().with_cache(true).with_cache_ttl(4),
    );
    let cache = balancer.cache().expect("cache enabled").clone();
    let q = peers(3)[2].row(1).to_vec();
    let cold = sorted_items(&net, 0, &q, 0.25);
    assert_eq!(cache.hits(), 0);
    assert!(cache.misses() > 0, "cold pass must populate the cache");
    let warm = sorted_items(&net, 0, &q, 0.25);
    assert_eq!(cache.hits() as usize, LEVELS, "one hit per level");
    assert_eq!(cold, warm, "cached path must replay the cold result");
    // A different entry peer is a different cache key: no false sharing.
    let other = sorted_items(&net, 5, &q, 0.25);
    assert_eq!(cold, other);
    assert_eq!(cache.hits() as usize, LEVELS);
}

#[test]
fn stale_summaries_are_dropped_within_one_ttl_round_of_a_refresh() {
    let mut net = build(5);
    let balancer = LoadBalancer::install(
        &mut net,
        LoadConfig::default().with_cache(true).with_cache_ttl(1),
    );
    let cache = balancer.cache().expect("cache enabled").clone();
    let q = peers(5)[1].row(0).to_vec();
    let before = sorted_items(&net, 0, &q, 0.25);
    assert!(!cache.is_empty(), "query must populate the cache");
    // A refresh round republishes summaries and advances the cache
    // round; with ttl = 1 every entry inserted before it is now stale.
    for p in 0..net.len() {
        net.refresh_peer_summaries(p);
    }
    let hits_before = cache.hits();
    let after = sorted_items(&net, 0, &q, 0.25);
    assert_eq!(
        cache.hits(),
        hits_before,
        "a refresh must invalidate within one TTL round — no stale hit"
    );
    assert_eq!(before, after, "refresh must not change the result set");
    // The re-computed scores are cached again and hit from then on.
    sorted_items(&net, 0, &q, 0.25);
    assert!(cache.hits() > hits_before);
}

#[test]
fn structural_churn_invalidates_instantly_via_the_epoch() {
    let mut net = build(7);
    let balancer = LoadBalancer::install(
        &mut net,
        LoadConfig::default().with_cache(true).with_cache_ttl(64),
    );
    let cache = balancer.cache().expect("cache enabled").clone();
    let q = peers(7)[4].row(2).to_vec();
    sorted_items(&net, 0, &q, 0.3);
    sorted_items(&net, 0, &q, 0.3);
    let hits_warm = cache.hits();
    assert!(hits_warm > 0, "warm pass must hit");
    // Kill a peer and repair: the overlay mutates, the epoch bumps, and
    // every cached summary is stale immediately — a generous TTL does
    // not keep zombie scores alive.
    net.crash_peer(2, true);
    let hits_before = cache.hits();
    let healed = sorted_items(&net, 0, &q, 0.3);
    assert_eq!(
        cache.hits(),
        hits_before,
        "post-churn lookup must miss, not replay pre-churn scores"
    );
    // The healed cached path agrees with a cache-free network driven
    // through the identical history.
    let mut cold_net = build(7);
    cold_net.range_query(0, &q, 0.3, None);
    cold_net.range_query(0, &q, 0.3, None);
    cold_net.crash_peer(2, true);
    assert_eq!(healed, sorted_items(&cold_net, 0, &q, 0.3));
}

#[test]
fn cached_path_is_set_identical_to_cold_path_under_churn() {
    // The churn_repair.rs scenario shape: crashes with repair, graceful
    // departures, refresh rounds — after every step the cached network
    // returns exactly what the cache-free twin returns.
    let mut cold = build(11);
    let mut warm = build(11);
    let _balancer = LoadBalancer::install(
        &mut warm,
        LoadConfig::default().with_cache(true).with_cache_ttl(2),
    );
    let probes: Vec<Vec<f64>> = (0..6).map(|p| peers(11)[p].row(0).to_vec()).collect();
    let check = |cold: &HypermNetwork, warm: &HypermNetwork, stage: &str| {
        for (i, q) in probes.iter().enumerate() {
            // Twice, so the second warm pass runs through cache hits.
            for _ in 0..2 {
                assert_eq!(
                    sorted_items(cold, 0, q, 0.25),
                    sorted_items(warm, 0, q, 0.25),
                    "{stage}: probe {i} diverged between cold and cached paths"
                );
            }
        }
    };
    check(&cold, &warm, "pre-churn");
    cold.crash_peer(3, true);
    warm.crash_peer(3, true);
    check(&cold, &warm, "after crash+repair");
    cold.depart_peer(9);
    warm.depart_peer(9);
    check(&cold, &warm, "after graceful departure");
    for p in 0..cold.len() {
        if cold.is_alive(p) {
            cold.refresh_peer_summaries(p);
            warm.refresh_peer_summaries(p);
        }
    }
    check(&cold, &warm, "after refresh round");
}

#[test]
fn measurement_only_balancer_is_bit_identical_and_telemetry_byte_equal() {
    // All mechanisms off: installing the balancer must change nothing —
    // same results, same OpStats, and a byte-equal telemetry stream.
    let run = |with_balancer: bool| {
        let (rec, ring) = Recorder::ring(1 << 16);
        let (mut net, report) = HypermNetwork::build_traced(peers(13), config(13), rec).unwrap();
        if with_balancer {
            let _ = LoadBalancer::install(&mut net, LoadConfig::default());
        }
        let q = peers(13)[6].row(1).to_vec();
        let range = net.range_query(0, &q, 0.25, None);
        let knn = net.knn_query(1, &q, 4, KnnOptions::default());
        let point = net.point_query(2, &q);
        assert_eq!(ring.dropped(), 0);
        let stream: Vec<String> = ring.events().iter().map(|e| format!("{e:?}")).collect();
        (report, range, knn, point, stream)
    };
    let (report_a, range_a, knn_a, point_a, stream_a) = run(false);
    let (report_b, range_b, knn_b, point_b, stream_b) = run(true);
    assert_eq!(report_a, report_b);
    assert_eq!(range_a.items, range_b.items);
    assert_eq!(range_a.stats, range_b.stats);
    assert_eq!(knn_a.topk, knn_b.topk);
    assert_eq!(knn_a.stats, knn_b.stats);
    assert_eq!(point_a.matches, point_b.matches);
    assert_eq!(point_a.stats, point_b.stats);
    assert_eq!(
        stream_a.concat().into_bytes(),
        stream_b.concat().into_bytes(),
        "measurement-only balancer perturbed the telemetry stream"
    );
}
