//! End-to-end balancer behaviour against real Hyper-M networks: virtual
//! nodes, load-triggered splits/merges and migration all preserve the
//! overlay invariants and the no-false-dismissal guarantee, with and
//! without message loss during the relief rounds.

use hyperm_baseline::FlatIndex;
use hyperm_cluster::Dataset;
use hyperm_core::{HypermConfig, HypermNetwork};
use hyperm_datagen::ZipfWorkload;
use hyperm_load::{LoadBalancer, LoadConfig};
use hyperm_sim::FaultConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(n_peers: usize, seed: u64) -> (HypermNetwork, Vec<Dataset>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let peers: Vec<Dataset> = (0..n_peers)
        .map(|_| {
            let centre: f64 = rng.gen();
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
    let (net, _) = HypermNetwork::build(peers.clone(), cfg).unwrap();
    (net, peers)
}

/// A Zipf workload whose centres are rows of the dataset (popular queries
/// hit real data).
fn zipf_over(peers: &[Dataset], s: f64, seed: u64) -> ZipfWorkload {
    let pool: Vec<Vec<f64>> = peers
        .iter()
        .flat_map(|ds| (0..ds.len().min(4)).map(|i| ds.row(i).to_vec()))
        .collect();
    ZipfWorkload::from_pool(pool, s, seed)
}

#[test]
fn measurement_charges_queries_and_fetches() {
    let (mut net, peers) = build(10, 1);
    let balancer = LoadBalancer::install(&mut net, LoadConfig::default());
    let mut w = zipf_over(&peers, 1.2, 7);
    for _ in 0..20 {
        let q = w.next_center();
        net.range_query(0, &q, 0.3, None);
    }
    let snap = balancer.snapshot(&net);
    assert!(snap.total_events > 0, "queries must charge the ledger");
    assert!(snap.max >= snap.median);
    assert!(snap.max_median_ratio >= 1.0);
    // Per-level heat was recorded wherever floods visited nodes.
    assert!(snap.heat_total_per_level.iter().any(|&h| h > 0));
}

#[test]
fn identical_queries_double_the_ledger_exactly() {
    // Exactly-once attribution: replaying the same workload doubles every
    // peer's counters precisely — nothing is double- or under-counted.
    let (mut net, peers) = build(10, 2);
    let balancer = LoadBalancer::install(&mut net, LoadConfig::default());
    let queries: Vec<Vec<f64>> = {
        let mut w = zipf_over(&peers, 1.2, 9);
        (0..15).map(|_| w.next_center()).collect()
    };
    for q in &queries {
        net.range_query(0, q, 0.3, None);
    }
    let first: Vec<_> = balancer.ledger().per_peer();
    for q in &queries {
        net.range_query(0, q, 0.3, None);
    }
    let second: Vec<_> = balancer.ledger().per_peer();
    for (p, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(b.queries_served, 2 * a.queries_served, "peer {p} queries");
        assert_eq!(b.floods_relayed, 2 * a.floods_relayed, "peer {p} floods");
        assert_eq!(
            b.fetches_answered,
            2 * a.fetches_answered,
            "peer {p} fetches"
        );
        assert_eq!(b.bytes, 2 * a.bytes, "peer {p} bytes");
        assert_eq!(b.retries, 2 * a.retries, "peer {p} retries");
    }
}

#[test]
fn virtual_nodes_place_fragments_and_keep_invariants() {
    let (mut net, peers) = build(12, 3);
    let baseline: Vec<_> = {
        let (net2, _) = build(12, 3);
        let q = peers[0].row(0).to_vec();
        net2.range_query(0, &q, 0.3, None).items
    };
    let _balancer = LoadBalancer::install(
        &mut net,
        LoadConfig::default().with_virtual_nodes(3).with_seed(5),
    );
    assert!(
        net.fragment_count() > 0,
        "placement must carve virtual zones"
    );
    for l in 0..net.levels() {
        net.overlay(l).check_invariants();
    }
    // Results are unchanged: replicas were copied, never dropped.
    let q = peers[0].row(0).to_vec();
    let mut got = net.range_query(0, &q, 0.3, None).items;
    let mut want = baseline.clone();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "virtual-node placement altered query results");
}

/// Relief on a clean network and on one losing a fifth of its overlay
/// messages during the adaptation rounds: either way the rounds act and,
/// once the plan is cleared, recall against the flat scan is exact.
#[test]
fn relieve_acts_on_skew_and_preserves_recall() {
    for faults in [None, Some(FaultConfig::lossy(0.2).with_seed(19))] {
        let (mut net, peers) = build(12, 4);
        let flat = FlatIndex::from_peers(&peers);
        // Virtual-node placement already spreads the Zipf head well (the
        // steady-state max/median events ratio sits near 1.3), so the
        // trigger is set below that to exercise the relief machinery.
        let mut balancer = LoadBalancer::install(
            &mut net,
            LoadConfig::default()
                .with_virtual_nodes(3)
                .with_splits(true)
                .with_split_ratio(1.25)
                .with_seed(11),
        );
        net.set_fault_plan(faults);
        let mut w = zipf_over(&peers, 1.2, 13);
        let mut acted = false;
        for round in 0..6 {
            for _ in 0..25 {
                let q = w.next_center();
                net.range_query(round % net.len(), &q, 0.25, None);
            }
            let report = balancer.relieve(&mut net);
            acted |= report.acted();
            for l in 0..net.levels() {
                net.overlay(l).check_invariants();
            }
        }
        assert!(
            acted,
            "faults {faults:?}: heavy skew must trigger at least one relief action"
        );
        if faults.is_some() {
            let drops = net.fault_report().map_or(0, |r| r.drops);
            assert!(drops > 0, "the lossy plan dropped nothing");
        }
        net.set_fault_plan(None);
        // Recall stays 1.0 against the flat scan after all that surgery.
        let mut w2 = zipf_over(&peers, 1.2, 13);
        for _ in 0..10 {
            let q = w2.next_center();
            let truth = flat.range(&q, 0.25);
            let got = net.range_query(0, &q, 0.25, None);
            let got_set: std::collections::HashSet<_> = got.items.iter().copied().collect();
            for t in &truth {
                assert!(
                    got_set.contains(t),
                    "faults {faults:?}: relief caused a false dismissal: {t:?}"
                );
            }
            assert_eq!(got_set.len(), truth.len(), "faults {faults:?}");
        }
    }
}

#[test]
fn splits_then_merge_back_when_load_flattens() {
    let (mut net, peers) = build(10, 5);
    let mut balancer = LoadBalancer::install(
        &mut net,
        LoadConfig::default()
            .with_splits(true)
            .with_split_ratio(1.5),
    );
    // Hammer one popular centre to force splits.
    let hot_q = peers[0].row(0).to_vec();
    let mut splits = 0;
    for _ in 0..5 {
        for _ in 0..30 {
            net.range_query(1, &hot_q, 0.25, None);
        }
        splits += balancer.relieve(&mut net).splits;
        for l in 0..net.levels() {
            net.overlay(l).check_invariants();
        }
    }
    assert!(splits > 0, "hot spot must trigger splits");
    assert!(net.fragment_count() > 0);
    // The hot spot subsides (an operator would also raise the trigger once
    // the incident is over): under an even workload the ratio sits well
    // inside the new trigger's merge hysteresis, so relief zones fold back.
    let mut balancer = LoadBalancer::install(
        &mut net,
        LoadConfig::default()
            .with_splits(true)
            .with_split_ratio(6.0),
    );
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..60 {
        let q: Vec<f64> = {
            let p = rng.gen_range(0..peers.len());
            let i = rng.gen_range(0..peers[p].len());
            peers[p].row(i).to_vec()
        };
        let entry = rng.gen_range(0..net.len());
        net.range_query(entry, &q, 0.2, None);
    }
    let mut merged = 0;
    for _ in 0..4 {
        merged += balancer.relieve(&mut net).merges;
        for l in 0..net.levels() {
            net.overlay(l).check_invariants();
        }
    }
    assert!(merged > 0, "flat load must fold fragments back");
}

#[test]
fn uninstall_stops_charging() {
    let (mut net, peers) = build(8, 6);
    let balancer = LoadBalancer::install(&mut net, LoadConfig::default());
    let q = peers[0].row(0).to_vec();
    net.range_query(0, &q, 0.3, None);
    let before = balancer.ledger().total_events();
    assert!(before > 0);
    net.set_load_ledger(None);
    net.range_query(0, &q, 0.3, None);
    assert_eq!(balancer.ledger().total_events(), before);
}
