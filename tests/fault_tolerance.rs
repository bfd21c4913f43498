//! End-to-end data-plane fault tolerance: the ISSUE's acceptance bar.
//!
//! * Crashing the top-scored peer mid-query still yields range recall 1.0
//!   over the alive peers via fetch fallback (the Theorem 4.1 covering is
//!   preserved — the contact window slides, it does not shrink).
//! * Under 30% hop drop with reliable publish and fetch fallback enabled,
//!   alive-peer range recall is exactly 1.0.
//! * After a partition heals, recall returns to 1.0 within a bounded
//!   number of repair rounds (the heal round itself reconciles).
//! * A phase-2 deadline degrades gracefully to a partial answer with the
//!   `truncated` flag set, instead of hanging the critical path.

use hyperm::datagen::{distribute_by_clusters, generate_aloi_like, AloiConfig, DistributeConfig};
use hyperm::geometry::vecmath::sq_dist;
use hyperm::telemetry::{Name, Recorder};
use hyperm::{
    Backoff, FaultConfig, HypermConfig, HypermNetwork, KnnOptions, PartitionPlan, QueryBudget,
    RepairConfig, RepairEngine,
};

fn network(seed: u64, peers: usize) -> HypermNetwork {
    let corpus = generate_aloi_like(&AloiConfig {
        classes: 20,
        views_per_class: 15,
        bins: 32,
        view_jitter: 0.15,
        seed,
    });
    let mut peer_data = distribute_by_clusters(
        &corpus.data,
        &DistributeConfig {
            peers,
            classes: 20,
            peers_per_class: (3, 5),
            minibatch: false,
            seed: seed + 1,
        },
    );
    for p in peer_data.iter_mut() {
        if p.is_empty() {
            p.push_row(corpus.data.row(0));
        }
    }
    let cfg = HypermConfig::new(32)
        .with_levels(3)
        .with_clusters_per_peer(6)
        .with_seed(seed);
    HypermNetwork::build(peer_data, cfg).unwrap().0
}

/// `eps`-ball truth over the alive peers: every `(peer, item)` a plain
/// scan of the rows finds within `eps` of `q` (not `Peer::local_range` —
/// the oracle must not be the code under test).
fn alive_truth(net: &HypermNetwork, q: &[f64], eps: f64) -> Vec<(usize, usize)> {
    (0..net.len())
        .filter(|&p| net.is_alive(p))
        .flat_map(|p| {
            let rows = net.peer(p).items.rows().enumerate();
            rows.filter(|(_, row)| sq_dist(row, q) <= eps * eps + 1e-12)
                .map(move |(i, _)| (p, i))
        })
        .collect()
}

/// Distance to the `n`-th nearest item over the whole corpus — a query
/// radius guaranteed to have a multi-peer truth set.
fn nth_dist(net: &HypermNetwork, q: &[f64], n: usize) -> f64 {
    let mut d: Vec<f64> = (0..net.len())
        .flat_map(|p| {
            net.peer(p)
                .items
                .rows()
                .map(|row| {
                    row.iter()
                        .zip(q)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .collect::<Vec<_>>()
        })
        .collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d[n.min(d.len() - 1)]
}

/// Crashing the top-scored peer mid-query: the no-fallback window loses
/// whatever the peer it burns on the corpse would have fetched, the
/// fallback window slides and keeps alive-peer recall at exactly 1.0.
#[test]
fn fallback_restores_recall_when_top_scored_peer_crashes() {
    let net = network(67, 16);
    let mut demonstrated = false;
    for src in 1..net.len() {
        let q = net.peer(src).items.row(0).to_vec();
        let eps = nth_dist(&net, &q, 12);
        let probe = net.range_query(0, &q, eps, None);
        let victim = probe.ranked[0].peer;
        if victim == 0 {
            continue; // never crash the querier
        }
        let mut crashed = net.clone();
        crashed.fail_peer(victim);
        let truth = alive_truth(&crashed, &q, eps);
        if truth.is_empty() {
            continue;
        }
        // Window sized so the first `w` *alive* ranked peers include every
        // truth holder: fallback must then achieve recall 1.0, while the
        // rigid window burns its first slot on the corpse and comes up
        // one holder short.
        let ranked_alive: Vec<usize> = probe
            .ranked
            .iter()
            .map(|s| s.peer)
            .filter(|&p| p != victim)
            .collect();
        let deepest = truth
            .iter()
            .map(|&(p, _)| ranked_alive.iter().position(|&r| r == p).unwrap())
            .max()
            .unwrap();
        let w = deepest + 1;
        if w >= probe.ranked.len() {
            continue; // no spare candidate outside the window — try another query
        }

        let fb = crashed.range_query_budgeted(0, &q, eps, Some(w), QueryBudget::default());
        for t in &truth {
            assert!(
                fb.items.contains(t),
                "fallback missed {t:?} (victim {victim}, window {w})"
            );
        }
        assert!(!fb.truncated);

        let rigid = crashed.range_query_budgeted(
            0,
            &q,
            eps,
            Some(w),
            QueryBudget::default().with_fallback(false),
        );
        assert!(
            truth.iter().any(|t| !rigid.items.contains(t)),
            "rigid window should lose the deepest holder (victim {victim}, window {w})"
        );
        demonstrated = true;
        break;
    }
    assert!(demonstrated, "no query exercised the fallback window");
}

/// The acceptance bar: 30% hop drop, reliable (ack/retransmit + backoff)
/// publish, fetch fallback on — alive-peer range recall is exactly 1.0.
#[test]
fn thirty_percent_drop_with_reliable_publish_keeps_alive_recall() {
    let net = network(71, 16);
    // A retransmit budget of 8 makes residual per-hop loss 0.3^9 ~ 2e-5:
    // the ack/retransmit loop, not luck, is what delivers every sphere
    // and every query route despite 30% of raw hops dropping.
    let plan = FaultConfig::lossy(0.3)
        .with_seed(17)
        .with_max_retries(8)
        .with_backoff(Backoff::exponential(1, 8).with_jitter(1, 23));
    let cfg = RepairConfig::default()
        .with_refresh_interval(40)
        .with_fault_plan(plan);
    let mut eng = RepairEngine::new(net, cfg);
    eng.crash(5);
    eng.crash(11);
    // Two refresh periods: lossy refreshes defer the spheres whose routes
    // exhausted their retransmit budget (failure ~drop^(1+max_retries) per
    // publish, so a full round of ~250 publishes defers a few). Under Min
    // score aggregation a single undelivered sphere hides its peer from
    // ranking, so recall 1.0 is reached exactly when the deferred queue
    // drains — drive bounded retry rounds and assert they converge.
    eng.advance_to(80);
    let mut rounds = 0;
    while !eng.deferred_publishes().is_empty() && rounds < 10 {
        eng.retry_deferred();
        rounds += 1;
    }
    assert!(
        eng.deferred_publishes().is_empty(),
        "deferred publishes must drain within a bounded number of retry rounds"
    );

    let net = eng.network();
    let budget = QueryBudget::default();
    for p in 0..net.len() {
        if !net.is_alive(p) {
            continue;
        }
        let q = net.peer(p).items.row(0).to_vec();
        let res = net.range_query_budgeted(0, &q, 1e-9, None, budget);
        assert!(
            res.items.contains(&(p, 0)),
            "alive peer {p}'s item lost under 30% drop"
        );
        assert!(!res.truncated);
    }
    let report = net.fault_report().expect("fault plan installed");
    assert!(report.drops > 0, "the injector must have been exercised");
    assert!(
        eng.stats().publishes_deferred > 0 || report.exhausted == 0,
        "lossy publishes either all landed within their retry budget or were deferred"
    );
}

/// Partition injection and healing: mid-window the far component is dark
/// (timeouts, no items), and the heal round's reconciliation (background
/// merges + deferred retries + full re-publication) restores alive-peer
/// recall to 1.0 within one bounded round.
#[test]
fn partition_heals_to_full_recall_within_bounded_rounds() {
    let net = network(73, 14);
    let n = net.len();
    let plan = PartitionPlan::halves(n, 30, 100);
    let cfg = RepairConfig::default()
        .with_refresh_interval(25)
        .with_partition_plan(plan);
    let mut eng = RepairEngine::new(net, cfg);

    // Mid-window: the split is live, cross-component peers are dark.
    eng.advance_to(60);
    let net = eng.network();
    assert!(net.partition_active());
    assert!(!net.peers_connected(0, n - 1));
    let far = n - 1; // other component under the halves plan
    let q = net.peer(far).items.row(0).to_vec();
    let res = net.range_query_budgeted(0, &q, 1e-9, None, QueryBudget::default());
    assert!(
        !res.items.contains(&(far, 0)),
        "severed peer must be unreachable mid-partition"
    );

    // One tick past plan.end the heal has fired; reconciliation runs in
    // the same round, so recall is already 1.0 — a hard bound of one
    // repair round after the split ends.
    eng.advance_to(101);
    let net = eng.network();
    assert!(!net.partition_active());
    assert!(
        eng.deferred_publishes().is_empty(),
        "heal-round retries must drain the deferred queue"
    );
    for p in 0..net.len() {
        if !net.is_alive(p) {
            continue;
        }
        let q = net.peer(p).items.row(0).to_vec();
        let res = net.range_query(0, &q, 1e-9, None);
        assert!(
            res.items.contains(&(p, 0)),
            "peer {p}'s item not recalled after heal"
        );
    }
}

/// The cut severs direct fetches whether or not the caller passed a
/// `QueryBudget`: mid-partition no query kind reads an item off a peer in
/// the other component, and the unbudgeted range answer is the budgeted
/// one; after the heal the unbudgeted query is back at recall 1.0.
#[test]
fn unbudgeted_fetch_does_not_cross_a_partition() {
    let net = network(73, 14);
    let n = net.len();
    let cfg = RepairConfig::default()
        .with_refresh_interval(25)
        .with_partition_plan(PartitionPlan::halves(n, 30, 100));
    let mut eng = RepairEngine::new(net, cfg);
    let far = n - 1;
    let q = eng.network().peer(far).items.row(0).to_vec();
    let eps = nth_dist(eng.network(), &q, 25);

    // Before the first refresh under the split, replicas published across
    // the cut are still in place, so peer 2's floods rank severed peers.
    eng.advance_to(40);
    let net = eng.network();
    let plain = net.range_query(2, &q, eps, None);
    assert!(
        plain.ranked.iter().any(|s| !net.peers_connected(2, s.peer)),
        "need a severed peer among the candidates"
    );
    assert!(plain.items.iter().all(|&(p, _)| net.peers_connected(2, p)));
    let budgeted = net.range_query_budgeted(2, &q, eps, None, QueryBudget::default());
    assert_eq!(plain.items, budgeted.items);
    let knn = net.knn_query(2, &q, 10, KnnOptions::default());
    assert!(knn.retrieved.iter().all(|&((p, _), _)| p != far));
    assert!(net.point_query(2, &q).matches.is_empty());

    eng.advance_to(101);
    let net = eng.network();
    let mut got = net.range_query(2, &q, eps, None).items;
    let mut truth = alive_truth(net, &q, eps);
    got.sort_unstable();
    truth.sort_unstable();
    assert_eq!(got, truth);
    assert!(net.point_query(2, &q).matches.contains(&(far, 0)));
}

/// A phase-2 deadline degrades gracefully: partial results, `truncated`
/// set, and strictly fewer peers contacted than the unbudgeted query.
#[test]
fn deadline_budget_truncates_gracefully() {
    let net = network(79, 14);
    let q = net.peer(3).items.row(0).to_vec();
    let eps = nth_dist(&net, &q, 25);
    let full = net.range_query(0, &q, eps, None);
    assert!(full.peers_contacted > 1, "need a multi-peer truth set");

    let tight = QueryBudget::default().with_deadline(1);
    let res = net.range_query_budgeted(0, &q, eps, None, tight);
    assert!(res.truncated, "deadline of 1 hop must truncate phase 2");
    assert!(res.peers_contacted < full.peers_contacted);
    assert!(res.items.iter().all(|i| full.items.contains(i)));

    // Point probes obey the same deadline contract.
    let pres = net.point_query_budgeted(0, &q, tight);
    assert!(pres.matches.len() <= 1);

    // A roomy deadline changes nothing.
    let roomy = QueryBudget::default().with_deadline(1_000_000);
    let res = net.range_query_budgeted(0, &q, eps, None, roomy);
    assert!(!res.truncated);
    assert_eq!(res.items, full.items);
    assert_eq!(res.stats, full.stats);
}

/// The fallback events surface in telemetry: a crashed top peer produces
/// `fetch_timeout` (and, with a window, `fetch_fallback`) instants plus
/// registry counters.
#[test]
fn fallback_events_and_counters_are_recorded() {
    let seed = 83;
    let corpus = generate_aloi_like(&AloiConfig {
        classes: 20,
        views_per_class: 15,
        bins: 32,
        view_jitter: 0.15,
        seed,
    });
    let mut peer_data = distribute_by_clusters(
        &corpus.data,
        &DistributeConfig {
            peers: 14,
            classes: 20,
            peers_per_class: (3, 5),
            minibatch: false,
            seed: seed + 1,
        },
    );
    for p in peer_data.iter_mut() {
        if p.is_empty() {
            p.push_row(corpus.data.row(0));
        }
    }
    let cfg = HypermConfig::new(32)
        .with_levels(3)
        .with_clusters_per_peer(6)
        .with_seed(seed);
    let (rec, ring) = Recorder::ring(1 << 16);
    let (mut net, _) = HypermNetwork::build_traced(peer_data, cfg, rec.clone()).unwrap();

    let q = net.peer(5).items.row(0).to_vec();
    let eps = nth_dist(&net, &q, 12);
    let probe = net.range_query(0, &q, eps, None);
    let victim = probe.ranked[0].peer;
    assert_ne!(victim, 0, "seed chosen so the querier is not top-ranked");
    net.fail_peer(victim);
    ring.drain();

    let w = probe.ranked.len() - 1; // leave one candidate to slide onto
    net.range_query_budgeted(0, &q, eps, Some(w), QueryBudget::default());
    let events = ring.events();
    let timeouts = events
        .iter()
        .filter(|e| e.name == Name::FetchTimeout)
        .count();
    let fallbacks = events
        .iter()
        .filter(|e| e.name == Name::FetchFallback)
        .count();
    assert!(timeouts >= 1, "dead peer must emit fetch_timeout");
    assert!(fallbacks >= 1, "window must slide onto a fallback peer");
    let m = rec.metrics().expect("recorder enabled");
    assert!(m.counter(Name::FetchTimeout) >= 1);
    assert!(m.counter(Name::FetchFallback) >= 1);
}

/// The k-nn contact window slides too: with the top-ranked peer crashed
/// and a peer budget of one, the next-ranked live peer answers in its
/// place, and the slide is a `fetch_fallback` event naming that peer.
#[test]
fn knn_window_slides_past_a_crashed_top_peer() {
    let mut net = network(83, 14);
    let q = net.peer(5).items.row(0).to_vec();
    let k = 10;
    let probe = net.knn_query(0, &q, k, KnnOptions::default());
    assert!(
        probe.ranked.len() >= 2,
        "seed chosen so the ranking holds a second peer, got {}",
        probe.ranked.len()
    );
    let (victim, next) = (probe.ranked[0].peer, probe.ranked[1].peer);
    assert_ne!(victim, 0, "seed chosen so the querier is not top-ranked");
    net.fail_peer(victim);
    let (rec, ring) = Recorder::ring(1 << 16);
    net.set_recorder(rec.clone());

    let opts = KnnOptions {
        peer_budget: Some(1),
        ..KnnOptions::default()
    };
    let res = net.knn_query_budgeted(0, &q, k, opts, QueryBudget::default());
    assert_eq!(res.peers_contacted, 1);
    assert!(res.retrieved.iter().all(|&((p, _), _)| p == next));
    assert!(!res.topk.is_empty());
    let fallbacks: Vec<_> = ring
        .events()
        .into_iter()
        .filter(|e| e.name == Name::FetchFallback)
        .collect();
    assert_eq!(fallbacks.len(), 1, "one slide, onto the next-ranked peer");
    assert_eq!(
        fallbacks[0].field("peer").and_then(|v| v.as_u64()),
        Some(next as u64)
    );
    assert_eq!(
        rec.metrics()
            .expect("recorder enabled")
            .counter(Name::FetchFallback),
        1
    );
}
