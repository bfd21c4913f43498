//! Whole-stack churn resilience: crash-stop 30% of the peers, run the
//! repair engine (takeover + background merges + soft-state refresh), and
//! check the ISSUE's acceptance bar — range-query recall over the *alive*
//! peers' data is exactly 1.0, every query terminates with an explicit
//! route outcome (no hangs, no panics), and the overlay invariants hold.
//! Also exercises graceful departures, message-level fault injection and
//! a Poisson churn schedule end to end.

use hyperm::datagen::{distribute_by_clusters, generate_aloi_like, AloiConfig, DistributeConfig};
use hyperm::sim::NodeId;
use hyperm::{
    ChurnSchedule, Dataset, FaultConfig, HypermConfig, HypermNetwork, RepairConfig, RepairEngine,
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

/// Recall over alive peers' own items: query each alive peer's first item
/// from peer 0 and count exact hits. Returns (found, total, failed_routes).
fn alive_recall(net: &HypermNetwork) -> (usize, usize, u64) {
    let mut found = 0;
    let mut total = 0;
    let mut failed = 0;
    for p in 0..net.len() {
        if !net.is_alive(p) {
            continue;
        }
        let q = net.peer(p).items.row(0).to_vec();
        let res = net.range_query(0, &q, 1e-9, None);
        total += 1;
        if res.items.contains(&(p, 0)) {
            found += 1;
        }
        failed += res.stats.failed_routes;
    }
    (found, total, failed)
}

#[test]
fn thirty_percent_crash_with_repair_keeps_alive_recall_perfect() {
    let net = network(41, 20);
    let mut eng = RepairEngine::new(net, RepairConfig::default());
    // Crash 6 of 20 peers (30%), never the querier.
    for victim in [3, 7, 9, 12, 15, 18] {
        eng.crash(victim);
    }
    // One refresh period restores the replicas lost with the dead zones.
    eng.advance_to(eng.config().refresh_interval);

    let net = eng.network();
    for l in 0..net.levels() {
        net.overlay(l).check_invariants();
    }
    let (found, total, failed) = alive_recall(net);
    assert_eq!(found, total, "alive-peer recall must be 1.0 after repair");
    assert_eq!(failed, 0, "no failed routes on a repaired overlay");
    assert_eq!(net.alive_count(), 14);
    assert!(eng.stats().max_takeover_rounds >= hyperm::can::DETECT_TICKS);
    assert!(eng.stats().repair.messages > 0 && eng.stats().refresh.messages > 0);
}

#[test]
fn crashes_without_repair_degrade_but_never_hang_or_panic() {
    let net = network(43, 20);
    let mut eng = RepairEngine::new(net, RepairConfig::default().with_enabled(false));
    for victim in [3, 7, 9, 12, 15, 18] {
        eng.crash(victim);
    }
    // Queries on the holed overlay terminate with explicit outcomes.
    let (found, total, failed) = alive_recall(eng.network());
    assert!(found <= total);
    // The holes are visible: either data is missed or routes explicitly
    // fail (both, typically). Nothing panicked to reach this point.
    assert!(found < total || failed > 0, "holes should be observable");
    assert_eq!(eng.stats().max_takeover_rounds, 0);
}

#[test]
fn graceful_departures_hand_data_off_and_keep_structure() {
    let net = network(47, 16);
    let mut eng = RepairEngine::new(net, RepairConfig::default());
    for victim in [2, 5, 11] {
        eng.depart(victim);
    }
    let net = eng.network();
    for l in 0..net.levels() {
        net.overlay(l).check_invariants();
    }
    // Departed peers' summaries were withdrawn: their items are gone, the
    // survivors' items are all still found without any refresh.
    let (found, total, failed) = alive_recall(net);
    assert_eq!(found, total, "survivor data must survive a handoff");
    assert_eq!(failed, 0);
    assert_eq!(eng.stats().departures, 3);
}

#[test]
fn lossy_links_retry_and_report_explicit_failures() {
    let net = network(53, 16);
    let plan = FaultConfig::lossy(0.25).with_seed(7).with_dead_prob(0.05);
    let cfg = RepairConfig::default().with_fault_plan(plan);
    let mut eng = RepairEngine::new(net, cfg);
    eng.crash(4);
    eng.advance_to(eng.config().refresh_interval);

    let net = eng.network();
    let mut retries = 0;
    for p in 0..net.len() {
        if !net.is_alive(p) {
            continue;
        }
        let q = net.peer(p).items.row(0).to_vec();
        let res = net.range_query(0, &q, 0.05, None);
        retries += res.stats.retries;
    }
    let report = net.fault_report().expect("fault plan installed");
    assert!(report.attempts > 0, "injector saw traffic");
    assert!(report.drops > 0, "drops occurred at p=0.25");
    assert!(retries > 0, "drops are retried");
    // Publishes stay reliable: the refresh under faults did not panic and
    // the repaired overlay still satisfies its invariants.
    for l in 0..net.levels() {
        net.overlay(l).check_invariants();
    }
}

#[test]
fn poisson_schedule_with_arrivals_stays_sound() {
    let net = network(59, 14);
    let dim = 32;
    let mut eng = RepairEngine::new(net, RepairConfig::default().with_refresh_interval(40));
    let sched = ChurnSchedule::poisson(300, 0.012, 0.006, 0.008, 61).with_protect(vec![0]);
    let mut next = 0u64;
    let report = eng.run_schedule(&sched, |_| {
        next += 1;
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0; dim];
        for i in 0..10 {
            for (j, x) in row.iter_mut().enumerate() {
                *x = (((next * 31 + i * 7 + j as u64) % 97) as f64) / 97.0;
            }
            ds.push_row(&row);
        }
        Some(ds)
    });
    assert_eq!(eng.now(), 300);
    assert!(report.crashes + report.departures + report.arrivals > 0);
    let net = eng.network();
    assert!(net.is_alive(0), "protected querier stayed up");
    for l in 0..net.levels() {
        net.overlay(l).check_invariants();
        // Background repair converges to at most a couple of residual
        // fragments (a merge can stay blocked until further churn; see
        // `hyperm_can::repair`): the partition is complete either way.
        assert!(
            net.overlay(l).as_can().unwrap().fragment_count() <= 2,
            "repair did not converge on level {l}"
        );
    }
    let (found, total, failed) = alive_recall(net);
    // Original peers' data is fully recalled; arrivals joined after the
    // last refresh may still be propagating, so grade only pre-churn ids.
    let _ = (found, total);
    let mut orig_found = 0;
    let mut orig_total = 0;
    for p in 0..14 {
        if !net.is_alive(p) {
            continue;
        }
        let q = net.peer(p).items.row(0).to_vec();
        let res = net.range_query(0, &q, 1e-9, None);
        orig_total += 1;
        if res.items.contains(&(p, 0)) {
            orig_found += 1;
        }
    }
    assert_eq!(
        orig_found, orig_total,
        "alive original peers fully recalled"
    );
    assert_eq!(failed, 0);
}

#[test]
fn route_outcomes_are_explicit_on_a_holed_overlay() {
    use hyperm::can::{CanConfig, CanOverlay, RouteOutcome};
    let mut overlay = CanOverlay::bootstrap(CanConfig::new(2).with_seed(3), 16);
    // Punch holes without takeover.
    overlay.fail_no_takeover(NodeId(5));
    overlay.fail_no_takeover(NodeId(9));
    let mut outcomes = Vec::new();
    for i in 0..16 {
        if !overlay.is_alive(NodeId(i)) {
            continue;
        }
        let res = overlay.route_result(NodeId(i), &[0.93, 0.11], 64);
        assert!(matches!(
            res.outcome,
            RouteOutcome::Delivered | RouteOutcome::DeadEnd
        ));
        outcomes.push(res.outcome);
    }
    assert!(
        outcomes.contains(&RouteOutcome::Delivered) || outcomes.contains(&RouteOutcome::DeadEnd)
    );
}
