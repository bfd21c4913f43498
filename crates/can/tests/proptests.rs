//! Property-based tests for the CAN overlay invariants.

use hyperm_can::{CanConfig, CanOverlay, ObjectRef, RouteOutcome};
use hyperm_sim::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zones always tile the key space and neighbour lists stay correct,
    /// for any dimension/size/seed.
    #[test]
    fn bootstrap_invariants(dim in 1usize..6, n in 1usize..48, seed in any::<u64>()) {
        let overlay = CanOverlay::bootstrap(CanConfig::new(dim).with_seed(seed), n);
        overlay.check_invariants();
    }

    /// Greedy routing always reaches the true owner.
    #[test]
    fn routing_is_correct(
        dim in 1usize..5,
        n in 2usize..40,
        seed in any::<u64>(),
        coords in prop::collection::vec(0.0..1.0f64, 5),
        from in any::<prop::sample::Index>(),
    ) {
        let overlay = CanOverlay::bootstrap(CanConfig::new(dim).with_seed(seed), n);
        let target = &coords[..dim];
        let start = NodeId(from.index(overlay.len()));
        let (owner, stats) = overlay.route(start, target, 1);
        prop_assert_eq!(owner, overlay.owner_of(target));
        prop_assert!(stats.hops <= n as u64);
    }

    /// Replication places a sphere in exactly the zones it overlaps, and a
    /// range query over any ball finds it iff the balls intersect.
    #[test]
    fn replication_matches_geometry(
        n in 2usize..40,
        seed in any::<u64>(),
        cx in 0.0..1.0f64,
        cy in 0.0..1.0f64,
        r in 0.0..0.5f64,
        qx in 0.0..1.0f64,
        qy in 0.0..1.0f64,
        qr in 0.0..0.5f64,
    ) {
        let mut overlay = CanOverlay::bootstrap(CanConfig::new(2).with_seed(seed), n);
        let out = overlay.insert_sphere(
            NodeId(0),
            vec![cx, cy],
            r,
            ObjectRef { peer: 0, tag: 0, items: 1 },
            true,
        );
        let expected: usize = overlay
            .nodes()
            .filter(|node| node.zone.intersects_sphere(&[cx, cy], r))
            .count();
        prop_assert_eq!(out.replicas, expected.max(1));

        let res = overlay.range_query(NodeId(0), &[qx, qy], qr);
        let d = ((cx - qx).powi(2) + (cy - qy).powi(2)).sqrt();
        let should_match = d <= r + qr + 1e-12;
        prop_assert_eq!(!res.matches.is_empty(), should_match,
            "d={} r+qr={}", d, r + qr);
    }

    /// Any interleaving of joins, graceful leaves and crash-stop failures
    /// (with takeover + background repair) keeps the partition tiling the
    /// space with exact symmetric neighbour lists — and a sphere published
    /// up front is never false-dismissed over the survivors: every alive
    /// node whose zones overlap it either holds a replica or adopted its
    /// zone post-crash (restored by the next refresh), and a range query
    /// still terminates with an explicit result.
    #[test]
    fn interleaved_churn_keeps_invariants(
        dim in 1usize..4,
        n in 4usize..24,
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..3, any::<prop::sample::Index>()), 1..24),
    ) {
        let mut overlay = CanOverlay::bootstrap(CanConfig::new(dim).with_seed(seed), n);
        let centre = vec![0.5; dim];
        overlay.insert_sphere(
            NodeId(0),
            centre.clone(),
            0.25,
            ObjectRef { peer: 0, tag: 0, items: 1 },
            true,
        );
        let mut point = vec![0.1; dim];
        for (op, pick) in ops {
            let alive = overlay.alive_ids();
            match op {
                0 => {
                    // Join at a pseudo-random point, entering via an alive node.
                    for (i, x) in point.iter_mut().enumerate() {
                        *x = (*x + 0.37 + 0.11 * i as f64) % 1.0;
                    }
                    let entry = alive[pick.index(alive.len())];
                    overlay.join(entry, &point.clone());
                }
                1 if alive.len() > 2 => {
                    overlay.leave(alive[pick.index(alive.len())]);
                }
                _ if alive.len() > 2 => {
                    overlay.fail(alive[pick.index(alive.len())]);
                }
                _ => {}
            }
            overlay.repair_to_quiescence(32);
            overlay.check_invariants();
        }
        // No false dismissal over alive peers: peer 0 may have died (its
        // object is then legitimately gone), otherwise the query finds it.
        if overlay.is_alive(NodeId(0)) {
            let from = overlay.alive_ids()[0];
            let res = overlay.range_query(from, &centre, 0.01);
            prop_assert_eq!(res.matches.len(), 1, "published sphere false-dismissed");
        }
    }
}

/// `⌈log₂ n⌉`, the finger count per direction on a ring of `n` nodes.
fn ceil_log2(n: usize) -> u64 {
    u64::from(n.next_power_of_two().trailing_zeros())
}

/// Route from `samples` seeded (start, target) pairs on a 1-d overlay and
/// its fingerless twin: every route must deliver to the owner, on both.
/// Returns the fingered routes' hop counts.
fn finger_routes(on: &CanOverlay, off: &CanOverlay, samples: usize, seed: u64) -> Vec<u64> {
    let alive = on.alive_ids();
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..samples)
        .map(|_| {
            let from = alive[(next() * alive.len() as f64) as usize];
            let target = [next()];
            let owner = on
                .try_owner_of(&target)
                .expect("a repaired ring has no holes");
            let with = on.route_result(from, &target, 1);
            let without = off.route_result(from, &target, 1);
            assert_eq!(with.outcome, RouteOutcome::Delivered);
            assert_eq!(without.outcome, RouteOutcome::Delivered);
            assert_eq!((with.node, without.node), (owner, owner));
            with.stats.hops
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fingers on a 1-d ring stay exact (`check_invariants`) through any
    /// interleaving of joins, graceful leaves, crashes with takeover and
    /// single repair passes, and routing with them reaches the same owner
    /// as the fingerless overlay built and changed the same way. Once the
    /// ring is repaired (no fragments left), routes take at most
    /// ⌈log₂ n⌉ hops on average and 2⌈log₂ n⌉ + 2 at worst.
    #[test]
    fn fingers_route_to_the_same_owner_in_log_hops(
        n in 2usize..300,
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..4, any::<prop::sample::Index>(), 0.0..1.0f64), 1..10),
    ) {
        let mut on = CanOverlay::bootstrap(CanConfig::new(1).with_seed(seed), n);
        let mut off = CanOverlay::bootstrap(CanConfig::new(1).with_seed(seed).with_fingers(false), n);
        prop_assert_eq!(on.bootstrap_stats(), off.bootstrap_stats());
        for (step, (op, pick, x)) in ops.into_iter().enumerate() {
            let alive = on.alive_ids();
            let victim = alive[pick.index(alive.len())];
            match op {
                0 => {
                    on.join(victim, &[x]);
                    off.join(victim, &[x]);
                }
                1 if alive.len() > 2 => {
                    on.leave(victim);
                    off.leave(victim);
                }
                2 if alive.len() > 2 => {
                    on.fail(victim);
                    off.fail(victim);
                }
                _ => {
                    on.repair_step();
                    off.repair_step();
                }
            }
            on.check_invariants();
            off.check_invariants();
            prop_assert!(off.nodes().all(|nd| nd.fingers.is_empty()));
            for (a, b) in on.nodes().zip(off.nodes()) {
                prop_assert_eq!(a.zones().collect::<Vec<_>>(), b.zones().collect::<Vec<_>>());
            }
            let hops = finger_routes(&on, &off, 24, seed ^ step as u64);
            if on.fragment_count() == 0 {
                let log = ceil_log2(on.alive_count());
                let mean = hops.iter().sum::<u64>() as f64 / hops.len() as f64;
                let max = hops.iter().copied().max().unwrap_or(0);
                prop_assert!(mean <= log as f64, "mean {} hops > ⌈log₂ n⌉ = {}", mean, log);
                prop_assert!(max <= 2 * log + 2, "max {} hops > 2⌈log₂ n⌉ + 2 = {}", max, 2 * log + 2);
            }
        }
    }
}

/// The measured routing cost with and without fingers on bootstrapped
/// rings (printed with `--nocapture`), held to the same bounds.
#[test]
fn finger_hops_are_logarithmic_on_repaired_rings() {
    for n in [16usize, 100, 256, 300] {
        let on = CanOverlay::bootstrap(CanConfig::new(1).with_seed(n as u64), n);
        let off =
            CanOverlay::bootstrap(CanConfig::new(1).with_seed(n as u64).with_fingers(false), n);
        let hops = finger_routes(&on, &off, 400, 7);
        let mean = hops.iter().sum::<u64>() as f64 / hops.len() as f64;
        let max = hops.iter().copied().max().unwrap_or(0);
        let plain: Vec<u64> = {
            let alive = off.alive_ids();
            (0..400)
                .map(|i| {
                    let t = [(i as f64 * 0.618_033_988_749_895) % 1.0];
                    off.route_result(alive[i % alive.len()], &t, 1).stats.hops
                })
                .collect()
        };
        let plain_mean = plain.iter().sum::<u64>() as f64 / plain.len() as f64;
        let log = ceil_log2(n);
        eprintln!(
            "n = {n}: fingers mean {mean:.2} max {max} hops (⌈log₂ n⌉ = {log}); plain CAN mean {plain_mean:.2}"
        );
        assert!(mean <= log as f64, "n = {n}: mean {mean}");
        assert!(max <= 2 * log + 2, "n = {n}: max {max}");
        assert!(
            mean < plain_mean || n < 32,
            "n = {n}: fingers do not shorten routes"
        );
    }
}
