//! Integration tests of the MANET simulation substrate together with the
//! overlay stack: underlay expansion and energy accounting.

use hyperm::sim::{EnergyModel, Underlay, UnderlayConfig};
use hyperm::{Dataset, HypermConfig, HypermNetwork, OpStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn peers(n: usize, items: usize, seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut ds = Dataset::new(16);
            let mut row = [0.0f64; 16];
            for _ in 0..items {
                for x in row.iter_mut() {
                    *x = rng.gen();
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect()
}

#[test]
fn overlay_traffic_expands_onto_the_underlay() {
    let n = 30;
    let (_, report) = HypermNetwork::build(
        peers(n, 40, 1),
        HypermConfig::new(16)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(1),
    )
    .unwrap();
    let underlay = Underlay::random(UnderlayConfig {
        nodes: n,
        seed: 2,
        ..Default::default()
    });
    assert!(underlay.is_connected());
    let stretch = underlay.mean_path_hops();
    assert!(stretch >= 1.0);
    // Physical messages = overlay messages × mean path; energy follows.
    let phys = OpStats {
        hops: (report.insertion.hops as f64 * stretch) as u64,
        messages: (report.insertion.messages as f64 * stretch) as u64,
        bytes: (report.insertion.bytes as f64 * stretch) as u64,
        ..OpStats::zero()
    };
    let e = EnergyModel::bluetooth_class2();
    assert!(e.op_joules(phys) > e.op_joules(report.insertion));
    assert!(e.op_joules(phys) < e.op_joules(report.insertion) * (stretch + 0.01));
}

#[test]
fn build_makespans_are_consistent_across_runs_and_scales() {
    let small = HypermNetwork::build(
        peers(10, 30, 5),
        HypermConfig::new(16)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(5),
    )
    .unwrap()
    .1;
    let large = HypermNetwork::build(
        peers(40, 30, 5),
        HypermConfig::new(16)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(5),
    )
    .unwrap()
    .1;
    // Rounds never exceed hops (floods parallelise, never slow down).
    assert!(small.makespan_rounds <= small.makespan_hops);
    assert!(large.makespan_rounds <= large.makespan_hops);
    // The parallel makespan grows far slower than total traffic.
    let traffic_ratio = large.insertion.hops as f64 / small.insertion.hops as f64;
    let makespan_ratio = large.makespan_rounds as f64 / small.makespan_rounds.max(1) as f64;
    assert!(
        makespan_ratio < traffic_ratio,
        "makespan ratio {makespan_ratio} vs traffic ratio {traffic_ratio}"
    );
}
