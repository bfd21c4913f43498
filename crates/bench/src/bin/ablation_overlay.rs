//! Overlay-independence ablation (the paper's Section-5 claim that Hyper-M
//! "could be implemented on top of BATON, VBI-tree, CAN or any peer-to-peer
//! overlay").
//!
//! Builds the same network on all three substrates and compares
//! dissemination cost, query cost, and retrieval quality. Costs differ by
//! each overlay's routing geometry (CAN: O(d·n^{1/d}); BATON: O(log n));
//! answers must not, so the run asserts range recall exactly 1.0 on every
//! substrate and one k-nn recall for all three.

use hyperm_bench::{f1, f3, print_table, RetrievalWorkload, Scale};
use hyperm_core::{EvalHarness, HypermConfig, HypermNetwork, KnnOptions, OverlayBackend};

fn main() {
    let scale = Scale::from_env();
    let w = RetrievalWorkload::at(scale);
    println!(
        "Overlay ablation: CAN vs BATON vs VBI ({} nodes, scale {scale:?})",
        w.nodes
    );
    let peers = w.build_peers(101);

    let mut rows = Vec::new();
    let mut recalls = Vec::new();
    for (name, backend) in [
        ("CAN (paper)", OverlayBackend::Can),
        ("BATON + Z-order", OverlayBackend::Baton),
        ("VBI-tree", OverlayBackend::Vbi),
    ] {
        let cfg = HypermConfig::new(64)
            .with_levels(4)
            .with_clusters_per_peer(10)
            .with_seed(103)
            .with_backend(backend);
        let (net, report) = HypermNetwork::build(peers.clone(), cfg).unwrap();
        let harness = EvalHarness::new(&net);
        let queries = harness.sample_queries(&net, 20, 23);

        let mut range_msgs = 0.0;
        let mut range_recall = 0.0;
        let mut knn_recall = 0.0;
        let mut knn_msgs = 0.0;
        for q in &queries {
            let eps = harness.kth_distance(q, 25);
            let (pr, stats) = harness.eval_range(&net, 0, q, eps, None);
            range_recall += pr.recall;
            range_msgs += stats.messages as f64;
            let e = harness.eval_knn(&net, 0, q, 20, KnnOptions::default());
            knn_recall += e.retrieved.recall;
            knn_msgs += e.stats.messages as f64;
        }
        let n = queries.len() as f64;
        recalls.push((name, range_recall / n, knn_recall / n));
        rows.push(vec![
            name.into(),
            f3(report.avg_hops_per_item()),
            report.bootstrap.hops.to_string(),
            f3(range_recall / n),
            f1(range_msgs / n),
            f3(knn_recall / n),
            f1(knn_msgs / n),
        ]);
    }
    print_table(
        "substrate comparison (identical answers; costs differ by routing geometry)",
        &[
            "substrate",
            "insert hops/item",
            "bootstrap hops",
            "range recall",
            "range msgs/q",
            "knn recall",
            "knn msgs/q",
        ],
        &rows,
    );
    // Overlay independence: the substrate changes routing, never answers.
    for &(name, range, knn) in &recalls {
        assert_eq!(range, 1.0, "{name}: range recall below 1.0");
        assert_eq!(knn, recalls[0].2, "{name}: k-nn recall differs from CAN's");
    }
    println!(
        "\nExpected shape: recall identical across substrates (overlay-independence);\n\
         BATON's O(log n) routing typically undercuts CAN's O(d·n^(1/d)) for the\n\
         low-dimensional subspace overlays at this network size."
    );
}
