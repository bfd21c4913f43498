//! The mechanisms-off equivalence guarantee of the load crate: a
//! measurement-only balancer changes no result bit and no telemetry byte.

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
