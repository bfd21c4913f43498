//! Pins how every accounted operation reports itself: build, queries,
//! refresh and churn on one traced network, folded into two FNV-1a
//! digests — the JSONL event stream and the metrics registry (cells and
//! counters, without the host-time `latency_us` histograms). The digests
//! were measured before the per-operation span/scope/metrics code was
//! folded into one op type; a refactor of that accounting must leave both
//! unchanged.

use hyperm::telemetry::{HistSnapshot, Recorder};
use hyperm::{
    Dataset, FaultConfig, HypermConfig, HypermNetwork, KnnOptions, MetricsSnapshot, OpKind,
    QueryBudget, SummaryCache,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn hist(&mut self, h: &HistSnapshot) {
        self.u(h.count);
        self.u(h.sum);
        for &(lo, hi, c) in &h.buckets {
            self.u(lo);
            self.u(hi);
            self.u(c);
        }
    }
}

fn peers() -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(26);
    (0..10)
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
        .collect()
}

/// Run the scenario; return the (event stream, metrics) digests.
fn scenario() -> (u64, u64) {
    let data = peers();
    let q = data[4].row(2).to_vec();
    let cfg = HypermConfig::new(16)
        .with_levels(4)
        .with_clusters_per_peer(4)
        .with_seed(26);
    let (rec, ring) = Recorder::ring(1 << 20);
    let (mut net, _) = HypermNetwork::build_traced(data, cfg, rec.clone()).unwrap();

    // The second identical lookup is answered from the cache.
    net.set_summary_cache(Some(Arc::new(SummaryCache::new(4, 64))));
    net.range_query(0, &q, 0.3, None);
    net.range_query(0, &q, 0.3, None);
    assert!(net.summary_cache().unwrap().hits() > 0, "no cache hit");

    net.knn_query(1, &q, 5, KnnOptions::default());
    net.point_query(2, &q);
    net.range_query_adaptive(3, &q, 0.3, 0.6);

    net.set_fault_plan(Some(FaultConfig::lossy(0.2).with_seed(9)));
    net.range_query_budgeted(5, &q, 0.3, None, QueryBudget::default());

    net.refresh_peer_summaries(0);
    net.crash_peer(1, true);
    net.crash_peer(2, false);
    net.depart_peer(3);
    net.repair_overlays(32);

    assert_eq!(ring.dropped(), 0, "ring must hold the whole run");
    let stream = ring.events();
    for name in [
        "publish",
        "query",
        "overlay_lookup",
        "cache_hit",
        "refresh",
        "repair_step",
    ] {
        assert!(stream.iter().any(|e| e.name == name), "no {name} event");
    }
    let mut events = Fnv::new();
    for e in stream {
        events.bytes(e.to_json_line().as_bytes());
        events.bytes(b"\n");
    }

    let snap: MetricsSnapshot = rec.metrics().unwrap().snapshot();
    for kind in OpKind::ALL {
        assert!(snap.cell(kind, None).is_some(), "no {} cell", kind.name());
        assert!(
            snap.cell(kind, Some(3)).is_some(),
            "no {} level cell",
            kind.name()
        );
    }
    let mut metrics = Fnv::new();
    for (name, v) in &snap.counters {
        metrics.bytes(name.as_bytes());
        metrics.u(*v);
    }
    for c in &snap.cells {
        metrics.bytes(c.op.as_bytes());
        metrics.u(c.level.map_or(u64::MAX, |l| l as u64));
        metrics.u(c.ops);
        metrics.u(c.retries);
        metrics.u(c.failed_routes);
        metrics.hist(&c.hops);
        metrics.hist(&c.messages);
        metrics.hist(&c.bytes);
    }
    (events.0, metrics.0)
}

const EVENTS: u64 = 0x2fa5_2874_15b8_03bc;
const METRICS: u64 = 0xf721_1854_0c72_1450;

#[test]
fn every_accounted_operation_matches_its_pinned_digests() {
    let (events, metrics) = scenario();
    assert_eq!(
        (events, metrics),
        (EVENTS, METRICS),
        "accounting moved: events {events:#018x}, metrics {metrics:#018x}"
    );
}
