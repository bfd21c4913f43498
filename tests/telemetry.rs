//! Telemetry integration tests: the tracing layer must be deterministic
//! under equal seeds and provably free when disabled — the simulated
//! OpStats accounting and query results must be bit-identical whether
//! tracing is off, on, or the recorder was never installed.

use hyperm::datagen::{generate_aloi_like, AloiConfig};
use hyperm::telemetry::{Event, Name, Recorder, RingHandle, Trace};
use hyperm::{Dataset, HypermConfig, HypermNetwork, KnnOptions, OpKind, QueryBudget};

const DIM: usize = 32;
const LEVELS: usize = 4;

fn peers(seed: u64) -> Vec<Dataset> {
    let corpus = generate_aloi_like(&AloiConfig {
        classes: 10,
        views_per_class: 18,
        bins: DIM,
        view_jitter: 0.15,
        seed,
    });
    let per = corpus.data.len() / 12;
    (0..12)
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

/// Build a traced network and run one of each query kind, returning the
/// captured event stream.
fn traced_run(seed: u64, cfg: HypermConfig) -> Vec<Event> {
    let (rec, ring) = Recorder::ring(1 << 16);
    let (net, _) = HypermNetwork::build_traced(peers(seed), cfg, rec).unwrap();
    let q = peers(seed)[3].row(0).to_vec();
    net.range_query(0, &q, 0.2, None);
    net.knn_query(1, &q, 4, KnnOptions::default());
    net.point_query(2, &q);
    assert_eq!(ring.dropped(), 0, "ring must be large enough for the run");
    ring.events()
}

#[test]
fn same_seed_gives_identical_event_streams() {
    let a = traced_run(7, config(7));
    let b = traced_run(7, config(7));
    assert!(!a.is_empty());
    assert_eq!(a, b, "equal seeds must produce equal event streams");
}

#[test]
fn default_config_gives_byte_equal_jsonl_streams() {
    // The configuration exactly as shipped — only the seed is set — and
    // the exported JSONL bytes, not just the in-memory events: nothing a
    // default build does may reorder or renumber a traced query.
    let jsonl = || -> String {
        traced_run(31, HypermConfig::new(DIM).with_seed(31))
            .iter()
            .map(|e| format!("{}\n", e.to_json_line()))
            .collect()
    };
    let (a, b) = (jsonl(), jsonl());
    assert!(a.contains("\"query\""), "no query span in the trace");
    assert_eq!(a, b, "default config must trace deterministically");
}

#[test]
fn tracing_never_perturbs_simulated_results() {
    let seed = 11;
    // Untouched network: telemetry crate never engaged.
    let (plain, plain_report) = HypermNetwork::build(peers(seed), config(seed)).unwrap();
    // Disabled recorder installed explicitly.
    let (off, off_report) =
        HypermNetwork::build_traced(peers(seed), config(seed), Recorder::disabled()).unwrap();
    // Tracing fully on.
    let (rec, _ring) = Recorder::ring(1 << 16);
    let (on, on_report) = HypermNetwork::build_traced(peers(seed), config(seed), rec).unwrap();

    assert_eq!(plain_report, off_report);
    assert_eq!(plain_report, on_report);

    let q = peers(seed)[5].row(2).to_vec();
    let (pr, or, tr) = (
        plain.range_query(0, &q, 0.25, None),
        off.range_query(0, &q, 0.25, None),
        on.range_query(0, &q, 0.25, None),
    );
    assert_eq!(pr.items, or.items);
    assert_eq!(pr.items, tr.items);
    assert_eq!(pr.stats, or.stats, "disabled recorder changed OpStats");
    assert_eq!(pr.stats, tr.stats, "enabled recorder changed OpStats");

    let (pk, ok, tk) = (
        plain.knn_query(1, &q, 5, KnnOptions::default()),
        off.knn_query(1, &q, 5, KnnOptions::default()),
        on.knn_query(1, &q, 5, KnnOptions::default()),
    );
    assert_eq!(pk.topk, ok.topk);
    assert_eq!(pk.topk, tk.topk);
    assert_eq!(pk.stats, ok.stats);
    assert_eq!(pk.stats, tk.stats);

    let (pp, op, tp) = (
        plain.point_query(2, &q),
        off.point_query(2, &q),
        on.point_query(2, &q),
    );
    assert_eq!(pp.matches, op.matches);
    assert_eq!(pp.matches, tp.matches);
    assert_eq!(pp.stats, op.stats);
    assert_eq!(pp.stats, tp.stats);
}

#[test]
fn budgeted_queries_match_legacy_bit_for_bit_without_faults() {
    // The failure-tolerance budget must be provably free when nothing
    // fails: with every peer alive, no injector and no partition, the
    // budgeted entry points return the same results and burn the same
    // OpStats as the legacy fetch loops, and never set `truncated`.
    let seed = 23;
    let (net, _) = HypermNetwork::build(peers(seed), config(seed)).unwrap();
    let q = peers(seed)[4].row(1).to_vec();
    let b = QueryBudget::default();

    let r1 = net.range_query(0, &q, 0.25, Some(5));
    let r2 = net.range_query_budgeted(0, &q, 0.25, Some(5), b);
    assert_eq!(r1.items, r2.items);
    assert_eq!(r1.stats, r2.stats, "budget changed range OpStats");
    assert_eq!(r1.peers_contacted, r2.peers_contacted);
    assert!(!r2.truncated);

    let k1 = net.knn_query(1, &q, 4, KnnOptions::default());
    let k2 = net.knn_query_budgeted(1, &q, 4, KnnOptions::default(), b);
    assert_eq!(k1.topk, k2.topk);
    assert_eq!(k1.retrieved, k2.retrieved);
    assert_eq!(k1.stats, k2.stats, "budget changed knn OpStats");
    assert_eq!(k1.peers_contacted, k2.peers_contacted);
    assert!(!k2.truncated);

    let p1 = net.point_query(2, &q);
    let p2 = net.point_query_budgeted(2, &q, b);
    assert_eq!(p1.matches, p2.matches);
    assert_eq!(p1.stats, p2.stats, "budget changed point OpStats");
    assert!(!p2.truncated);
}

#[test]
fn budgeted_event_stream_identical_without_faults() {
    // Same assertion one layer down: the traced event stream of a
    // budgeted query is byte-identical to the legacy one when no fault
    // can fire — no fetch_timeout/fetch_fallback events, same spans,
    // same field values, same order.
    let seed = 29;
    let run = |budgeted: bool| -> Vec<Event> {
        let (rec, ring) = Recorder::ring(1 << 16);
        let (net, _) = HypermNetwork::build_traced(peers(seed), config(seed), rec).unwrap();
        ring.drain(); // discard build-phase events
        let q = peers(seed)[3].row(0).to_vec();
        if budgeted {
            net.range_query_budgeted(0, &q, 0.2, None, QueryBudget::default());
            net.point_query_budgeted(1, &q, QueryBudget::default());
        } else {
            net.range_query(0, &q, 0.2, None);
            net.point_query(1, &q);
        }
        ring.events()
    };
    let legacy = run(false);
    let budgeted = run(true);
    assert!(!legacy.is_empty());
    assert_eq!(legacy, budgeted, "budgeted trace diverged with faults off");
}

#[test]
fn reliable_refresh_reports_full_delivery_without_faults() {
    // The report-returning refresh is the same code path the legacy
    // wrapper drives; with no faults every sphere must land completely
    // (delivered == published clusters, nothing failed)
    // and the wrapper must return exactly the report's stats.
    let seed = 31;
    let (mut a, _) = HypermNetwork::build(peers(seed), config(seed)).unwrap();
    let (mut b, _) = HypermNetwork::build(peers(seed), config(seed)).unwrap();
    let peer = 3;
    let legacy = a.refresh_peer_summaries(peer);
    let report = b.refresh_peer_summaries_report(peer);
    assert_eq!(legacy, report.stats, "wrapper and report paths diverged");
    assert_eq!(report.failed, 0, "nothing can fail without faults");
    let clusters: u64 = (0..b.levels())
        .map(|l| b.peer(peer).summaries[l].len() as u64)
        .sum();
    assert_eq!(report.delivered, clusters, "every sphere must land fully");

    // And the refreshed networks still answer identically.
    let q = peers(seed)[peer].row(0).to_vec();
    let (ra, rb) = (
        a.range_query(0, &q, 0.2, None),
        b.range_query(0, &q, 0.2, None),
    );
    assert_eq!(ra.items, rb.items);
    assert_eq!(ra.stats, rb.stats);
}

#[test]
fn metrics_cells_are_keyed_by_op_kind_and_level() {
    let seed = 13;
    let (rec, _ring) = Recorder::ring(1 << 16);
    let (net, _) = HypermNetwork::build_traced(peers(seed), config(seed), rec.clone()).unwrap();
    let q = peers(seed)[0].row(1).to_vec();
    net.range_query(0, &q, 0.2, None);
    net.knn_query(0, &q, 3, KnnOptions::default());

    let snap = rec.metrics().unwrap().snapshot();
    for kind in [OpKind::Publish, OpKind::RangeQuery, OpKind::KnnQuery] {
        let whole = snap.cell(kind, None).unwrap_or_else(|| {
            panic!("missing whole-op cell for {}", kind.name());
        });
        assert!(whole.ops > 0);
        for l in 0..LEVELS {
            let cell = snap.cell(kind, Some(l)).unwrap_or_else(|| {
                panic!("missing cell ({}, level {l})", kind.name());
            });
            assert!(cell.ops > 0);
            assert_eq!(cell.hops.count, cell.ops);
        }
    }
    // Query latency is recorded on the whole-op row.
    assert!(
        snap.cell(OpKind::RangeQuery, None)
            .unwrap()
            .latency_us
            .count
            > 0
    );
    assert!(
        snap.cell(OpKind::PointQuery, None).is_none(),
        "no point query ran"
    );
    let json = snap.to_json();
    assert!(json.contains("\"op\": \"range_query\""));
    assert!(json.contains("\"level\": null"));
}

#[test]
fn route_tree_covers_every_level() {
    let seed = 17;
    let (rec, ring) = Recorder::ring(1 << 16);
    let (net, _) = HypermNetwork::build_traced(peers(seed), config(seed), rec).unwrap();
    ring.drain(); // discard build-phase events
    let q = peers(seed)[4].row(3).to_vec();
    let res = net.range_query(0, &q, 0.25, None);

    let trace = Trace::from_events(&ring.events());
    assert!(
        trace.orphans.is_empty(),
        "every event must parent somewhere"
    );
    let queries = trace.spans_named(Name::Query);
    assert_eq!(queries.len(), 1);
    let lookups = trace.spans_named(Name::OverlayLookup);
    assert_eq!(lookups.len(), LEVELS, "one lookup span per wavelet level");
    let mut levels: Vec<_> = lookups.iter().map(|s| s.level.unwrap()).collect();
    levels.sort_unstable();
    assert_eq!(levels, (0..LEVELS as u8).collect::<Vec<_>>());
    // Each lookup hangs off the query span.
    for l in &lookups {
        assert_eq!(l.start.parent, queries[0].id);
    }
    // The phase breakdown folds the whole-op cost back out of the tree.
    let totals = trace.phase_totals();
    let qt = totals.iter().find(|p| p.name == Name::Query).unwrap();
    assert_eq!(qt.fields["hops"], res.stats.hops as f64);
    assert_eq!(qt.fields["messages"], res.stats.messages as f64);
    assert_eq!(qt.fields["bytes"], res.stats.bytes as f64);
}

#[test]
fn ring_handle_reusable_across_phases() {
    // The trace_query bin drains build events then captures one query;
    // the drain boundary must be clean (no query events before, none
    // lost after).
    let seed = 19;
    let ring = RingHandle::new(1 << 16);
    let rec = Recorder::with_sink(ring.sink());
    let (net, _) = HypermNetwork::build_traced(peers(seed), config(seed), rec).unwrap();
    let build = ring.drain();
    assert!(build.iter().any(|e| e.name == Name::Publish));
    assert!(build.iter().all(|e| e.name != Name::Query));
    let q = peers(seed)[2].row(0).to_vec();
    net.range_query(0, &q, 0.2, None);
    let query = ring.events();
    assert!(query.iter().any(|e| e.name == Name::Query));
    assert!(query.iter().all(|e| e.name != Name::Publish));
}
