//! Query forensics: trace one query end-to-end and print its route tree.
//!
//! Builds a small traced network, runs a single query (range by default;
//! pass `knn` or `point` as the first argument or via
//! `HYPERM_TRACE_KIND`), and prints the reconstructed span tree — the
//! per-level `overlay_lookup` spans with their route hops, floods and
//! fetches — plus a per-phase cost breakdown folded over the event
//! stream and each level's route hops, with how many took a finger
//! (`hyperm_can::CanNode::fingers`). Artifacts:
//!
//! * `TRACE_query.jsonl` — every event of the traced query, one JSON
//!   object per line (build-phase events included, before the marker
//!   printed on stdout);
//! * `TRACE_metrics.json` — the metrics registry snapshot, keyed by
//!   `(op kind, wavelet level)`.
//!
//! The bin self-asserts (non-empty stream, per-level lookup spans,
//! populated metrics cells), so CI can use a plain run as a telemetry
//! smoke test.
//!
//! `trace_query cluster` replays a query against a **live loopback
//! cluster** instead: a head and a member node served over real TCP
//! frames, each tracing to its own JSONL stream
//! (`TRACE_node_head.jsonl` / `TRACE_node_member.jsonl`). A client
//! queries *via the member* with a wire-level trace context; afterwards
//! the per-node streams are parsed back and stitched with
//! [`merge_streams`] into ONE cross-process route tree (member serve →
//! head serve → overlay query), printed and self-asserted.

use hyperm_cluster::Dataset;
use hyperm_core::{HypermConfig, HypermNetwork, KnnOptions, QueryBudget};
use hyperm_telemetry::{
    merge_streams, parse_jsonl, Event, EventClass, JsonlSink, Name, OpKind, Recorder, RingHandle,
    TeeSink, Trace, TraceCtx,
};
use hyperm_transport::{Client, NodeRuntime, Role, TcpEndpoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const PEERS: usize = 24;
const ITEMS: usize = 30;
const DIM: usize = 16;
const LEVELS: usize = 4;
/// `k` of the k-nn mode: large enough that the query's ranking holds a
/// second peer for the degraded replay's window to slide onto.
const K: usize = 10;

fn build_peers(seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..PEERS)
        .map(|_| {
            let centre: f64 = rng.gen::<f64>() * 0.6;
            let mut ds = Dataset::new(DIM);
            let mut row = vec![0.0; DIM];
            for _ in 0..ITEMS {
                for x in row.iter_mut() {
                    *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect()
}

fn main() {
    let kind = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("HYPERM_TRACE_KIND").ok())
        .unwrap_or_else(|| "range".to_string());
    assert!(
        matches!(kind.as_str(), "range" | "knn" | "point" | "cluster"),
        "usage: trace_query [range|knn|point|cluster]"
    );
    if kind == "cluster" {
        cluster_replay();
        return;
    }

    // Ring buffer for offline reconstruction + JSONL file for the raw
    // stream; the recorder tees into both.
    let ring = RingHandle::new(1 << 16);
    let jsonl = JsonlSink::create("TRACE_query.jsonl").expect("create TRACE_query.jsonl");
    let rec = Recorder::with_sink(Box::new(TeeSink::new(ring.sink(), Box::new(jsonl))));

    let peers = build_peers(41);
    let cfg = HypermConfig::new(DIM)
        .with_levels(LEVELS)
        .with_clusters_per_peer(4)
        .with_seed(43);
    let (mut net, report) = HypermNetwork::build_traced(peers.clone(), cfg, rec.clone()).unwrap();
    let build_events = ring.drain();
    println!(
        "built: {PEERS} peers x {ITEMS} items, {DIM}-d, {LEVELS} levels — {} clusters published, {} replicas, {} build events",
        report.clusters_published,
        report.replicas,
        build_events.len()
    );
    assert!(
        !build_events.is_empty(),
        "publication must emit trace events"
    );

    // Query point: a stored row, so every query kind has hits.
    let mut rng = StdRng::seed_from_u64(47);
    let p = rng.gen_range(0..peers.len());
    let q = peers[p].row(rng.gen_range(0..peers[p].len())).to_vec();

    let (expect_kind, victim) = match kind.as_str() {
        "range" => {
            let res = net.range_query(0, &q, 0.25, None);
            println!(
                "range query: {} items from {} peers ({} hops, {} messages)",
                res.items.len(),
                res.peers_contacted,
                res.stats.hops,
                res.stats.messages
            );
            let victim = res.ranked.first().map(|s| s.peer);
            (OpKind::RangeQuery, victim)
        }
        "knn" => {
            let res = net.knn_query(0, &q, K, KnnOptions::default());
            println!(
                "knn query: {} of k={K} items ({} hops, {} messages)",
                res.topk.len(),
                res.stats.hops,
                res.stats.messages
            );
            let victim = res.ranked.first().map(|s| s.peer);
            (OpKind::KnnQuery, victim)
        }
        _ => {
            let res = net.point_query(0, &q);
            println!(
                "point query: {} items ({} hops, {} messages)",
                res.matches.len(),
                res.stats.hops,
                res.stats.messages
            );
            let victim = res.candidates.first().copied();
            (OpKind::PointQuery, victim)
        }
    };
    rec.flush();

    let events = ring.drain();
    assert!(!events.is_empty(), "query must emit trace events");
    let trace = Trace::from_events(&events);
    assert_eq!(
        trace.spans_named(Name::OverlayLookup).len(),
        LEVELS,
        "one overlay_lookup span per wavelet level"
    );

    println!("\n== route tree ({} events) ==", events.len());
    print!("{}", trace.render());

    println!("== per-phase cost breakdown ==");
    for phase in trace.phase_totals() {
        let fields: Vec<String> = phase
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!(
            "{:>16} x{:<5} {}",
            phase.name,
            phase.count,
            fields.join("  ")
        );
    }

    // The routing share per level: how many route hops took a finger
    // (only the 1-d CAN levels keep fingers).
    println!("== route hops per level ==");
    println!("{:>6} {:>11} {:>12}", "level", "route hops", "finger hops");
    for l in 0..LEVELS {
        let hops: Vec<&Event> = events
            .iter()
            .filter(|e| e.name == Name::RouteHop && e.level == Some(l as u8))
            .collect();
        let fingers = hops.iter().filter(|e| e.field("finger").is_some()).count();
        println!("{l:>6} {:>11} {fingers:>12}", hops.len());
    }

    let snapshot = rec.metrics().expect("recorder enabled").snapshot();
    assert!(
        snapshot.cell(expect_kind, None).is_some(),
        "whole-op metrics cell must exist"
    );
    for l in 0..LEVELS {
        assert!(
            snapshot.cell(expect_kind, Some(l)).is_some(),
            "per-level metrics cell for level {l} must exist"
        );
        assert!(
            snapshot.cell(OpKind::Publish, Some(l)).is_some(),
            "publish metrics cell for level {l} must exist"
        );
    }
    std::fs::write("TRACE_metrics.json", snapshot.to_json()).expect("write TRACE_metrics.json");
    println!(
        "\nwrote TRACE_query.jsonl ({} query events) and TRACE_metrics.json ({} cells)",
        events.len(),
        snapshot.cells.len()
    );

    // Degraded replay: crash the top-scored answering peer and rerun the
    // same query with a failure-tolerance budget. The route tree now
    // carries the data-plane fault events — `fetch_timeout` on the dead
    // peer and (range/knn) `fetch_fallback` where the contact window slid
    // to the next-scored candidate.
    let victim = victim.expect("query found no answering peers");
    net.fail_peer(victim);
    let from = usize::from(victim == 0); // querier must stay alive
    let budget = QueryBudget::default();
    match expect_kind {
        OpKind::RangeQuery => {
            let res = net.range_query_budgeted(from, &q, 0.25, Some(4), budget);
            println!(
                "\ndegraded range query (peer {victim} crashed): {} items from {} peers, truncated={}",
                res.items.len(),
                res.peers_contacted,
                res.truncated
            );
        }
        OpKind::KnnQuery => {
            // A peer budget below the candidate count leaves next-scored
            // peers for the fallback window to slide onto.
            let opts = KnnOptions {
                peer_budget: Some(1),
                ..KnnOptions::default()
            };
            let res = net.knn_query_budgeted(from, &q, K, opts, budget);
            println!(
                "\ndegraded knn query (peer {victim} crashed): {} of k={K} items from {} of {} ranked peers, truncated={}",
                res.topk.len(),
                res.peers_contacted,
                res.ranked.len(),
                res.truncated
            );
            assert!(
                res.ranked.len() >= 2,
                "the degraded k-nn ranking must hold a peer past the crashed one, got {}",
                res.ranked.len()
            );
        }
        _ => {
            let res = net.point_query_budgeted(from, &q, budget);
            println!(
                "\ndegraded point query (peer {victim} crashed): {} items, truncated={}",
                res.matches.len(),
                res.truncated
            );
        }
    }
    rec.flush();
    let degraded = ring.drain();
    let dtrace = Trace::from_events(&degraded);
    println!("== degraded route tree ({} events) ==", degraded.len());
    print!("{}", dtrace.render());
    assert!(
        dtrace.event_count(Name::FetchTimeout) >= 1,
        "crashed peer must surface as a fetch_timeout in the route tree"
    );
    if matches!(expect_kind, OpKind::RangeQuery | OpKind::KnnQuery) {
        assert!(
            dtrace.event_count(Name::FetchFallback) >= 1,
            "the contact window must slide past the crashed peer"
        );
    }
    let m = rec.metrics().expect("recorder enabled");
    assert!(
        m.counter(Name::FetchTimeout) >= 1,
        "fetch_timeout must be counted in the metrics registry"
    );
}

/// Replay a traced query against a live loopback cluster: head + member
/// over real TCP frames, one JSONL stream per node, stitched offline
/// into a single cross-process route tree.
fn cluster_replay() {
    const HEAD: u64 = 0;
    const MEMBER: u64 = 1;
    const TRACE_ID: u64 = 0x00C0_FFEE;

    let peers = build_peers(41);
    let cfg = HypermConfig::new(DIM)
        .with_levels(LEVELS)
        .with_clusters_per_peer(4)
        .with_seed(43);
    let (head_rec, head_ring) = Recorder::ring(1 << 16);
    let (net, report) = HypermNetwork::build_traced(peers.clone(), cfg, head_rec.clone()).unwrap();
    println!(
        "built: {PEERS} peers x {ITEMS} items, {DIM}-d, {LEVELS} levels — {} clusters published",
        report.clusters_published
    );

    let head_ep = TcpEndpoint::bind(HEAD, "127.0.0.1:0").expect("bind head");
    let head_addr = head_ep.local_addr();
    let mut head_rt =
        NodeRuntime::new(head_ep, Role::Head(Box::new(net))).with_recorder(head_rec.clone());
    let head_thread = std::thread::spawn(move || head_rt.serve_until_shutdown());

    let member_ep = TcpEndpoint::bind(MEMBER, "127.0.0.1:0").expect("bind member");
    member_ep
        .connect(HEAD, head_addr)
        .expect("member reaches head");
    let member_addr = member_ep.local_addr();
    let (member_rec, member_ring) = Recorder::ring(1 << 16);
    let mut member_rt = NodeRuntime::new(
        member_ep,
        Role::Member {
            head: HEAD,
            peer: None,
        },
    )
    .with_recorder(member_rec.clone());
    let member_data = build_peers(91).swap_remove(0);
    let joined = member_rt
        .join_network(&member_data, Duration::from_secs(30))
        .expect("member joins the overlay");
    println!("member joined as overlay peer {joined}");
    let member_thread = std::thread::spawn(move || member_rt.serve_until_shutdown());

    // Build + join noise stays out of the stitched artifact: the streams
    // under study start at the traced query.
    let _ = head_ring.drain();
    let _ = member_ring.drain();

    // The traced query, relayed: client -> member -> head.
    let client_ep = TcpEndpoint::bind(99, "127.0.0.1:0").expect("bind client");
    client_ep
        .connect(MEMBER, member_addr)
        .expect("client reaches member");
    let client = Client::new(client_ep, MEMBER).with_trace(TraceCtx {
        trace_id: TRACE_ID,
        parent_span: 0,
    });
    let q = peers[3].row(0).to_vec();
    let (items, (hops, messages, bytes)) = client.query(&q, 0.25, None).expect("relayed query");
    println!(
        "relayed range query: {} items ({hops} hops, {messages} messages, {bytes} bytes)",
        items.len()
    );
    assert!(!items.is_empty(), "stored row must match its own query");

    // Serve spans end just after the reply frame leaves, so the streams
    // may trail the client's return by a beat.
    let head_events = wait_for_serve_end(&head_ring);
    let member_events = wait_for_serve_end(&member_ring);

    client.shutdown().expect("member shutdown");
    let head_stop_ep = TcpEndpoint::bind(98, "127.0.0.1:0").expect("bind shutdown client");
    head_stop_ep.connect(HEAD, head_addr).expect("reach head");
    Client::new(head_stop_ep, HEAD)
        .shutdown()
        .expect("head shutdown");
    head_thread
        .join()
        .expect("head thread")
        .expect("head serve loop");
    member_thread
        .join()
        .expect("member thread")
        .expect("member serve loop");

    // Round-trip each node's stream through its JSONL artifact, exactly
    // as an operator scraping `hyperm-node --trace` files would.
    let streams = [
        ("TRACE_node_head.jsonl", HEAD, &head_events),
        ("TRACE_node_member.jsonl", MEMBER, &member_events),
    ];
    let mut parsed: Vec<(u64, Vec<Event>)> = Vec::new();
    for (path, node, events) in streams {
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json_line()))
            .collect();
        std::fs::write(path, &text).expect("write per-node trace artifact");
        parsed.push((node, parse_jsonl(&text).expect("parse per-node JSONL")));
    }
    // Member stream first: the stitch is order-independent, and leading
    // with the relay proves it.
    parsed.reverse();
    let stitched = merge_streams(&parsed);

    println!("\n== stitched cross-process route tree ==");
    print!("{}", stitched.render());

    assert_eq!(
        stitched.roots.len(),
        1,
        "the relayed query must stitch into ONE route tree"
    );
    let root = &stitched.spans[stitched.roots[0]];
    assert_eq!(root.name, Name::Serve, "root is the member's serve span");
    assert_eq!(root.start.u64_field("node"), Some(MEMBER));
    assert_eq!(root.start.u64_field("ctx_trace"), Some(TRACE_ID));
    let head_serve = root
        .children
        .iter()
        .map(|&c| &stitched.spans[c])
        .find(|s| s.name == Name::Serve)
        .expect("head serve span nested under the member's");
    assert_eq!(head_serve.start.u64_field("node"), Some(HEAD));
    assert_eq!(head_serve.start.u64_field("ctx_trace"), Some(TRACE_ID));
    assert!(
        head_serve
            .children
            .iter()
            .any(|&c| stitched.spans[c].name == Name::Query),
        "overlay query span parents under the head's serve span"
    );
    println!(
        "\nwrote TRACE_node_head.jsonl ({} events) and TRACE_node_member.jsonl ({} events); \
         stitched {} spans under one root",
        head_events.len(),
        member_events.len(),
        stitched.spans.len()
    );
}

/// Poll `ring` until a completed `serve` span shows up (the reply frame
/// races the recorder by a few microseconds).
fn wait_for_serve_end(ring: &RingHandle) -> Vec<Event> {
    for _ in 0..400 {
        let events = ring.events();
        if events
            .iter()
            .any(|e| e.class == EventClass::End && e.name == Name::Serve)
        {
            return events;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("serve span never completed on a node ring");
}
