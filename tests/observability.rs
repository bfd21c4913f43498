//! Cluster observability, end to end over real loopback TCP: a client
//! query relayed member → head with a wire-level [`TraceCtx`] must
//! stitch the two nodes' independent telemetry streams into ONE
//! cross-process route tree, and the nodes' sliding-window stats must
//! reflect the traffic they served.

use hyperm::datagen::{generate_aloi_like, AloiConfig};
use hyperm::telemetry::{
    merge_streams, parse_jsonl, Event, EventClass, JsonValue, Name, Recorder, RingHandle,
    SloReport, SloRule, TraceCtx, WindowSnapshot,
};
use hyperm::transport::{Client, NodeRuntime, Role, TcpEndpoint};
use hyperm::{Dataset, HypermConfig, HypermNetwork};
use std::time::Duration;

const DIM: usize = 16;
const LEVELS: usize = 3;
const SEED: u64 = 11;
const HEAD: u64 = 0;
const MEMBER: u64 = 1;
const TRACE_ID: u64 = 0xBEEF;

fn collection(slot: u64) -> Dataset {
    generate_aloi_like(&AloiConfig {
        classes: 2,
        views_per_class: 15,
        bins: DIM,
        view_jitter: 0.15,
        seed: SEED.wrapping_add(slot),
    })
    .data
}

/// Serve spans end a beat after the reply frame leaves; poll the ring
/// until the node's completed `serve` span is visible.
fn await_serve_end(ring: &RingHandle) -> Vec<Event> {
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
    panic!("serve span never completed");
}

#[test]
fn relayed_query_stitches_into_one_route_tree() {
    // Head: overlay network + runtime sharing one recorder, real TCP.
    let (head_rec, head_ring) = Recorder::ring(1 << 16);
    let data: Vec<Dataset> = (0..3).map(collection).collect();
    let cfg = HypermConfig::new(DIM)
        .with_levels(LEVELS)
        .with_clusters_per_peer(4)
        .with_seed(SEED);
    let (net, _) = HypermNetwork::build_traced(data.clone(), cfg, head_rec.clone()).unwrap();
    let head_ep = TcpEndpoint::bind(HEAD, "127.0.0.1:0").unwrap();
    let head_addr = head_ep.local_addr();
    let mut head_rt =
        NodeRuntime::new(head_ep, Role::Head(Box::new(net))).with_recorder(head_rec.clone());
    let head_thread = std::thread::spawn(move || head_rt.serve_until_shutdown());

    // Member: joins over the wire, then relays with its own recorder.
    let member_ep = TcpEndpoint::bind(MEMBER, "127.0.0.1:0").unwrap();
    member_ep.connect(HEAD, head_addr).unwrap();
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
    member_rt
        .join_network(&collection(100), Duration::from_secs(30))
        .expect("member joins");
    let member_thread = std::thread::spawn(move || member_rt.serve_until_shutdown());

    // Build + join noise stays out of the streams under study.
    let _ = head_ring.drain();
    let _ = member_ring.drain();

    // The relayed, traced query: client -> member -> head.
    let client_ep = TcpEndpoint::bind(99, "127.0.0.1:0").unwrap();
    client_ep.connect(MEMBER, member_addr).unwrap();
    let client = Client::new(client_ep, MEMBER).with_trace(TraceCtx {
        trace_id: TRACE_ID,
        parent_span: 0,
    });
    let q = data[0].row(0).to_vec();
    let (items, _) = client.query(&q, 0.2, None).expect("relayed query");
    assert!(!items.is_empty(), "stored row must match its own query");

    let head_events = await_serve_end(&head_ring);
    let member_events = await_serve_end(&member_ring);

    // Per-node stats scrapes: the member forwarded one op, the head
    // served it; both windows are live and SLO-clean.
    let member_stats = client.stats().expect("member stats");
    let member_snap = WindowSnapshot::from_json(&JsonValue::parse(&member_stats).unwrap()).unwrap();
    assert_eq!(member_snap.node, MEMBER);
    assert!(member_snap.ops >= 1, "member window must count the relay");
    let head_stop = TcpEndpoint::bind(98, "127.0.0.1:0").unwrap();
    head_stop.connect(HEAD, head_addr).unwrap();
    let head_client = Client::new(head_stop, HEAD);
    let head_stats = head_client.stats().expect("head stats");
    let head_snap = WindowSnapshot::from_json(&JsonValue::parse(&head_stats).unwrap()).unwrap();
    assert_eq!(head_snap.node, HEAD);
    assert!(head_snap.ops >= 1, "head window must count the served op");
    assert_eq!(head_snap.heat.len(), LEVELS);
    assert!(
        head_snap.heat.iter().all(|&h| h >= 1),
        "a range query floods every level: {:?}",
        head_snap.heat
    );
    let cluster = WindowSnapshot::merge(&[member_snap, head_snap]);
    let rules = SloRule::parse_list("failed_routes == 0, rejected == 0, ops >= 2").unwrap();
    let report = SloReport::evaluate(&rules, &cluster);
    assert!(
        report.ok(),
        "healthy cluster breaches SLO: {}",
        report.to_json()
    );

    client.shutdown().expect("member shutdown");
    head_client.shutdown().expect("head shutdown");
    head_thread.join().unwrap().expect("head serve loop");
    member_thread.join().unwrap().expect("member serve loop");

    // Round-trip both streams through the JSONL codec, then stitch.
    let to_jsonl = |events: &[Event]| -> String {
        events
            .iter()
            .map(|e| format!("{}\n", e.to_json_line()))
            .collect()
    };
    let head_parsed = parse_jsonl(&to_jsonl(&head_events)).expect("head JSONL parses");
    let member_parsed = parse_jsonl(&to_jsonl(&member_events)).expect("member JSONL parses");

    // The query serves stitch into one tree; the shutdown serves stay
    // separate roots (untraced frames), so look at the first root.
    let stitched = merge_streams(&[(HEAD, head_parsed), (MEMBER, member_parsed)]);
    let query_roots: Vec<_> = stitched
        .roots
        .iter()
        .map(|&r| &stitched.spans[r])
        .filter(|s| s.start.u64_field("ctx_trace").is_some())
        .collect();
    assert_eq!(
        query_roots.len(),
        1,
        "exactly ONE stitched tree for the traced query:\n{}",
        stitched.render()
    );
    let root = query_roots[0];
    assert_eq!(root.name, Name::Serve);
    assert_eq!(root.start.u64_field("node"), Some(MEMBER));
    assert_eq!(root.start.u64_field("ctx_trace"), Some(TRACE_ID));
    let head_serve = root
        .children
        .iter()
        .map(|&c| &stitched.spans[c])
        .find(|s| s.name == Name::Serve)
        .expect("head serve span nested under the member's serve span");
    assert_eq!(head_serve.start.u64_field("node"), Some(HEAD));
    assert_eq!(head_serve.start.u64_field("ctx_trace"), Some(TRACE_ID));
    assert!(
        head_serve
            .children
            .iter()
            .any(|&c| stitched.spans[c].name == Name::Query),
        "overlay query span parents under the head's serve span:\n{}",
        stitched.render()
    );
}
