//! Loopback cluster integration tests: a head runtime serving real
//! client traffic over the in-memory and TCP transports.
//!
//! The shape mirrors the paper's deployment story — one head owning the
//! overlay network, members joining over the wire and relaying client
//! requests — and asserts the no-false-dismissal contract end to end:
//! range queries served over frames have recall 1.0 against brute-force
//! ground truth computed from the same seeded collections.

use hyperm_can::codec::kind;
use hyperm_cluster::Dataset;
use hyperm_core::{HypermConfig, HypermNetwork};
use hyperm_datagen::{generate_aloi_like, AloiConfig};
use hyperm_transport::{
    Client, MemHub, NodeRuntime, RequestPolicy, Role, TcpEndpoint, Transport, TransportError,
};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const DIM: usize = 16;
const ITEMS: usize = 20;
const SEED: u64 = 11;

/// One peer's collection, disjoint per slot.
fn collection(slot: u64) -> Dataset {
    let corpus = generate_aloi_like(&AloiConfig {
        classes: 1,
        views_per_class: ITEMS,
        bins: DIM,
        view_jitter: 0.15,
        seed: SEED.wrapping_add(slot),
    });
    corpus.data
}

fn config() -> HypermConfig {
    HypermConfig::new(DIM)
        .with_levels(3)
        .with_clusters_per_peer(4)
        .with_seed(SEED)
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Brute-force ground truth: `(peer, index)` of every item within `eps`
/// of `q` across the given collections (dead peers pass `None`).
fn truth(collections: &[Option<&Dataset>], q: &[f64], eps: f64) -> BTreeSet<(u64, u64)> {
    let e2 = eps * eps;
    let mut out = BTreeSet::new();
    for (p, ds) in collections.iter().enumerate() {
        let Some(ds) = ds else { continue };
        for i in 0..ds.len() {
            if sq_dist(ds.row(i), q) <= e2 {
                out.insert((p as u64, i as u64));
            }
        }
    }
    out
}

fn assert_recall_one(got: &[(u64, u64)], want: &BTreeSet<(u64, u64)>) {
    let got: BTreeSet<(u64, u64)> = got.iter().copied().collect();
    for t in want {
        assert!(
            got.contains(t),
            "false dismissal over the wire: truth item {t:?} missing from {got:?}"
        );
    }
}

/// In-memory cluster: put/get/query through `Client` frames, recall 1.0
/// against brute force, then a clean protocol shutdown.
#[test]
fn mem_cluster_serves_put_get_query_with_full_recall() {
    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (net, _) = HypermNetwork::build(data.clone(), config()).unwrap();
    let level0_dim = net.overlay(0).dim(); // subspace width, not DIM

    let hub = MemHub::new(256);
    let mut runtime = NodeRuntime::new(hub.endpoint(0), Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || runtime.serve_until_shutdown());

    let client = Client::new(hub.endpoint(50), 0);

    // Range queries centred on known rows: recall must be 1.0.
    let eps = 0.25;
    for (peer, row) in [(0usize, 0usize), (1, 5), (3, ITEMS - 1)] {
        let q = data[peer].row(row).to_vec();
        let (items, (hops, messages, _bytes)) = client.query(&q, eps, None).unwrap();
        let refs: Vec<Option<&Dataset>> = data.iter().map(Some).collect();
        let want = truth(&refs, &q, eps);
        assert!(want.contains(&(peer as u64, row as u64)));
        assert_recall_one(&items, &want);
        assert!(messages > 0 && hops > 0, "query must charge simulated cost");
    }

    // Put a fresh item, then find it again through the overlay.
    let new_item: Vec<f64> = collection(900).row(0).to_vec();
    let index = client.put(2, &new_item, true).unwrap();
    assert_eq!(index, ITEMS as u64, "appended after the seed collection");
    let (items, _) = client.query(&new_item, 0.05, None).unwrap();
    assert!(
        items.contains(&(2, index)),
        "freshly put item must be retrievable: got {items:?}"
    );

    // Get: level-0 summary spheres covering a key are served verbatim.
    let key = vec![0.5; level0_dim];
    let objects = client.get(0, &key).unwrap();
    for o in &objects {
        assert_eq!(o.centre.len(), level0_dim);
        assert!(o.radius >= 0.0);
    }

    // Monitor reports the head role and all four overlay nodes.
    let json = client.monitor().unwrap();
    assert!(json.contains("\"role\": \"head\""), "monitor json: {json}");
    assert!(json.contains("\"members\": 4"), "monitor json: {json}");

    client.shutdown().unwrap();
    head.join().unwrap().unwrap();
}

/// TCP loopback cluster in the chordht shape: a member node joins the
/// overlay *after* a peer failure, its keys and summaries transfer, and
/// a client pointed at the member gets recall 1.0 through forwarding.
#[test]
fn tcp_cluster_member_joins_after_failure_with_full_recall() {
    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (mut net, _) = HypermNetwork::build(data.clone(), config()).unwrap();

    // The failure: peer 1 crashes before the member joins. Zone takeover
    // plus soft-state summary refresh is the documented repair story —
    // survivors republish so their keys stay reachable afterwards.
    net.crash_peer(1, true);
    assert!(!net.is_alive(1));
    net.repair_overlays(4);
    for p in [0, 2, 3] {
        net.refresh_peer_summaries(p);
    }

    let head_ep = TcpEndpoint::bind(0, "127.0.0.1:0").unwrap();
    let head_addr = head_ep.local_addr();
    let mut head_rt = NodeRuntime::new(head_ep, Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || head_rt.serve_until_shutdown());

    // The member joins over the wire with its own collection.
    let member_data = collection(1000);
    let member_ep = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
    let member_addr = member_ep.local_addr();
    member_ep.connect(0, head_addr).unwrap();
    let mut member_rt = NodeRuntime::new(
        member_ep,
        Role::Member {
            head: 0,
            peer: None,
        },
    );
    let joined = member_rt
        .join_network(&member_data, Duration::from_secs(30))
        .unwrap();
    assert_eq!(joined, 4, "member becomes overlay peer 4");
    let member = std::thread::spawn(move || member_rt.serve_until_shutdown());

    // Client speaks to the MEMBER; every request is forwarded to the head.
    let client_ep = TcpEndpoint::bind(77, "127.0.0.1:0").unwrap();
    client_ep.connect(1, member_addr).unwrap();
    let client = Client::new(client_ep, 1);

    // Ground truth spans the surviving seed peers plus the member's
    // collection as overlay peer 4; the crashed peer's items are gone.
    let collections: Vec<Option<&Dataset>> = vec![
        Some(&data[0]),
        None, // crashed
        Some(&data[2]),
        Some(&data[3]),
        Some(&member_data),
    ];

    let eps = 0.25;
    for q in [
        member_data.row(0).to_vec(),
        member_data.row(ITEMS - 1).to_vec(),
        data[3].row(2).to_vec(),
    ] {
        let (items, _) = client.query(&q, eps, None).unwrap();
        let want = truth(&collections, &q, eps);
        assert!(!want.is_empty());
        assert_recall_one(&items, &want);
    }

    // The member's keys specifically are findable: its summaries made it
    // into the overlays via the Join frame.
    let q = member_data.row(3).to_vec();
    let (items, _) = client.query(&q, 0.05, None).unwrap();
    assert!(
        items.contains(&(4, 3)),
        "member item must be retrievable after joining: got {items:?}"
    );

    // Monitor through the member reports the head's live overlay state.
    let monitor_ep = TcpEndpoint::bind(78, "127.0.0.1:0").unwrap();
    monitor_ep.connect(0, head_addr).unwrap();
    let monitor = Client::new(monitor_ep, 0);
    let json = monitor.monitor().unwrap();
    assert!(json.contains("\"members\": 5"), "monitor json: {json}");
    assert!(json.contains("\"alive\""), "monitor json: {json}");

    // Clean protocol shutdown: member first, then the head.
    client.shutdown().unwrap();
    member.join().unwrap().unwrap();
    monitor.shutdown().unwrap();
    head.join().unwrap().unwrap();
}

/// A small request/reply pair on one long-lived connection must cost
/// what loopback costs (tens of µs), not a Nagle hold plus a delayed ACK
/// each way (~88 ms a round trip when a frame left as three writes on a
/// socket without `TCP_NODELAY`: 200 trips took ≈ 17 s, now ≈ 4 ms).
#[test]
fn tcp_round_trips_do_not_wait_on_delayed_acks() {
    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (net, _) = HypermNetwork::build(data, config()).unwrap();
    let key = vec![0.5; net.overlay(0).dim()];

    let head_ep = TcpEndpoint::bind(0, "127.0.0.1:0").unwrap();
    let head_addr = head_ep.local_addr();
    let mut head_rt = NodeRuntime::new(head_ep, Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || head_rt.serve_until_shutdown());

    let client_ep = TcpEndpoint::bind(77, "127.0.0.1:0").unwrap();
    client_ep.connect(0, head_addr).unwrap();
    let client = Client::new(client_ep, 0);

    let owner = client.route(0, &key).unwrap();
    let started = Instant::now();
    for _ in 0..200 {
        assert_eq!(client.route(0, &key).unwrap(), owner);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "200 round trips took {took:?}"
    );

    client.shutdown().unwrap();
    head.join().unwrap().unwrap();
}

/// A request whose body does not decode (here a `Query` whose radius
/// bytes say −1, which the codec refuses) is answered with the runtime's
/// refusal on its own `req_id`, and the connection is kept: a well-formed
/// query on the same socket is answered next.
#[test]
fn tcp_refuses_an_undecodable_request_and_keeps_the_connection() {
    use hyperm_can::Message;
    use hyperm_telemetry::TraceCtx;
    use hyperm_transport::{read_frame, write_frame, HEADER_LEN};
    use std::io::Write;
    use std::net::TcpStream;

    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (net, _) = HypermNetwork::build(data.clone(), config()).unwrap();
    let head_ep = TcpEndpoint::bind(0, "127.0.0.1:0").unwrap();
    let head_addr = head_ep.local_addr();
    let mut head_rt = NodeRuntime::new(head_ep, Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || head_rt.serve_until_shutdown());

    let mut socket = TcpStream::connect(head_addr).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    write_frame(&mut socket, 0, &Message::Hello { peer: 77 }).unwrap();
    let query = Message::Query {
        centre: data[2].row(0).to_vec(),
        eps: 0.05,
        budget: u32::MAX,
        ctx: TraceCtx::NONE,
    };

    // header | kind u8 | centre count u16 | DIM coordinates | eps f64 | …
    let mut frame = Vec::new();
    write_frame(&mut frame, 41, &query).unwrap();
    let eps_at = HEADER_LEN + 1 + 2 + 8 * DIM;
    frame[eps_at..eps_at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
    socket.write_all(&frame).unwrap();
    let refused = Message::Ack {
        seq: u64::from(kind::QUERY_ACK),
        ok: false,
    };
    assert_eq!(read_frame(&mut socket).unwrap(), (41, refused));

    write_frame(&mut socket, 42, &query).unwrap();
    let (req_id, reply) = read_frame(&mut socket).unwrap();
    assert_eq!(req_id, 42);
    let Message::QueryAck { items, .. } = reply else {
        panic!("expected a query answer, got {reply:?}");
    };
    assert!(items.contains(&(2, 0)), "got {items:?}");

    write_frame(&mut socket, 43, &Message::Shutdown).unwrap();
    head.join().unwrap().unwrap();
}

/// Which requests the client resends is the protocol's call
/// (`kind::IDEMPOTENT`): against a peer that never answers, a `Get`
/// leaves `policy.attempts` times, a `Put` — whose first copy may have
/// landed — exactly once.
#[test]
fn only_idempotent_requests_are_resent_to_a_silent_peer() {
    let hub = MemHub::new(16);
    let silent = hub.endpoint(0);
    let policy = RequestPolicy {
        timeout: Duration::from_millis(20),
        attempts: 3,
        retry_tick: Duration::from_millis(1),
        ..RequestPolicy::default()
    };
    let client = Client::new(hub.endpoint(7), 0).with_config(policy);
    let arrivals = || {
        let mut kinds = Vec::new();
        while let Ok(env) = silent.recv_timeout(Duration::from_millis(1)) {
            kinds.push(env.msg.kind());
        }
        kinds
    };

    assert_eq!(client.get(0, &[0.5]), Err(TransportError::Timeout));
    assert_eq!(arrivals(), [kind::GET; 3]);
    assert_eq!(client.put(0, &[0.5], true), Err(TransportError::Timeout));
    assert_eq!(arrivals(), [kind::PUT]);
}
