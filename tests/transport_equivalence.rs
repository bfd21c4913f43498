//! Transport-extraction equivalence: serving the protocol through a
//! [`Transport`] must be invisible. A network driven over `MemHub`
//! frames (each one encoded and decoded by the wire codec) returns
//! bit-identical query results, identical simulated `OpStats`, and a
//! byte-identical telemetry event stream compared with calling the same
//! public entry points directly.
//!
//! This is the contract that makes the `Transport` trait a pure
//! extraction rather than a behaviour change: the head runtime serves
//! `Query`/`Put`/`Get` by calling exactly the entry points a direct
//! caller uses, and its own tracing goes to a *separate* recorder.

use hyperm::datagen::{generate_aloi_like, AloiConfig};
use hyperm::telemetry::{Event, Recorder, TraceCtx};
use hyperm::transport::{MemEndpoint, MemHub, NodeRuntime, Role, ServeOutcome, Transport};
use hyperm::{Dataset, HypermConfig, HypermNetwork, InsertPolicy, Message, StoredObject};
use std::time::Duration;

const DIM: usize = 32;
const LEVELS: usize = 4;
const SEED: u64 = 7;
const CLIENT: u64 = 99;

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

/// The shared workload: query points and the item inserted mid-run.
fn workload(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let data = peers(seed);
    let queries = vec![
        data[3].row(0).to_vec(),
        data[7].row(2).to_vec(),
        data[0].row(5).to_vec(),
    ];
    let item = data[5].row(1).to_vec();
    (queries, item)
}

/// One range-query outcome in wire units, so both runs compare exactly.
type QueryOut = (Vec<(u64, u64)>, u64, u64, u64);

struct RunOut {
    queries: Vec<QueryOut>,
    put_index: u64,
    get_objects: Vec<StoredObject>,
    events: Vec<Event>,
}

/// Direct run: call the network's public entry points in-process.
fn direct_run(seed: u64) -> RunOut {
    let (rec, ring) = Recorder::ring(1 << 16);
    let (mut net, _) = HypermNetwork::build_traced(peers(seed), config(seed), rec).unwrap();
    let (qs, item) = workload(seed);

    let mut queries = Vec::new();
    for q in &qs {
        let res = net.range_query(0, q, 0.2, None);
        queries.push((
            res.items
                .iter()
                .map(|&(p, i)| (p as u64, i as u64))
                .collect(),
            res.stats.hops,
            res.stats.messages,
            res.stats.bytes,
        ));
    }

    let put_index = net.peer(5).items.len() as u64;
    net.insert_item(5, &item, InsertPolicy::Republish);

    let res = net.range_query(0, &item, 0.1, None);
    queries.push((
        res.items
            .iter()
            .map(|&(p, i)| (p as u64, i as u64))
            .collect(),
        res.stats.hops,
        res.stats.messages,
        res.stats.bytes,
    ));

    let key = vec![0.5; net.overlay(0).dim()];
    let (get_objects, _) = net.overlay(0).point_lookup(hyperm::NodeId(0), &key);

    assert_eq!(ring.dropped(), 0, "ring must be large enough for the run");
    RunOut {
        queries,
        put_index,
        get_objects,
        events: ring.events(),
    }
}

/// Send one request frame and serve it; the reply must come straight back.
fn ask(client: &MemEndpoint, runtime: &mut NodeRuntime<MemEndpoint>, msg: Message) -> Message {
    client.send(0, &msg).expect("client frame accepted");
    let outcome = runtime.serve_one(Duration::ZERO).expect("head serves");
    assert_eq!(outcome, ServeOutcome::Handled);
    let envelope = client
        .recv_timeout(Duration::ZERO)
        .expect("reply frame delivered");
    assert_eq!(envelope.from, 0, "reply stamped with the head's id");
    envelope.msg
}

/// Transported run: the identical network served over `MemHub` frames.
/// The runtime's recorder is disabled so only the network's own tracing
/// (the stream under comparison) reaches the ring.
fn transported_run(seed: u64) -> RunOut {
    let (rec, ring) = Recorder::ring(1 << 16);
    let (net, _) = HypermNetwork::build_traced(peers(seed), config(seed), rec).unwrap();
    let (qs, item) = workload(seed);

    let hub = MemHub::new(64);
    let mut runtime = NodeRuntime::new(hub.endpoint(0), Role::Head(Box::new(net)))
        .with_recorder(Recorder::disabled());
    let client = hub.endpoint(CLIENT);

    let unpack = |msg: Message| -> QueryOut {
        match msg {
            Message::QueryAck {
                items,
                hops,
                messages,
                bytes,
            } => (items, hops, messages, bytes),
            other => panic!("expected QueryAck, got {}", other.kind_name()),
        }
    };

    let mut queries = Vec::new();
    for q in &qs {
        let reply = ask(
            &client,
            &mut runtime,
            Message::Query {
                centre: q.clone(),
                eps: 0.2,
                budget: u32::MAX,
                // A live trace context on the wire: the serving network's
                // recorder is what's under comparison, and a traced frame
                // must not perturb its stream.
                ctx: TraceCtx {
                    trace_id: 0xFEED,
                    parent_span: 42,
                },
            },
        );
        queries.push(unpack(reply));
    }

    let reply = ask(
        &client,
        &mut runtime,
        Message::Put {
            peer: 5,
            item: item.clone(),
            republish: true,
        },
    );
    let put_index = match reply {
        Message::PutAck { peer: 5, index } => index,
        other => panic!("expected PutAck, got {}", other.kind_name()),
    };

    let reply = ask(
        &client,
        &mut runtime,
        Message::Query {
            centre: item.clone(),
            eps: 0.1,
            budget: u32::MAX,
            ctx: TraceCtx {
                trace_id: 0xFEED,
                parent_span: 43,
            },
        },
    );
    queries.push(unpack(reply));

    let dim = runtime.network().unwrap().overlay(0).dim();
    let reply = ask(
        &client,
        &mut runtime,
        Message::Get {
            level: 0,
            key: vec![0.5; dim],
        },
    );
    let get_objects = match reply {
        Message::GetAck { level: 0, objects } => objects,
        other => panic!("expected GetAck, got {}", other.kind_name()),
    };

    assert_eq!(ring.dropped(), 0, "ring must be large enough for the run");
    RunOut {
        queries,
        put_index,
        get_objects,
        events: ring.events(),
    }
}

#[test]
fn sim_transport_is_bit_identical_to_direct_calls() {
    let direct = direct_run(SEED);
    let transported = transported_run(SEED);

    assert!(!direct.queries.is_empty());
    assert_eq!(
        direct.queries, transported.queries,
        "query items and OpStats must match exactly over the wire"
    );
    assert_eq!(direct.put_index, transported.put_index);
    assert_eq!(
        direct.get_objects.len(),
        transported.get_objects.len(),
        "point-lookup result set must match"
    );
    for (a, b) in direct.get_objects.iter().zip(&transported.get_objects) {
        assert_eq!(a.centre, b.centre);
        assert_eq!(a.radius.to_bits(), b.radius.to_bits());
        assert_eq!(a.payload.peer, b.payload.peer);
        assert_eq!(a.payload.tag, b.payload.tag);
        assert_eq!(a.payload.items, b.payload.items);
    }

    assert!(!direct.events.is_empty(), "traced build must emit events");
    assert_eq!(
        direct.events, transported.events,
        "the network's telemetry stream must be byte-identical: transport \
         tracing goes to a separate recorder and must not perturb it"
    );
}

/// Invalid frames are answered with a failure `Ack`, never a panic, and
/// leave the network untouched (subsequent queries still match).
#[test]
fn head_rejects_invalid_requests_without_perturbing_state() {
    let (net, _) = HypermNetwork::build(peers(SEED), config(SEED)).unwrap();
    let hub = MemHub::new(64);
    let mut runtime = NodeRuntime::new(hub.endpoint(0), Role::Head(Box::new(net)));
    let client = hub.endpoint(CLIENT);

    let bad = vec![
        Message::Query {
            centre: vec![0.1; DIM - 1], // wrong dimensionality
            eps: 0.2,
            budget: u32::MAX,
            ctx: TraceCtx::NONE,
        },
        Message::Put {
            peer: 10_000, // no such peer
            item: vec![0.1; DIM],
            republish: false,
        },
        Message::Get {
            level: 200, // no such level
            key: vec![0.5; DIM],
        },
    ];
    for msg in bad {
        let expect = Message::reply_kind_of(msg.kind()).unwrap();
        let reply = ask(&client, &mut runtime, msg);
        match reply {
            Message::Ack { seq, ok } => {
                assert_eq!(seq, u64::from(expect));
                assert!(!ok);
            }
            other => panic!("expected failure Ack, got {}", other.kind_name()),
        }
    }

    // The overlay still answers correctly after the hostile frames.
    let q = peers(SEED)[3].row(0).to_vec();
    let reply = ask(
        &client,
        &mut runtime,
        Message::Query {
            centre: q,
            eps: 0.2,
            budget: u32::MAX,
            ctx: TraceCtx::NONE,
        },
    );
    assert!(matches!(reply, Message::QueryAck { .. }));
}
