//! Live-cluster fault tolerance under a chaos transport: the ISSUE 9
//! acceptance bar.
//!
//! A seeded [`ChaosEndpoint`] perturbs the client↔head link (drops,
//! forced disconnects) while the retry/correlation machinery keeps the
//! cluster's answers exact:
//!
//! * head-side request drops: the client retries under backoff and range
//!   recall returns to 1.0;
//! * a member crash + restart re-`Join`s through the normal join path
//!   and resolves to its **same** overlay peer id (idempotent rejoin),
//!   with its keys still fully retrievable;
//! * a forced-disconnect storm (every other frame errors) is absorbed by
//!   resends — recall stays 1.0;
//! * a late reply to a timed-out attempt is **discarded** (`stale_reply`
//!   telemetry), never returned to the next request — asserted on raw
//!   `req_id`s;
//! * `Duration::ZERO` timeouts clamp to a minimum tick instead of
//!   refusing replies that are already queued.

use hyperm::datagen::{generate_aloi_like, AloiConfig};
use hyperm::telemetry::{JsonValue, Name, Recorder, TraceCtx};
use hyperm::transport::{MemEndpoint, ServeOutcome, Transport, TransportError};
use hyperm::{
    Backoff, ChaosConfig, ChaosEndpoint, Client, Dataset, HypermConfig, HypermNetwork, MemHub,
    Message, NodeRuntime, RequestPolicy, Role,
};
use std::collections::BTreeSet;
use std::time::Duration;

const DIM: usize = 16;
const ITEMS: usize = 20;
const SEED: u64 = 11;
const EPS: f64 = 0.25;

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

/// Brute-force `(peer, index)` truth within `eps` of `q`.
fn truth(collections: &[&Dataset], q: &[f64], eps: f64) -> BTreeSet<(u64, u64)> {
    let e2 = eps * eps;
    let mut out = BTreeSet::new();
    for (p, ds) in collections.iter().enumerate() {
        for i in 0..ds.len() {
            if sq_dist(ds.row(i), q) <= e2 {
                out.insert((p as u64, i as u64));
            }
        }
    }
    out
}

/// Recall of `got` against `want` (1.0 when nothing is missing).
fn recall(got: &[(u64, u64)], want: &BTreeSet<(u64, u64)>) -> f64 {
    if want.is_empty() {
        return 1.0;
    }
    let got: BTreeSet<(u64, u64)> = got.iter().copied().collect();
    let hit = want.iter().filter(|t| got.contains(t)).count();
    hit as f64 / want.len() as f64
}

/// A retrying client with telemetry, short per-attempt timeouts tuned
/// for chaos scenarios.
fn chaos_client(
    transport: ChaosEndpoint<MemEndpoint>,
    rec: Recorder,
) -> Client<ChaosEndpoint<MemEndpoint>> {
    Client::new(transport, 0)
        .with_config(RequestPolicy {
            timeout: Duration::from_millis(150),
            attempts: 6,
            backoff: Backoff::exponential(1, 4),
            retry_tick: Duration::from_millis(5),
        })
        .with_recorder(rec)
}

struct ScenarioOutcome {
    name: &'static str,
    recall_final: f64,
    queries: u64,
    gave_up: u64,
}

/// Head-side drop chaos: 40% of client→head frames vanish; retries must
/// bring recall back to exactly 1.0.
fn scenario_head_drops() -> ScenarioOutcome {
    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (net, _) = HypermNetwork::build(data.clone(), config()).unwrap();
    let hub = MemHub::new(256);
    let mut head_rt = NodeRuntime::new(hub.endpoint(0), Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || head_rt.serve_until_shutdown());

    let (rec, _ring) = Recorder::ring(1 << 12);
    let chaos = ChaosEndpoint::new(hub.endpoint(50), ChaosConfig::quiet(42).with_drop(400));
    let client = chaos_client(chaos, rec.clone());

    let refs: Vec<&Dataset> = data.iter().collect();
    let mut total_recall = 0.0;
    let probes = [
        (0usize, 0usize),
        (1, 5),
        (2, 9),
        (3, ITEMS - 1),
        (0, 7),
        (2, 3),
    ];
    for (peer, row) in probes {
        let q = data[peer].row(row).to_vec();
        let (items, _) = client.query(&q, EPS, None).unwrap();
        total_recall += recall(&items, &truth(&refs, &q, EPS));
    }
    let metrics = rec.metrics().unwrap();
    let retries = metrics.counter(Name::Retry);
    let gave_up = metrics.counter(Name::GaveUp);
    assert!(
        retries > 0,
        "a 40% seeded drop rate over {} requests must force at least one retry",
        probes.len()
    );
    assert_eq!(gave_up, 0, "no query may exhaust its retry budget");
    assert!(
        client.stats().is_ok(),
        "the cluster stays scrapeable under drop chaos"
    );

    // Shut down over a clean (unchaosed) control endpoint: `Shutdown`
    // is not resendable, so it must not race the drop schedule.
    Client::new(hub.endpoint(60), 0).shutdown().unwrap();
    head.join().unwrap().unwrap();
    ScenarioOutcome {
        name: "head_drops",
        recall_final: total_recall / probes.len() as f64,
        queries: probes.len() as u64,
        gave_up,
    }
}

/// Member crash + restart: the repeat `Join` from the same transport
/// peer resolves to the same overlay id and its keys stay retrievable.
fn scenario_member_crash_rejoin() -> ScenarioOutcome {
    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (net, _) = HypermNetwork::build(data.clone(), config()).unwrap();
    let hub = MemHub::new(256);
    let mut head_rt = NodeRuntime::new(hub.endpoint(0), Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || head_rt.serve_until_shutdown());

    let member_data = collection(1000);
    let mut member = NodeRuntime::new(
        hub.endpoint(1),
        Role::Member {
            head: 0,
            peer: None,
        },
    );
    let joined = member
        .join_network(&member_data, Duration::from_secs(30))
        .unwrap();
    assert_eq!(joined, 4, "member becomes overlay peer 4");

    let client = Client::new(hub.endpoint(50), 0);
    let q = member_data.row(3).to_vec();
    let (items, _) = client.query(&q, 0.05, None).unwrap();
    assert!(items.contains(&(4, 3)), "member item reachable pre-crash");

    // Crash: the runtime dies without any goodbye (kill -9 shape); its
    // inbox is orphaned on the hub.
    drop(member);

    // Restart under the same transport id and rejoin through the normal
    // join path: same overlay peer comes back, no duplicate admission.
    let mut reborn = NodeRuntime::new(
        hub.endpoint(1),
        Role::Member {
            head: 0,
            peer: None,
        },
    );
    let rejoined = reborn
        .join_network(&member_data, Duration::from_secs(30))
        .unwrap();
    assert_eq!(
        rejoined, joined,
        "crash-rejoin must resolve to the same overlay peer"
    );
    let monitor = client.monitor().unwrap();
    assert!(
        monitor.contains("\"members\": 5"),
        "rejoin must not admit a duplicate member: {monitor}"
    );

    let refs: Vec<&Dataset> = data.iter().chain([&member_data]).collect();
    let mut total_recall = 0.0;
    let probes = [(4usize, 3usize), (4, ITEMS - 1), (0, 0), (3, 2)];
    for (peer, row) in probes {
        let q = refs[peer].row(row).to_vec();
        let (items, _) = client.query(&q, EPS, None).unwrap();
        total_recall += recall(&items, &truth(&refs, &q, EPS));
    }

    client.shutdown().unwrap();
    head.join().unwrap().unwrap();
    ScenarioOutcome {
        name: "member_crash_rejoin",
        recall_final: total_recall / probes.len() as f64,
        queries: probes.len() as u64,
        gave_up: 0,
    }
}

/// Forced-disconnect storm: every other client→head frame fails with a
/// truncate-disconnect error; resends absorb all of it.
fn scenario_disconnect_storm() -> ScenarioOutcome {
    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (net, _) = HypermNetwork::build(data.clone(), config()).unwrap();
    let hub = MemHub::new(256);
    let mut head_rt = NodeRuntime::new(hub.endpoint(0), Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || head_rt.serve_until_shutdown());

    let (rec, _ring) = Recorder::ring(1 << 12);
    let chaos = ChaosEndpoint::new(
        hub.endpoint(50),
        ChaosConfig::quiet(7).with_disconnect_every(2),
    );
    let client = chaos_client(chaos, rec.clone());

    let refs: Vec<&Dataset> = data.iter().collect();
    let mut total_recall = 0.0;
    let probes = [(0usize, 1usize), (1, 8), (2, 15), (3, 4), (1, 0), (3, 19)];
    for (peer, row) in probes {
        let q = data[peer].row(row).to_vec();
        let (items, _) = client.query(&q, EPS, None).unwrap();
        total_recall += recall(&items, &truth(&refs, &q, EPS));
    }
    let disconnects = client.transport().stats().disconnects;
    assert!(disconnects > 0, "the storm must actually fire");
    let metrics = rec.metrics().unwrap();
    let retries = metrics.counter(Name::Retry);
    assert!(retries > 0, "disconnected sends must be retried");

    Client::new(hub.endpoint(60), 0).shutdown().unwrap();
    head.join().unwrap().unwrap();
    ScenarioOutcome {
        name: "disconnect_storm",
        recall_final: total_recall / probes.len() as f64,
        queries: probes.len() as u64,
        gave_up: metrics.counter(Name::GaveUp),
    }
}

/// Drive the timed-out-then-answered race with a scripted responder and
/// return `(stale_discarded, stale_returned)`: the late reply to attempt
/// one must be counted and dropped, never handed to attempt two.
fn stale_reply_probe() -> (u64, u64) {
    let hub = MemHub::new(64);
    let node = hub.endpoint(0);
    let (rec, _ring) = Recorder::ring(1 << 10);
    let client = Client::new(hub.endpoint(77), 0)
        .with_config(RequestPolicy {
            timeout: Duration::from_millis(60),
            attempts: 3,
            backoff: Backoff::exponential(1, 1),
            retry_tick: Duration::from_millis(1),
        })
        .with_recorder(rec.clone());

    let responder = std::thread::spawn(move || {
        // Attempt one arrives; stay silent so the client times it out.
        let first = node.recv_timeout(Duration::from_secs(5)).unwrap();
        // Attempt two is the resend, under a fresh correlation tag.
        let second = node.recv_timeout(Duration::from_secs(5)).unwrap();
        // Now answer attempt ONE (late — the client gave up on it), with
        // a poisoned payload, then attempt two with the real one.
        node.send_tagged(77, first.req_id, &query_ack(POISON))
            .unwrap();
        node.send_tagged(77, second.req_id, &query_ack(REAL))
            .unwrap();
        (first.req_id, second.req_id, first.msg, second.msg)
    });

    let (items, _) = client.query(&[0.5; 4], 0.1, None).unwrap();
    let (id1, id2, msg1, msg2) = responder.join().unwrap();
    assert_ne!(id1, 0, "request attempts must carry a non-zero req_id");
    assert_ne!(id2, 0, "request attempts must carry a non-zero req_id");
    assert_ne!(id1, id2, "each attempt must get a fresh req_id");
    assert_eq!(msg1, msg2, "a resend is the identical idempotent request");

    let stale_returned = u64::from(items == vec![POISON]);
    assert_eq!(
        items,
        vec![REAL],
        "the late reply to a timed-out attempt must never be returned"
    );
    let metrics = rec.metrics().unwrap();
    assert!(
        metrics.counter(Name::StaleReply) >= 1,
        "the discarded late reply must be counted as stale_reply"
    );
    assert_eq!(metrics.counter(Name::Retry), 1, "exactly one resend");
    (metrics.counter(Name::StaleReply), stale_returned)
}

/// The three chaos scenarios each answer every query with full recall
/// and no exhausted retry budget, and the stale-reply probe never hands a
/// late reply to a later request.
#[test]
fn chaos_scenarios_recover_full_recall() {
    for s in [
        scenario_head_drops(),
        scenario_member_crash_rejoin(),
        scenario_disconnect_storm(),
    ] {
        assert!(s.queries > 0, "scenario {} must run queries", s.name);
        assert_eq!(
            s.recall_final, 1.0,
            "scenario {} must recover full recall",
            s.name
        );
        assert_eq!(
            s.gave_up, 0,
            "scenario {}: no request may exhaust its retry budget",
            s.name
        );
    }
    let (_, stale_returned) = stale_reply_probe();
    assert_eq!(stale_returned, 0, "a stale reply was returned");
}

/// Satellite regression: the reply mis-correlation race in isolation.
#[test]
fn late_reply_to_timed_out_request_is_discarded() {
    let (discarded, returned) = stale_reply_probe();
    assert!(discarded >= 1);
    assert_eq!(returned, 0);
}

/// What the scripted head does with the nth frame of a request.
#[derive(Clone, Copy)]
enum On {
    /// Nothing: the attempt times out.
    Silent,
    /// Answers this frame's tag with the real payload.
    Answer,
    /// Answers this frame's tag with a failure ack.
    Refuse,
    /// Answers the *previous* frame's tag with a poisoned payload (a late
    /// reply to an attempt that already timed out), then this frame's
    /// with the real one.
    LateThenAnswer,
}

/// One row of the request-path table.
struct Row {
    name: &'static str,
    /// Send a `Put` (one attempt whatever the policy) instead of a
    /// resendable `Query`.
    put: bool,
    /// The scripted head's reaction to each frame, in arrival order; it
    /// must receive exactly this many.
    script: &'static [On],
    /// What the client sees, asked directly and through a member: the
    /// real payload, or the error kind. A member turns every failed
    /// forward into a refusal ack, so its client sees `rejected`.
    seen: [Result<(), &'static str>; 2],
    retry: u64,
    stale: bool,
    gave_up: u64,
}

const ATTEMPTS: u32 = 3;
const REAL: (u64, u64) = (1, 1);
const POISON: (u64, u64) = (9, 9);

fn query_ack(item: (u64, u64)) -> Message {
    Message::QueryAck {
        items: vec![item],
        hops: 1,
        messages: 1,
        bytes: 1,
    }
}

/// Play `row` against a scripted head on a raw endpoint — directly, or
/// through a traced `NodeRuntime` member — and check what the client
/// saw, the frames the head received and the telemetry of whichever side
/// did the waiting.
fn play(row: &Row, relayed: bool) {
    let ctx = format!(
        "{} ({})",
        row.name,
        ["direct", "relayed"][usize::from(relayed)]
    );
    let hub = MemHub::new(64);
    let head_ep = hub.endpoint(0);
    let (rec, _ring) = Recorder::ring(1 << 10);
    let waiting = RequestPolicy {
        timeout: Duration::from_millis(150),
        attempts: ATTEMPTS,
        backoff: Backoff::exponential(1, 1),
        retry_tick: Duration::from_millis(1),
    };
    let (client, member) = if relayed {
        let mut member = NodeRuntime::new(
            hub.endpoint(1),
            Role::Member {
                head: 0,
                peer: Some(4),
            },
        )
        .with_recorder(rec.clone());
        member.forward = waiting;
        // The client behind the member only waits: one patient attempt.
        let client = Client::new(hub.endpoint(7), 1).with_config(RequestPolicy {
            attempts: 1,
            ..RequestPolicy::default()
        });
        let served = std::thread::spawn(move || member.serve_one(Duration::from_secs(10)));
        (client, Some(served))
    } else {
        let client = Client::new(hub.endpoint(7), 0)
            .with_config(waiting)
            .with_recorder(rec.clone());
        (client, None)
    };

    let script = row.script;
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let head = std::thread::spawn(move || {
        let mut frames: Vec<(u64, Message)> = Vec::new();
        for on in script {
            let env = head_ep.recv_timeout(Duration::from_secs(10)).unwrap();
            let reply = |tag, msg: &Message| head_ep.send_tagged(env.from, tag, msg).unwrap();
            match on {
                On::Silent => {}
                On::Answer => reply(env.req_id, &query_ack(REAL)),
                On::Refuse => reply(env.req_id, &Message::Ack { seq: 0, ok: false }),
                On::LateThenAnswer => {
                    reply(frames.last().unwrap().0, &query_ack(POISON));
                    reply(env.req_id, &query_ack(REAL));
                }
            }
            frames.push((env.req_id, env.msg));
        }
        // The request is over once the client has its answer: anything
        // it sent is already queued here, so the drain is exact.
        done_rx.recv().unwrap();
        while let Ok(env) = head_ep.recv_timeout(Duration::from_millis(10)) {
            frames.push((env.req_id, env.msg));
        }
        frames
    });

    let seen = if row.put {
        client.put(4, &[0.5; 4], false).map(|_| vec![])
    } else {
        client.query(&[0.5; 4], 0.1, None).map(|(items, _)| items)
    };
    if let Some(served) = member {
        assert_eq!(served.join().unwrap().unwrap(), ServeOutcome::Handled);
    }
    done_tx.send(()).unwrap();
    let frames = head.join().unwrap();

    let want = row.seen[usize::from(relayed)].map(|()| vec![REAL]);
    assert_eq!(
        seen.map_err(|e| e.kind_name()),
        want,
        "{ctx}: client outcome"
    );
    let tags: Vec<u64> = frames.iter().map(|f| f.0).collect();
    assert_eq!(
        tags.len(),
        script.len(),
        "{ctx}: frames at the head {tags:?}"
    );
    assert_eq!(tags[0], 1, "{ctx}: a fresh requester's first tag is 1");
    assert!(
        tags.windows(2).all(|w| w[0] < w[1]),
        "{ctx}: every attempt carries a fresh tag {tags:?}"
    );
    assert!(
        frames.iter().all(|f| f.1 == frames[0].1),
        "{ctx}: a resend is the identical request"
    );
    let metrics = rec.metrics().unwrap();
    assert_eq!(metrics.counter(Name::Retry), row.retry, "{ctx}: retry");
    assert_eq!(metrics.counter(Name::GaveUp), row.gave_up, "{ctx}: gave_up");
    let stale = metrics.counter(Name::StaleReply);
    assert_eq!(stale >= 1, row.stale, "{ctx}: stale_reply {stale}");
}

/// The one request path through both of its callers: every row runs
/// `Client` → scripted head and `Client` → member → scripted head.
#[test]
fn request_path_table_holds_for_client_and_member_forward() {
    let table = [
        Row {
            name: "answered first try",
            put: false,
            script: &[On::Answer],
            seen: [Ok(()), Ok(())],
            retry: 0,
            stale: false,
            gave_up: 0,
        },
        Row {
            name: "silent once then answered",
            put: false,
            script: &[On::Silent, On::Answer],
            seen: [Ok(()), Ok(())],
            retry: 1,
            stale: false,
            gave_up: 0,
        },
        Row {
            name: "late answer to attempt 1 during attempt 2",
            put: false,
            script: &[On::Silent, On::LateThenAnswer],
            seen: [Ok(()), Ok(())],
            retry: 1,
            stale: true,
            gave_up: 0,
        },
        Row {
            name: "refused",
            put: false,
            script: &[On::Refuse],
            seen: [Err("rejected"), Err("rejected")],
            retry: 0,
            stale: false,
            gave_up: 0,
        },
        Row {
            name: "silent throughout a resendable kind",
            put: false,
            script: &[On::Silent; ATTEMPTS as usize],
            seen: [Err("timeout"), Err("rejected")],
            retry: u64::from(ATTEMPTS) - 1,
            stale: false,
            gave_up: 1,
        },
        Row {
            name: "silent throughout Put",
            put: true,
            script: &[On::Silent],
            seen: [Err("timeout"), Err("rejected")],
            retry: 0,
            stale: false,
            gave_up: 0,
        },
    ];
    for row in &table {
        play(row, false);
        play(row, true);
    }
}

/// Bugfix regression: a refusal is not a give-up. A traced member relays
/// a wrong-dimension `Query` to a real head, which refuses it on the
/// first attempt; the member passes the refusal on without resending and
/// without reporting an exhausted retry budget.
#[test]
fn refusal_relayed_by_a_member_is_not_a_give_up() {
    let data: Vec<Dataset> = (0..4).map(collection).collect();
    let (net, _) = HypermNetwork::build(data, config()).unwrap();
    let hub = MemHub::new(64);
    let mut head_rt = NodeRuntime::new(hub.endpoint(0), Role::Head(Box::new(net)));
    let head = std::thread::spawn(move || head_rt.serve_until_shutdown());
    let (rec, _ring) = Recorder::ring(1 << 10);
    let mut member = NodeRuntime::new(
        hub.endpoint(1),
        Role::Member {
            head: 0,
            peer: Some(4),
        },
    )
    .with_recorder(rec.clone());

    let client_ep = hub.endpoint(7);
    client_ep
        .send_tagged(
            1,
            99,
            &Message::Query {
                centre: vec![0.0; DIM + 1],
                eps: 0.1,
                budget: u32::MAX,
                ctx: TraceCtx::NONE,
            },
        )
        .unwrap();
    assert_eq!(
        member.serve_one(Duration::from_secs(5)).unwrap(),
        ServeOutcome::Handled
    );
    let env = client_ep.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(env.req_id, 99, "the refusal echoes the client's tag");
    assert!(
        matches!(env.msg, Message::Ack { ok: false, .. }),
        "a wrong-dimension query is refused: {:?}",
        env.msg
    );
    let metrics = rec.metrics().unwrap();
    assert_eq!(metrics.counter(Name::Retry), 0, "a refusal is not resent");
    assert_eq!(
        metrics.counter(Name::GaveUp),
        0,
        "the head answered on the first attempt: nothing was given up"
    );
    assert_eq!(member.window().snapshot(1, 0).rejected, 1);

    Client::new(hub.endpoint(60), 0).shutdown().unwrap();
    head.join().unwrap().unwrap();
}

/// Satellite regression: a `RequestPolicy::timeout` of zero is clamped to
/// a minimum tick — a reply that is already queued must still be
/// returned, not refused by an instantly-expired deadline.
#[test]
fn zero_client_timeout_is_clamped_to_a_live_tick() {
    let hub = MemHub::new(16);
    let node = hub.endpoint(0);
    let client = Client::new(hub.endpoint(9), 0).with_config(RequestPolicy {
        timeout: Duration::ZERO,
        attempts: 1,
        ..RequestPolicy::default()
    });
    // A fresh client's first attempt is req_id 1: pre-queue its answer.
    node.send_tagged(9, 1, &Message::StatsAck { json: "{}".into() })
        .unwrap();
    assert_eq!(
        client.stats().unwrap(),
        "{}",
        "zero timeout must still drain an already-queued reply"
    );
}

/// Satellite regression: same clamp on the member's `forward.timeout`.
#[test]
fn zero_forward_timeout_is_clamped_to_a_live_tick() {
    let hub = MemHub::new(64);
    let head_ep = hub.endpoint(0);
    let client_ep = hub.endpoint(7);
    let mut member = NodeRuntime::new(
        hub.endpoint(1),
        Role::Member {
            head: 0,
            peer: Some(4),
        },
    );
    member.forward.timeout = Duration::ZERO;
    // The client's request arrives first; the head's answer (for the
    // member's first forward tag, 1) is already queued behind it.
    client_ep
        .send_tagged(
            1,
            99,
            &Message::Query {
                centre: vec![0.0; DIM],
                eps: 0.1,
                budget: u32::MAX,
                ctx: TraceCtx::NONE,
            },
        )
        .unwrap();
    head_ep
        .send_tagged(
            1,
            1,
            &Message::QueryAck {
                items: vec![(2, 3)],
                hops: 1,
                messages: 1,
                bytes: 1,
            },
        )
        .unwrap();
    assert_eq!(
        member.serve_one(Duration::from_secs(1)).unwrap(),
        ServeOutcome::Handled
    );
    let env = client_ep.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(env.req_id, 99, "reply echoes the client's correlation tag");
    assert_eq!(
        env.msg,
        Message::QueryAck {
            items: vec![(2, 3)],
            hops: 1,
            messages: 1,
            bytes: 1,
        },
        "zero forward timeout must still relay the queued head answer"
    );
}

/// The `degraded` verdict a node's stats JSON reports.
fn degraded<T: Transport>(node: &NodeRuntime<T>) -> Option<bool> {
    JsonValue::parse(&node.stats_json())
        .ok()?
        .get("degraded")?
        .as_bool()
}

/// Wire heartbeats: a member whose head goes silent crosses the
/// missed-ping threshold, reports itself degraded (Stats JSON + fast
/// client failure), and recovers the moment the head is heard again.
#[test]
fn member_detects_dead_head_degrades_and_recovers() {
    let hub = MemHub::new(64);
    let (rec, _ring) = Recorder::ring(1 << 10);
    let mut member = NodeRuntime::new(
        hub.endpoint(1),
        Role::Member {
            head: 0,
            peer: Some(4),
        },
    )
    .with_recorder(rec.clone());
    member.missed_ping_threshold = 2;

    // No head endpoint exists: every idle tick's ping goes unanswered.
    for _ in 0..3 {
        assert_eq!(
            member.serve_one(Duration::ZERO).unwrap(),
            ServeOutcome::Idle
        );
    }
    assert!(member.degraded(), "3 missed pings over threshold 2");
    assert_eq!(
        degraded(&member),
        Some(true),
        "stats must carry the liveness verdict: {}",
        member.stats_json()
    );
    let metrics = rec.metrics().unwrap();
    assert_eq!(metrics.counter(Name::PeerDown), 1);

    // A client request against a degraded member fails fast with a
    // refusal ack instead of stalling a forward timeout.
    let client_ep = hub.endpoint(7);
    client_ep
        .send_tagged(
            1,
            5,
            &Message::Query {
                centre: vec![0.0; DIM],
                eps: 0.1,
                budget: u32::MAX,
                ctx: TraceCtx::NONE,
            },
        )
        .unwrap();
    assert_eq!(
        member.serve_one(Duration::from_secs(1)).unwrap(),
        ServeOutcome::Handled
    );
    let env = client_ep.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(env.req_id, 5);
    assert!(
        matches!(env.msg, Message::Ack { ok: false, .. }),
        "degraded member fast-fails: {:?}",
        env.msg
    );

    // The head comes back: one frame clears the degraded state.
    let head_ep = hub.endpoint(0);
    head_ep
        .send_tagged(1, 0, &Message::Pong { seq: 0 })
        .unwrap();
    assert_eq!(
        member.serve_one(Duration::from_secs(1)).unwrap(),
        ServeOutcome::Handled
    );
    assert!(!member.degraded(), "hearing the head heals the member");
    assert_eq!(degraded(&member), Some(false));
    assert_eq!(metrics.counter(Name::Rejoin), 1, "recovery is visible");
    assert!(
        member.monitor_json().contains("\"liveness\""),
        "monitor exposes the liveness table"
    );

    // And pings are answered by any runtime: the member replies Pong
    // echoing the correlation tag.
    head_ep
        .send_tagged(1, 31, &Message::Ping { seq: 8 })
        .unwrap();
    member.serve_one(Duration::from_secs(1)).unwrap();
    let env = head_ep.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(env.req_id, 31);
    assert_eq!(env.msg, Message::Pong { seq: 8 });
    let _ = TransportError::Timeout; // silence unused-import on some cfgs
}
