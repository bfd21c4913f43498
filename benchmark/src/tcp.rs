//! `tcp_query`: the head of the `range_narrow` list again, through
//! `NodeRuntime` + `Client` over the host's loopback interface (no real
//! link is crossed). The library work is the same as in process, so what
//! this adds is codec, framing, socket, mailbox and serve loop.

use crate::measure::closed_loop;
use crate::query::{self, digest_answers, Answer};
use crate::setup::{self, Query, Run, EPS_NARROW};
use crate::stats::median;
use crate::trace::{totals, Tracer};
use crate::Outcome;
use hyperm_can::{decode_message, encode_message, Message};
use hyperm_core::HypermNetwork;
use hyperm_sim::OpStats;
use hyperm_telemetry::TraceCtx;
use hyperm_transport::mem::DEFAULT_INBOX;
use hyperm_transport::{
    frame_len, read_frame, write_frame, Client, MemHub, NodeRuntime, Role, TcpEndpoint, Transport,
    TransportError,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const HEAD: u64 = 0;
const MEMBER: u64 = 1;
const LOOPBACK: &str = "127.0.0.1:0";

type Served = JoinHandle<Result<(), TransportError>>;

fn serve<T: Transport + 'static>(endpoint: T, role: Role) -> Served {
    let mut runtime = NodeRuntime::new(endpoint, role);
    std::thread::spawn(move || runtime.serve_until_shutdown())
}

fn stop<T: Transport>(client: &Client<T>, served: Served) {
    client.shutdown().expect("node acks shutdown");
    served
        .join()
        .expect("serve thread panicked")
        .expect("serve loop ended cleanly");
}

/// A client endpoint `id` connected to node `node` at `addr`.
fn tcp_client(id: u64, node: u64, addr: std::net::SocketAddr) -> Client<TcpEndpoint> {
    let endpoint = TcpEndpoint::bind(id, LOOPBACK).expect("bind client endpoint");
    endpoint.connect(node, addr).expect("connect to node");
    Client::new(endpoint, node)
}

/// What the head answers in process: a client has no overlay presence, so
/// the head enters at its first alive peer.
fn expected(net: &HypermNetwork, qs: &[Query]) -> Vec<Answer> {
    qs.iter()
        .map(|q| {
            let r = net.range_query(0, &q.centre, EPS_NARROW, None);
            Answer::new(&r.items, r.stats, r.truncated)
        })
        .collect()
}

/// One query over the wire, reduced like an in-process answer; `None` when
/// the request failed.
fn ask<T: Transport>(client: &Client<T>, q: &Query) -> (Option<Answer>, Duration) {
    let t = Instant::now();
    let reply = client.query(&q.centre, EPS_NARROW, None);
    let took = t.elapsed();
    let answer = reply.ok().map(|(items, (hops, messages, bytes))| {
        let items: Vec<(usize, usize)> = items
            .iter()
            .map(|&(p, i)| (p as usize, i as usize))
            .collect();
        let stats = OpStats {
            hops,
            messages,
            bytes,
            ..OpStats::zero()
        };
        Answer::new(&items, stats, false)
    });
    (answer, took)
}

pub fn run(run: &Run) -> Outcome {
    let built = query::build(run);
    let qs = setup::queries(
        &built.corpus.peers,
        run.list_len(run.scale.tcp_rate),
        run.seed,
    );
    let want = expected(&built.net, &qs);

    let boot = Instant::now();
    let endpoint = TcpEndpoint::bind(HEAD, LOOPBACK).expect("bind head endpoint");
    let addr = endpoint.local_addr();
    let head = serve(endpoint, Role::Head(Box::new(built.net)));
    let client = tcp_client(1000, HEAD, addr);
    let boot_s = boot.elapsed().as_secs_f64();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = closed_loop(qs.len(), run.seconds, |i| {
        let (answer, took) = ask(&client, &qs[i]);
        attempted += 1;
        failed += u64::from(answer != Some(want[i]));
        took
    });
    stop(&client, head);

    let mut out = Outcome::new(attempted, failed);
    out.digest = digest_answers(&want).value();
    timed.report(&mut out);
    out.set("setup_s", built.setup_s + boot_s);
    // Every wire answer equalled the in-process one, whose recall the
    // range workloads check against the flat scan.
    out.set("recall", if failed == 0 { 1.0 } else { 0.0 });
    out.set_costs(want.iter().map(|a| a.stats).sum(), want.len() as u64);
    out
}

/// Encode/decode/frame calls per span: one call is tens of nanoseconds
/// to a few microseconds, far too short to time on its own.
const CODEC_REPS: u64 = 64;

/// Fewest operations each wire stage of the traced run makes.
const MIN_STAGE_OPS: usize = 10;

/// Run `op(i)` over `0..n` until `budget` is spent (at least
/// [`MIN_STAGE_OPS`], at most one pass); returns each call's wall in ms.
fn stage(n: usize, budget: Duration, mut op: impl FnMut(usize) -> Duration) -> Vec<f64> {
    let deadline = Instant::now() + budget;
    let mut walls = Vec::new();
    for i in 0..n {
        if i >= MIN_STAGE_OPS && Instant::now() >= deadline {
            break;
        }
        walls.push(op(i).as_secs_f64() * 1e3);
    }
    walls
}

/// Time codec and framing on in-memory buffers, `CODEC_REPS` calls a span.
fn replay_codec(qs: &[Query], want: &[Answer], tr: &mut Tracer) -> u64 {
    let mut wire_bytes = 0u64;
    for (i, q) in qs.iter().enumerate() {
        tr.set_op(i as u64);
        let request = Message::Query {
            centre: q.centre.clone(),
            eps: EPS_NARROW,
            budget: u32::MAX,
            ctx: TraceCtx::NONE,
        };
        // Item ids do not change the encoding's cost, only their number.
        let items = (want[i].stats.messages % 8 + 1) as usize;
        let reply = Message::QueryAck {
            items: (0..items as u64).map(|k| (k, k)).collect(),
            hops: want[i].stats.hops,
            messages: want[i].stats.messages,
            bytes: want[i].stats.bytes,
        };
        for (msg, encode, decode) in [
            (&request, "encode_query", "decode_query"),
            (&reply, "encode_queryack", "decode_queryack"),
        ] {
            let s = tr.begin("can", encode);
            for _ in 0..CODEC_REPS {
                std::hint::black_box(encode_message(msg).expect("encodable"));
            }
            tr.end_counted(s, CODEC_REPS);
            let body = encode_message(msg).expect("encodable");
            let s = tr.begin("can", decode);
            for _ in 0..CODEC_REPS {
                std::hint::black_box(decode_message(&body).expect("decodable"));
            }
            tr.end_counted(s, CODEC_REPS);
            wire_bytes += frame_len(msg).expect("encodable");
        }
        let mut buf = Vec::new();
        let s = tr.begin("transport", "frame_write");
        for _ in 0..CODEC_REPS {
            buf.clear();
            write_frame(&mut buf, 1, &request).expect("write to memory");
        }
        tr.end_counted(s, CODEC_REPS);
        let s = tr.begin("transport", "frame_read");
        for _ in 0..CODEC_REPS {
            std::hint::black_box(read_frame(&mut buf.as_slice()).expect("read from memory"));
        }
        tr.end_counted(s, CODEC_REPS);
    }
    wire_bytes
}

pub fn run_traced(run: &Run, tr: &mut Tracer) -> Outcome {
    let built = query::build(run);
    let net = built.net;
    let qs = setup::queries(
        &built.corpus.peers,
        run.list_len(run.scale.tcp_rate),
        run.seed,
    );
    let want = expected(&net, &qs);
    let budget = Duration::from_secs_f64(run.seconds / 5.0);
    let (mut attempted, mut failed) = (0u64, 0u64);

    let in_process_ms: Vec<f64> = qs
        .iter()
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(net.range_query(0, &q.centre, EPS_NARROW, None));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let wire_bytes = replay_codec(&qs, &want, tr);

    // The smallest request the protocol has: an owner lookup at level 0.
    let key = vec![0.5; net.overlay(0).dim()];
    let mut wire_stage =
        |tr: &mut Tracer, name: &'static str, op: &mut dyn FnMut(usize) -> bool| {
            stage(qs.len(), budget, |i| {
                tr.set_op(i as u64);
                let s = tr.begin("transport", name);
                let t = Instant::now();
                let ok = op(i);
                let took = t.elapsed();
                tr.end(s);
                attempted += 1;
                failed += u64::from(!ok);
                took
            })
        };

    // In-memory transport: runtime + mailbox, no socket.
    let hub = MemHub::new(DEFAULT_INBOX);
    let mem_head = serve(hub.endpoint(HEAD), Role::Head(Box::new(net.clone())));
    let mem_client = Client::new(hub.endpoint(1000), HEAD);
    wire_stage(tr, "mem_rtt_small", &mut |_| {
        mem_client.route(0, &key).is_ok()
    });
    wire_stage(tr, "mem_query", &mut |i| {
        ask(&mem_client, &qs[i]).0 == Some(want[i])
    });
    stop(&mem_client, mem_head);

    // Loopback TCP: one client at the head, then through a member relay,
    // then two clients at once.
    let endpoint = TcpEndpoint::bind(HEAD, LOOPBACK).expect("bind head endpoint");
    let head_addr = endpoint.local_addr();
    let head = serve(endpoint, Role::Head(Box::new(net)));
    let client = tcp_client(1000, HEAD, head_addr);
    wire_stage(tr, "tcp_rtt_small", &mut |_| client.route(0, &key).is_ok());
    let one_client_ms = wire_stage(tr, "tcp_query", &mut |i| {
        ask(&client, &qs[i]).0 == Some(want[i])
    });

    let member_endpoint = TcpEndpoint::bind(MEMBER, LOOPBACK).expect("bind member endpoint");
    let member_addr = member_endpoint.local_addr();
    member_endpoint
        .connect(HEAD, head_addr)
        .expect("member reaches head");
    let member = serve(
        member_endpoint,
        Role::Member {
            head: HEAD,
            peer: None,
        },
    );
    let via_member = tcp_client(1001, MEMBER, member_addr);
    let relayed_ms = wire_stage(tr, "tcp_query_via_member", &mut |i| {
        ask(&via_member, &qs[i]).0 == Some(want[i])
    });
    stop(&via_member, member);

    let clients = [1002u64, 1003].map(|id| tcp_client(id, HEAD, head_addr));
    let two = tr.begin("transport", "tcp_2clients");
    let t = Instant::now();
    let both: Vec<(u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter()
            .map(|client| {
                let (qs, want) = (&qs, &want);
                s.spawn(move || {
                    let mut wrong = 0u64;
                    let walls = stage(qs.len(), budget, |i| {
                        let (answer, took) = ask(client, &qs[i]);
                        wrong += u64::from(answer != Some(want[i]));
                        took
                    });
                    (walls.len() as u64, wrong)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let two_wall_s = t.elapsed().as_secs_f64();
    let two_ops: u64 = both.iter().map(|b| b.0).sum();
    tr.end_counted(two, two_ops);
    attempted += two_ops;
    failed += both.iter().map(|b| b.1).sum::<u64>();
    stop(&client, head);

    let tot = totals(tr.spans());
    let get = |layer, name| tot.get(layer, name);
    let mut out = Outcome::new(attempted, failed);
    out.digest = digest_answers(&want).value();
    out.set(
        "can.codec_encode_ns_per_query",
        get("can", "encode_query").ns_per_count(),
    );
    out.set(
        "can.codec_decode_ns_per_query",
        get("can", "decode_query").ns_per_count(),
    );
    out.set(
        "can.codec_encode_ns_per_queryack",
        get("can", "encode_queryack").ns_per_count(),
    );
    out.set(
        "can.codec_decode_ns_per_queryack",
        get("can", "decode_queryack").ns_per_count(),
    );
    out.set(
        "transport.frame_write_ns_per_query",
        get("transport", "frame_write").ns_per_count(),
    );
    out.set(
        "transport.frame_read_ns_per_query",
        get("transport", "frame_read").ns_per_count(),
    );
    out.set(
        "transport.wire_bytes_per_query",
        wire_bytes as f64 / qs.len() as f64,
    );
    out.set(
        "transport.mem_rtt_us_small",
        get("transport", "mem_rtt_small").ns_per_span() / 1e3,
    );
    out.set(
        "transport.mem_query_ms",
        get("transport", "mem_query").ns_per_span() / 1e6,
    );
    out.set(
        "transport.tcp_rtt_us_small",
        get("transport", "tcp_rtt_small").ns_per_span() / 1e3,
    );
    let tcp_p50 = median(&one_client_ms);
    let in_process_p50 = median(&in_process_ms[..one_client_ms.len()]);
    out.set("transport.tcp_query_overhead_ms", tcp_p50 - in_process_p50);
    out.set(
        "transport.member_forward_extra_ms",
        median(&relayed_ms) - median(&one_client_ms[..relayed_ms.len().min(one_client_ms.len())]),
    );
    // Closed-loop rate of two connections over that of one: ≈ 2 means the
    // head mostly waits, ≈ 1 means it is saturated.
    let one_qps = one_client_ms.len() as f64 / (one_client_ms.iter().sum::<f64>() / 1e3);
    out.set(
        "transport.tcp_2clients_qps_ratio",
        two_ops as f64 / two_wall_s / one_qps,
    );
    built.corpus.report_datagen(&mut out);
    out.notes.push(format!(
        "p50: in process {in_process_p50:.4} ms, tcp {tcp_p50:.4} ms, via member {:.4} ms; loopback interface",
        median(&relayed_ms)
    ));
    out
}
