//! The node runtime: serving the Hyper-M message protocol over any
//! [`Transport`] ([`NodeRuntime`], this file), the request/response
//! [`Client`] the CLI bins use (`client.rs`), and the one correlated-
//! request path both send through (`request.rs`).
//!
//! Deployment shape (the chordht-style node/client/monitor split): one
//! **head** node owns the [`HypermNetwork`] — the overlay state the
//! single-process simulator always owned — and serves every protocol
//! request against it, running exactly the same entry points
//! (`range_query`, `insert_item`, `join_peer`, …) a direct caller would,
//! so transport-mediated answers are bit-identical to in-process ones
//! (asserted by the `transport_equivalence` test). **Member** nodes hold
//! a transport address and relay protocol traffic to the head; they join
//! the overlay with [`NodeRuntime::join_network`], which ships their
//! collection in a `Join` frame. Clients may connect to *any* node:
//! members forward requests head-ward and relay the replies back, so the
//! cluster behaves as one service.
//!
//! Every inbound frame was decoded by the hardened codec, but the
//! runtime still validates semantics (levels in range, dimensions
//! matching, peers alive) before touching the network — a remote frame
//! must never be able to panic a node.

mod client;
pub(crate) mod request;

pub use client::Client;
pub use request::{RequestPolicy, MIN_TIMEOUT};

use crate::{Envelope, PeerId, Transport, TransportError};
use hyperm_can::codec::kind;
use hyperm_can::Message;
use hyperm_cluster::Dataset;
use hyperm_core::{HypermNetwork, InsertPolicy};
use hyperm_sim::{Backoff, OpStats};
use hyperm_telemetry::json::inline_arr;
use hyperm_telemetry::{Counter, JsonObj, Name, Recorder, SpanId, TraceCtx, Window};
use request::request;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Liveness bookkeeping for one peer, maintained by [`NodeRuntime`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerLiveness {
    /// Frame-clock value when this peer was last heard from.
    pub last_heard_frame: u64,
    /// Heartbeats sent since, with no frame heard back.
    pub outstanding_pings: u32,
}

/// What one [`NodeRuntime::serve_one`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// A message was received and handled.
    Handled,
    /// Nothing arrived within the timeout.
    Idle,
    /// A `Shutdown` request was served; the loop should exit.
    Shutdown,
}

/// What this node is in the cluster.
pub enum Role {
    /// Owns the [`HypermNetwork`] and answers protocol requests.
    Head(Box<HypermNetwork>),
    /// Relays protocol traffic to the head node.
    Member {
        /// Transport id of the head node.
        head: PeerId,
        /// Overlay peer id assigned by a successful join (if any).
        peer: Option<u64>,
    },
}

/// A protocol server bound to one transport endpoint.
pub struct NodeRuntime<T: Transport> {
    transport: T,
    role: Role,
    recorder: Recorder,
    span: SpanId,
    backlog: VecDeque<Envelope>,
    /// Sliding-window metrics, always on: the `Stats` protocol request
    /// snapshots it, `hyperm-monitor --watch` aggregates it cluster-wide.
    window: Window,
    /// Frames handled so far — the window's (and runtime recorder's)
    /// clock, so window contents depend only on traffic, not wall time.
    frames: u64,
    /// Monotone scrape sequence stamped into monitor/stats JSON.
    scrape_seq: u64,
    /// Fresh request-correlation tags for frames this runtime originates
    /// (joins, head-forwards, heartbeats).
    req_seq: u64,
    /// Heartbeat sequence for member→head pings.
    ping_seq: u64,
    /// Per-peer liveness: last-heard frame and missed-ping count.
    liveness: BTreeMap<PeerId, PeerLiveness>,
    /// Member-side: the head has missed too many pings and is presumed
    /// dead; forwarded requests fail fast until it is heard again.
    degraded: bool,
    /// Head-side: transport peer → overlay peer for every member that
    /// joined, so a crash-restarted member's repeat `Join` resyncs to
    /// its existing overlay id instead of admitting a duplicate.
    joined: BTreeMap<PeerId, u64>,
    /// Member-side: timeout and retry policy of a request forwarded to
    /// the head, after which the client is failed.
    pub forward: RequestPolicy,
    /// Member-side: consecutive unanswered pings before the head is
    /// declared down and the runtime reports itself degraded.
    pub missed_ping_threshold: u32,
}

impl<T: Transport> NodeRuntime<T> {
    /// A runtime serving `role` over `transport`.
    pub fn new(transport: T, role: Role) -> Self {
        let window = match &role {
            Role::Head(net) => Window::new(net.levels()),
            Role::Member { .. } => Window::default(),
        };
        Self {
            transport,
            role,
            recorder: Recorder::disabled(),
            span: SpanId::NONE,
            backlog: VecDeque::new(),
            window,
            frames: 0,
            scrape_seq: 0,
            req_seq: 0,
            ping_seq: 0,
            liveness: BTreeMap::new(),
            degraded: false,
            joined: BTreeMap::new(),
            forward: RequestPolicy {
                attempts: 2,
                backoff: Backoff::exponential(1, 4),
                ..RequestPolicy::default()
            },
            missed_ping_threshold: 3,
        }
    }

    /// Member-side: whether the head is presumed dead (missed-ping
    /// threshold exceeded with nothing heard since). Heads are never
    /// degraded.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Per-peer liveness table (last-heard frame, outstanding pings).
    pub fn liveness(&self) -> &BTreeMap<PeerId, PeerLiveness> {
        &self.liveness
    }

    /// The runtime's sliding-window metrics.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// Attach a telemetry recorder: the runtime emits a `serve` span per
    /// handled request and `forward`/`frame_drop` instants. This recorder
    /// is the *runtime's* — it is deliberately separate from any recorder
    /// installed in the wrapped [`HypermNetwork`], so transport tracing
    /// never perturbs the network's own event stream.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The wrapped network (head only).
    pub fn network(&self) -> Option<&HypermNetwork> {
        match &self.role {
            Role::Head(net) => Some(net),
            Role::Member { .. } => None,
        }
    }

    /// The underlying transport endpoint.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Member bootstrap: ship `items` to the head in a `Join` frame and
    /// record the overlay peer id it assigns.
    pub fn join_network(
        &mut self,
        items: &Dataset,
        timeout: Duration,
    ) -> Result<u64, TransportError> {
        let Role::Member { head, .. } = &self.role else {
            return Err(TransportError::Rejected("head nodes do not join"));
        };
        let head = *head;
        let dim =
            u16::try_from(items.dim()).map_err(|_| TransportError::Rejected("dim too large"))?;
        let mut rows = Vec::with_capacity(items.len() * items.dim());
        for i in 0..items.len() {
            rows.extend_from_slice(items.row(i));
        }
        let join = Message::Join {
            peer: self.transport.local(),
            dim,
            rows,
        };
        // One attempt, on the caller's clock: the caller decides whether
        // a bootstrap that timed out is worth repeating.
        let policy = RequestPolicy {
            timeout,
            attempts: 1,
            ..self.forward
        };
        match self.request_head(head, &join, policy, self.span)? {
            Message::JoinAck { peer, .. } => {
                if let Role::Member { peer: slot, .. } = &mut self.role {
                    *slot = Some(peer);
                }
                Ok(peer)
            }
            _ => Err(TransportError::Rejected("join refused")),
        }
    }

    /// One [`request`] to the head on this runtime's tag counter, with
    /// unrelated traffic parked in the backlog for the serve loop.
    fn request_head(
        &mut self,
        head: PeerId,
        msg: &Message,
        policy: RequestPolicy,
        span: SpanId,
    ) -> Result<Message, TransportError> {
        request(
            &self.transport,
            head,
            msg,
            &policy,
            || {
                self.req_seq += 1;
                self.req_seq
            },
            (&self.recorder, span),
            |env| self.backlog.push_back(env),
        )
    }

    /// Serve until a `Shutdown` request arrives or the transport closes.
    pub fn serve_until_shutdown(&mut self) -> Result<(), TransportError> {
        loop {
            match self.serve_one(Duration::from_millis(200)) {
                Ok(ServeOutcome::Shutdown) => return Ok(()),
                Ok(_) => {}
                Err(TransportError::Closed) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Handle at most one inbound message (backlogged traffic first).
    pub fn serve_one(&mut self, timeout: Duration) -> Result<ServeOutcome, TransportError> {
        let mut env = match self.backlog.pop_front() {
            Some(env) => env,
            None => match self.transport.recv_timeout(timeout) {
                Ok(env) => env,
                Err(TransportError::Timeout) => {
                    self.idle_tick();
                    return Ok(ServeOutcome::Idle);
                }
                Err(e) => return Err(e),
            },
        };
        // The frame counter is the runtime's clock: it stamps trace events
        // and drives the window, so neither depends on wall time.
        self.frames += 1;
        self.window.advance(self.frames);
        self.recorder.set_time(self.frames);
        self.note_heard(env.from);
        let ctx = env.msg.ctx_mut().map_or(TraceCtx::NONE, |ctx| *ctx);
        let mut fields = vec![
            ("from", env.from.into()),
            ("kind", env.msg.kind_name().into()),
        ];
        if !ctx.is_none() {
            // The cross-process stitch key: `forensics::merge_streams`
            // re-parents this serve span under span `ctx_span` of the
            // stream scraped from node `from`.
            fields.push(("ctx_trace", ctx.trace_id.into()));
            fields.push(("ctx_span", ctx.parent_span.into()));
        }
        let span = self.recorder.span(self.span, Name::Serve, fields);
        let outcome = self.dispatch(env, span);
        self.recorder.end(span, Name::Serve, vec![]);
        outcome
    }

    /// Any frame from a peer proves it alive: reset its missed-ping
    /// count, and clear the member's degraded state if the frame came
    /// from a head previously declared down.
    fn note_heard(&mut self, from: PeerId) {
        let frame = self.frames;
        let live = self.liveness.entry(from).or_default();
        live.last_heard_frame = frame;
        live.outstanding_pings = 0;
        if let Role::Member { head, .. } = &self.role {
            if from == *head && self.degraded {
                self.degraded = false;
                self.recorder
                    .count_event(self.span, Name::Rejoin, vec![("peer", from.into())]);
            }
        }
    }

    /// An idle serve tick: members heartbeat the head. Each tick sends
    /// one `Ping` and counts it outstanding; any frame heard from the
    /// head (the `Pong`, usually) resets the count, so it only climbs
    /// while the head is actually silent. Crossing the threshold marks
    /// the runtime degraded: forwarded requests fail fast instead of
    /// each stalling a full forward timeout against a dead head.
    fn idle_tick(&mut self) {
        let Role::Member { head, .. } = &self.role else {
            return;
        };
        let head = *head;
        self.ping_seq += 1;
        self.req_seq += 1;
        let _ =
            self.transport
                .send_tagged(head, self.req_seq, &Message::Ping { seq: self.ping_seq });
        let threshold = self.missed_ping_threshold;
        let live = self.liveness.entry(head).or_default();
        live.outstanding_pings = live.outstanding_pings.saturating_add(1);
        let missed = live.outstanding_pings;
        if missed > threshold && !self.degraded {
            self.degraded = true;
            self.recorder.count_event(
                self.span,
                Name::PeerDown,
                vec![("peer", head.into()), ("missed", u64::from(missed).into())],
            );
        }
    }

    fn dispatch(
        &mut self,
        env: Envelope,
        serve_span: SpanId,
    ) -> Result<ServeOutcome, TransportError> {
        let Envelope { from, req_id, msg } = env;
        match msg {
            Message::Hello { .. } => Ok(ServeOutcome::Handled),
            Message::Ping { seq } => {
                // Wire heartbeat: every role answers, echoing the
                // requester's correlation tag.
                self.recorder.count_event(
                    serve_span,
                    Name::Ping,
                    vec![("from", from.into()), ("seq", seq.into())],
                );
                let _ = self
                    .transport
                    .send_tagged(from, req_id, &Message::Pong { seq });
                Ok(ServeOutcome::Handled)
            }
            Message::Pong { seq } => {
                // Liveness bookkeeping already happened in `serve_one` (any
                // frame from a peer proves it alive); just make it visible.
                self.recorder.count_event(
                    serve_span,
                    Name::Pong,
                    vec![("from", from.into()), ("seq", seq.into())],
                );
                Ok(ServeOutcome::Handled)
            }
            Message::Shutdown => {
                let _ = self.transport.send_tagged(
                    from,
                    req_id,
                    &Message::Ack {
                        seq: u64::from(kind::SHUTDOWN),
                        ok: true,
                    },
                );
                self.transport.close();
                Ok(ServeOutcome::Shutdown)
            }
            Message::Monitor => {
                self.scrape_seq += 1;
                let json = self.monitor_json();
                let _ = self
                    .transport
                    .send_tagged(from, req_id, &Message::MonitorAck { json });
                Ok(ServeOutcome::Handled)
            }
            Message::Stats => {
                // Both roles serve their own window: the monitor scrapes every
                // node and merges, it does not ask the head about members.
                self.scrape_seq += 1;
                let json = self.stats_json();
                if let Some(m) = self.recorder.metrics() {
                    m.add(Counter::StatsServed, 1);
                }
                self.recorder.event(
                    serve_span,
                    Name::Stats,
                    vec![("seq", self.scrape_seq.into())],
                );
                let _ = self
                    .transport
                    .send_tagged(from, req_id, &Message::StatsAck { json });
                Ok(ServeOutcome::Handled)
            }
            // Requests against the network: the head serves them, a
            // member relays them head-ward.
            request @ (Message::Join { .. }
            | Message::Route { .. }
            | Message::Publish { .. }
            | Message::Query { .. }
            | Message::Get { .. }
            | Message::Fetch { .. }
            | Message::Put { .. }) => self.serve_request(from, req_id, request, serve_span),
            // A reply or unsolicited ack landed outside a request's wait:
            // nothing awaits it, drop it visibly.
            reply @ (Message::JoinAck { .. }
            | Message::RouteAck { .. }
            | Message::PublishAck { .. }
            | Message::QueryAck { .. }
            | Message::GetAck { .. }
            | Message::FetchAck { .. }
            | Message::Ack { .. }
            | Message::MonitorAck { .. }
            | Message::PutAck { .. }
            | Message::StatsAck { .. }) => {
                self.drop_frame(from, &reply);
                Ok(ServeOutcome::Handled)
            }
        }
    }

    /// A frame nothing here awaits or serves: say so in the trace.
    fn drop_frame(&self, from: PeerId, msg: &Message) {
        self.recorder.event(
            self.span,
            Name::FrameDrop,
            vec![("from", from.into()), ("kind", msg.kind_name().into())],
        );
    }

    /// Serve (head) or relay (member) one request against the network.
    fn serve_request(
        &mut self,
        from: PeerId,
        req_id: u64,
        mut msg: Message,
        serve_span: SpanId,
    ) -> Result<ServeOutcome, TransportError> {
        // `dispatch` sends only request kinds here; each has a reply row.
        let Some(expected) = Message::reply_kind_of(msg.kind()) else {
            self.drop_frame(from, &msg);
            return Ok(ServeOutcome::Handled);
        };
        match &mut self.role {
            Role::Head(net) => {
                // Crash-rejoin: a transport peer that already joined
                // presents `Join` again after restarting. The head owns
                // every item, so rejoining is pure resync — answer with
                // the peer's existing overlay id and republish its
                // summaries instead of admitting a duplicate member.
                let join_wire_peer = if let Message::Join { peer, .. } = &msg {
                    Some(*peer)
                } else {
                    None
                };
                if let Some((wire_peer, &overlay)) =
                    join_wire_peer.and_then(|wire| Some((wire, self.joined.get(&wire)?)))
                {
                    let t0 = Instant::now();
                    if let Some(p) = usize::try_from(overlay).ok().filter(|&p| p < net.len()) {
                        let stats = net.refresh_peer_summaries(p);
                        self.window.record_op(&stats, elapsed_us(t0));
                    }
                    self.recorder.count_event(
                        serve_span,
                        Name::Rejoin,
                        vec![("peer", wire_peer.into()), ("overlay_peer", overlay.into())],
                    );
                    let _ = self.transport.send_tagged(
                        from,
                        req_id,
                        &Message::JoinAck {
                            peer: overlay,
                            members: net.len() as u64,
                        },
                    );
                    return Ok(ServeOutcome::Handled);
                }
                record_heat(&self.window, &msg, net.levels());
                let t0 = Instant::now();
                // Scope the network's recorder to this serve span for the
                // duration of the call: query/publish root spans parent
                // under it, joining transport and overlay into one tree.
                // When the runtime recorder is disabled `serve_span` is
                // NONE, so the scope stays at its default and streams are
                // untouched.
                net.recorder().set_scope(serve_span);
                let out = handle_on_network(net, msg);
                net.recorder().set_scope(SpanId::NONE);
                let latency_us = elapsed_us(t0);
                let reply = match out {
                    Some((reply, stats)) => {
                        self.window.record_op(&stats, latency_us);
                        reply
                    }
                    None => {
                        self.window.record_rejected();
                        refusal(expected)
                    }
                };
                if let (Some(wire), Message::JoinAck { peer, .. }) = (join_wire_peer, &reply) {
                    self.joined.insert(wire, *peer);
                }
                let _ = self.transport.send_tagged(from, req_id, &reply);
                Ok(ServeOutcome::Handled)
            }
            Role::Member { head, .. } => {
                let head = *head;
                if from == head {
                    // The head does not send requests to its members.
                    self.drop_frame(from, &msg);
                    return Ok(ServeOutcome::Handled);
                }
                // A client request: relay head-ward and pipe the answer
                // back.
                self.recorder.event(
                    serve_span,
                    Name::Forward,
                    vec![("from", from.into()), ("kind", msg.kind_name().into())],
                );
                if self.degraded {
                    // The head is presumed dead: fail fast rather than
                    // stall each client request for a full forward timeout.
                    self.window.record_rejected();
                    let _ = self.transport.send_tagged(from, req_id, &refusal(expected));
                    return Ok(ServeOutcome::Handled);
                }
                // Re-parent the frame's trace context under this relay's
                // serve span — but ONLY when this runtime is tracing.
                // Untraced relays forward the frame byte-identical to what
                // they received, which is what keeps the transported
                // bit-identity test honest with TraceCtx on the wire.
                if self.recorder.is_enabled() {
                    if let Some(ctx) = msg.ctx_mut() {
                        *ctx = ctx.reparent(serve_span);
                    }
                }
                let t0 = Instant::now();
                let reply = self
                    .request_head(head, &msg, self.forward, serve_span)
                    .unwrap_or_else(|_| refusal(expected));
                record_reply(&self.window, &reply, elapsed_us(t0));
                let _ = self.transport.send_tagged(from, req_id, &reply);
                Ok(ServeOutcome::Handled)
            }
        }
    }

    /// This node's window snapshot as JSON (what `StatsAck` carries):
    /// stamped with the transport peer id, the monotone scrape sequence
    /// and the frame clock for joinability with monitor output.
    /// The liveness verdict rides along as `degraded`;
    /// `WindowSnapshot::from_json` ignores unknown keys, so merge tooling
    /// stays compatible.
    pub fn stats_json(&self) -> String {
        self.window
            .snapshot(self.transport.local(), self.scrape_seq)
            .to_json_obj()
            .b("degraded", self.degraded)
            .render()
    }

    /// Live overlay state as JSON: role, membership, and per-level zones,
    /// neighbour lists and summary counts (heads); role and head address
    /// (members).
    pub fn monitor_json(&self) -> String {
        let mut obj = JsonObj::new()
            .u("transport_peer", self.transport.local())
            .u("node", self.transport.local())
            .u("seq", self.scrape_seq)
            .u("frame", self.frames)
            .b("degraded", self.degraded);
        let live: Vec<String> = self
            .liveness
            .iter()
            .map(|(p, l)| {
                JsonObj::new()
                    .u("peer", *p)
                    .u("last_heard_frame", l.last_heard_frame)
                    .u("outstanding_pings", u64::from(l.outstanding_pings))
                    .render()
            })
            .collect();
        obj = obj.arr("liveness", &live);
        match &self.role {
            Role::Member { head, peer } => {
                obj = obj.s("role", "member").u("head", *head);
                if let Some(p) = peer {
                    obj = obj.u("overlay_peer", *p);
                }
            }
            Role::Head(net) => {
                obj = obj
                    .s("role", "head")
                    .u("members", net.len() as u64)
                    .u("levels", net.levels() as u64)
                    .u("data_dim", net.data_dim() as u64);
                let mut overlays = Vec::with_capacity(net.levels());
                for l in 0..net.levels() {
                    let ov = net.overlay(l);
                    let mut level_obj = JsonObj::new()
                        .u("level", l as u64)
                        .u("dim", ov.dim() as u64)
                        .u(
                            "summaries",
                            ov.stored_items_per_node().iter().copied().sum::<u64>(),
                        );
                    if let Some(can) = ov.as_can() {
                        level_obj = level_obj.u("alive", can.alive_count() as u64);
                        let coords = |v: &[f64]| inline_arr(v.iter().map(|x| format!("{x:.6}")));
                        let nodes: Vec<String> = can
                            .nodes()
                            .map(|n| {
                                let neighbours = inline_arr(n.neighbours.iter().map(|p| p.0));
                                JsonObj::new()
                                    .u("id", n.id.0 as u64)
                                    .b("alive", n.alive)
                                    .raw("zone_lo", coords(n.zone.lo()))
                                    .raw("zone_hi", coords(n.zone.hi()))
                                    .raw("neighbours", neighbours)
                                    .u("stored", n.store.len() as u64)
                                    .render()
                            })
                            .collect();
                        level_obj = level_obj.arr("nodes", &nodes);
                    }
                    overlays.push(level_obj.render());
                }
                obj = obj.arr("overlays", &overlays);
                // Live per-peer load, when a `hyperm-load` ledger is
                // installed on the head's network.
                if let Some(ledger) = net.load_ledger() {
                    let loads: Vec<String> = ledger
                        .per_peer()
                        .iter()
                        .enumerate()
                        .map(|(p, l)| {
                            JsonObj::new()
                                .u("peer", p as u64)
                                .u("events", l.events())
                                .u("queries_served", l.queries_served)
                                .u("floods_relayed", l.floods_relayed)
                                .u("fetches_answered", l.fetches_answered)
                                .u("bytes", l.bytes)
                                .u("retries", l.retries)
                                .render()
                        })
                        .collect();
                    obj = obj.arr("load", &loads);
                }
            }
        }
        obj.render_pretty()
    }
}

/// The failure reply to a request whose reply kind is `expected`.
pub(crate) fn refusal(expected: u8) -> Message {
    Message::Ack {
        seq: u64::from(expected),
        ok: false,
    }
}

/// Microseconds since `t0`, saturating.
fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Charge the request's wavelet levels to the window's heat series: a
/// range query's phase 1 touches every level; publish/get/route name one.
fn record_heat(window: &Window, msg: &Message, levels: usize) {
    match msg {
        Message::Query { .. } => {
            for l in 0..levels {
                window.record_level(l);
            }
        }
        Message::Publish { level, .. }
        | Message::Get { level, .. }
        | Message::Route { level, .. } => {
            window.record_level(usize::from(*level));
        }
        _ => {}
    }
}

/// Record one served request in the window: failure acks count as
/// rejected; query replies carry their simulated overlay cost, everything
/// else charges host latency only.
fn record_reply(window: &Window, reply: &Message, latency_us: u64) {
    match reply {
        Message::Ack { ok: false, .. } => window.record_rejected(),
        Message::QueryAck {
            hops,
            messages,
            bytes,
            ..
        } => {
            window.record_op(
                &OpStats {
                    hops: *hops,
                    messages: *messages,
                    bytes: *bytes,
                    retries: 0,
                    failed_routes: 0,
                },
                latency_us,
            );
        }
        _ => window.record_op(&OpStats::zero(), latency_us),
    }
}

/// The first alive peer, for use as routing/query origin when the
/// requester is a client with no overlay presence.
fn entry_peer(net: &HypermNetwork) -> Option<usize> {
    (0..net.len()).find(|&p| net.is_alive(p))
}

/// Serve one protocol request against the network. `None` = the request
/// was invalid (bad level/dimension/peer) and becomes a failure ack.
/// Every call here is the same public entry point an in-process caller
/// would use — this function adds validation, never behaviour. The
/// returned [`OpStats`] is the op's simulated overlay cost (zero for ops
/// that have none), which the runtime feeds its metrics window.
fn handle_on_network(net: &mut HypermNetwork, msg: Message) -> Option<(Message, OpStats)> {
    match msg {
        Message::Join { dim, rows, .. } => {
            if dim == 0 || usize::from(dim) != net.data_dim() {
                return None;
            }
            if !rows.iter().all(|x| x.is_finite()) {
                return None;
            }
            let items = Dataset::from_flat(rows, usize::from(dim));
            let report = net.join_peer(items).ok()?;
            Some((
                Message::JoinAck {
                    peer: report.peer as u64,
                    members: net.len() as u64,
                },
                OpStats::zero(),
            ))
        }
        Message::Route { level, key } => {
            let l = usize::from(level);
            if l >= net.levels() || key.len() != net.overlay(l).dim() {
                return None;
            }
            let owner = net.overlay(l).as_can()?.try_owner_of(&key)?;
            Some((
                Message::RouteAck {
                    level,
                    owner: owner.0 as u64,
                },
                OpStats::zero(),
            ))
        }
        Message::Publish {
            level,
            replicate,
            object,
            ..
        } => {
            let object_id = object.id;
            let out = net.publish_object(usize::from(level), object, replicate)?;
            Some((
                Message::PublishAck {
                    level,
                    object_id,
                    replicas: u32::try_from(out.replicas).unwrap_or(u32::MAX),
                    targets: u32::try_from(out.targets).unwrap_or(u32::MAX),
                },
                out.stats,
            ))
        }
        Message::Put {
            peer,
            item,
            republish,
        } => {
            let p = usize::try_from(peer).ok()?;
            if p >= net.len() || !net.is_alive(p) || item.len() != net.data_dim() {
                return None;
            }
            if !item.iter().all(|x| x.is_finite()) {
                return None;
            }
            let index = net.peer(p).items.len() as u64;
            let policy = if republish {
                InsertPolicy::Republish
            } else {
                InsertPolicy::StaleSummaries
            };
            net.insert_item(p, &item, policy);
            Some((Message::PutAck { peer, index }, OpStats::zero()))
        }
        Message::Get { level, key } => {
            let l = usize::from(level);
            if l >= net.levels() || key.len() != net.overlay(l).dim() {
                return None;
            }
            if !key.iter().all(|x| x.is_finite()) {
                return None;
            }
            let from = hyperm_sim::NodeId(entry_peer(net)?);
            let (objects, stats) = net.overlay(l).point_lookup(from, &key);
            Some((Message::GetAck { level, objects }, stats))
        }
        Message::Query {
            centre,
            eps,
            budget,
            ..
        } => {
            if centre.len() != net.data_dim() {
                return None;
            }
            let from_peer = entry_peer(net)?;
            let peer_budget = if budget == u32::MAX {
                None
            } else {
                Some(budget as usize)
            };
            let res = net.range_query(from_peer, &centre, eps, peer_budget);
            Some((
                Message::QueryAck {
                    items: res
                        .items
                        .iter()
                        .map(|&(p, i)| (p as u64, i as u64))
                        .collect(),
                    hops: res.stats.hops,
                    messages: res.stats.messages,
                    bytes: res.stats.bytes,
                },
                res.stats,
            ))
        }
        Message::Fetch {
            peer, centre, eps, ..
        } => {
            let p = usize::try_from(peer).ok()?;
            if p >= net.len() || !net.is_alive(p) || centre.len() != net.data_dim() {
                return None;
            }
            let indices = net
                .peer(p)
                .local_range(&centre, eps)
                .into_iter()
                .map(|i| i as u64)
                .collect();
            Some((Message::FetchAck { peer, indices }, OpStats::zero()))
        }
        // `dispatch` serves these itself and drops replies; none of them
        // is a request against the network.
        Message::Hello { .. }
        | Message::Ping { .. }
        | Message::Pong { .. }
        | Message::Shutdown
        | Message::Monitor
        | Message::Stats
        | Message::JoinAck { .. }
        | Message::RouteAck { .. }
        | Message::PublishAck { .. }
        | Message::QueryAck { .. }
        | Message::GetAck { .. }
        | Message::FetchAck { .. }
        | Message::Ack { .. }
        | Message::MonitorAck { .. }
        | Message::PutAck { .. }
        | Message::StatsAck { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemHub;
    use hyperm_core::HypermConfig;
    use hyperm_datagen::{generate_aloi_like, AloiConfig};
    use hyperm_telemetry::JsonValue;

    #[test]
    fn stats_and_monitor_json_parse_with_their_fields() {
        let data: Vec<Dataset> = (0..4)
            .map(|slot| {
                generate_aloi_like(&AloiConfig {
                    classes: 1,
                    views_per_class: 12,
                    bins: 8,
                    view_jitter: 0.15,
                    seed: 3 + slot,
                })
                .data
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(2)
            .with_clusters_per_peer(2)
            .with_seed(3);
        let (net, _) = HypermNetwork::build(data, cfg).unwrap();
        let width = net.overlay(1).dim();
        let head = NodeRuntime::new(MemHub::new(8).endpoint(0), Role::Head(Box::new(net)));

        let stats = JsonValue::parse(&head.stats_json()).unwrap();
        assert_eq!(
            stats.get("degraded").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert_eq!(stats.get("node").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(stats.get("capacity").and_then(JsonValue::as_u64), Some(64));
        assert_eq!(
            stats.get("bucket_ticks").and_then(JsonValue::as_u64),
            Some(1)
        );

        let monitor = JsonValue::parse(&head.monitor_json()).unwrap();
        assert_eq!(
            monitor.get("degraded").and_then(JsonValue::as_bool),
            Some(false)
        );
        let overlays = monitor.get("overlays").and_then(JsonValue::as_arr).unwrap();
        let nodes = overlays[1]
            .get("nodes")
            .and_then(JsonValue::as_arr)
            .unwrap();
        assert_eq!(nodes.len(), 4);
        let zone_lo = nodes[0].get("zone_lo").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(zone_lo.len(), width);
        assert!(zone_lo.iter().all(|x| x.as_f64().is_some()));
        let neighbours = nodes[0]
            .get("neighbours")
            .and_then(JsonValue::as_arr)
            .unwrap();
        assert!(!neighbours.is_empty());
        assert!(neighbours.iter().all(|p| p.as_u64().is_some_and(|p| p < 4)));
    }
}
