//! The request/response [`Client`] the CLI bins and integration tests
//! speak: one typed method per protocol request, each a single
//! [`request`](super::request::request).

use super::request::{request, RequestPolicy};
use crate::{PeerId, Transport, TransportError};
use hyperm_can::{Message, StoredObject};
use hyperm_telemetry::{Recorder, SpanId, TraceCtx};
use std::sync::atomic::{AtomicU64, Ordering};

/// Request/response wrapper over a [`Transport`]: what `hyperm-client`
/// and `hyperm-monitor` (and the integration tests) speak.
///
/// Every attempt is stamped with a fresh non-zero request-correlation
/// tag, and only a reply echoing the *current* attempt's tag is
/// returned: an answer to an attempt that already timed out is discarded
/// (`stale_reply` telemetry), never mis-returned to a later request.
/// Idempotent kinds are retried under the configured
/// [`RequestPolicy`]; exhausting the budget emits `gave_up` and
/// surfaces the last error.
pub struct Client<T: Transport> {
    transport: T,
    node: PeerId,
    /// Timeout/retry policy.
    pub config: RequestPolicy,
    /// Trace context stamped into query/fetch/publish frames. Default
    /// [`TraceCtx::NONE`] (untraced — frames carry zeroes); set a
    /// non-zero `trace_id` to tag a distributed operation so the nodes'
    /// streams stitch into one tree.
    pub trace: TraceCtx,
    recorder: Recorder,
    req_seq: AtomicU64,
}

impl<T: Transport> Client<T> {
    /// A client whose requests go to transport peer `node`.
    pub fn new(transport: T, node: PeerId) -> Self {
        Self {
            transport,
            node,
            config: RequestPolicy::default(),
            trace: TraceCtx::NONE,
            recorder: Recorder::disabled(),
            req_seq: AtomicU64::new(0),
        }
    }

    /// This client with `trace` stamped into every traceable request.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }

    /// This client with a timeout/retry policy.
    pub fn with_config(mut self, config: RequestPolicy) -> Self {
        self.config = config;
        self
    }

    /// This client with a telemetry recorder: retries, exhausted retry
    /// budgets and discarded stale replies become `retry` / `gave_up` /
    /// `stale_reply` events and metrics counters.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The underlying transport endpoint.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    fn request(&self, msg: &Message) -> Result<Message, TransportError> {
        request(
            &self.transport,
            self.node,
            msg,
            &self.config,
            || self.req_seq.fetch_add(1, Ordering::Relaxed) + 1,
            (&self.recorder, SpanId::NONE),
            // A client serves nobody: whatever is not its reply is dropped.
            |_| {},
        )
    }

    /// Insert `item` into peer `peer`'s collection. Returns the item's
    /// new local index.
    pub fn put(&self, peer: u64, item: &[f64], republish: bool) -> Result<u64, TransportError> {
        match self.request(&Message::Put {
            peer,
            item: item.to_vec(),
            republish,
        })? {
            Message::PutAck { index, .. } => Ok(index),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// Stored summary spheres covering `key` in the level-`level` overlay.
    pub fn get(&self, level: u16, key: &[f64]) -> Result<Vec<StoredObject>, TransportError> {
        match self.request(&Message::Get {
            level,
            key: key.to_vec(),
        })? {
            Message::GetAck { objects, .. } => Ok(objects),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// Range query: items within `eps` of `centre`, as
    /// `(peer, local index)` pairs, plus `(hops, messages, bytes)` cost.
    #[expect(
        clippy::type_complexity,
        reason = "the (items, (hops, messages, bytes)) pair mirrors the QueryAck frame field for field"
    )]
    pub fn query(
        &self,
        centre: &[f64],
        eps: f64,
        budget: Option<u32>,
    ) -> Result<(Vec<(u64, u64)>, (u64, u64, u64)), TransportError> {
        match self.request(&Message::Query {
            centre: centre.to_vec(),
            eps,
            budget: budget.unwrap_or(u32::MAX),
            ctx: self.trace,
        })? {
            Message::QueryAck {
                items,
                hops,
                messages,
                bytes,
            } => Ok((items, (hops, messages, bytes))),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// Who owns `key` at overlay level `level`.
    pub fn route(&self, level: u16, key: &[f64]) -> Result<u64, TransportError> {
        match self.request(&Message::Route {
            level,
            key: key.to_vec(),
        })? {
            Message::RouteAck { owner, .. } => Ok(owner),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// Publish a raw sphere object. Returns `(replicas, targets)`.
    pub fn publish(
        &self,
        level: u16,
        object: StoredObject,
        replicate: bool,
    ) -> Result<(u32, u32), TransportError> {
        match self.request(&Message::Publish {
            level,
            replicate,
            object,
            ctx: self.trace,
        })? {
            Message::PublishAck {
                replicas, targets, ..
            } => Ok((replicas, targets)),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// Direct phase-2 fetch from one peer's collection.
    pub fn fetch(&self, peer: u64, centre: &[f64], eps: f64) -> Result<Vec<u64>, TransportError> {
        match self.request(&Message::Fetch {
            peer,
            centre: centre.to_vec(),
            eps,
            ctx: self.trace,
        })? {
            Message::FetchAck { indices, .. } => Ok(indices),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// The node's live overlay state as JSON.
    pub fn monitor(&self) -> Result<String, TransportError> {
        match self.request(&Message::Monitor)? {
            Message::MonitorAck { json } => Ok(json),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// The node's sliding-window metrics snapshot as JSON.
    pub fn stats(&self) -> Result<String, TransportError> {
        match self.request(&Message::Stats)? {
            Message::StatsAck { json } => Ok(json),
            _ => Err(TransportError::Rejected("unexpected reply")),
        }
    }

    /// Ask the node to shut down; waits for its ack.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        match self.request(&Message::Shutdown)? {
            Message::Ack { ok: true, .. } => Ok(()),
            _ => Err(TransportError::Rejected("shutdown refused")),
        }
    }
}
