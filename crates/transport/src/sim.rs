//! The simulation underlay as a [`Transport`] implementation.
//!
//! This is the extraction the Transport refactor is anchored on: the
//! single-process delivery the simulator always performed — instant,
//! in-order, loss-free — expressed through the same trait the real
//! (threaded, TCP) transports implement. Delivery is deterministic:
//! state lives in `BTreeMap`s, nothing depends on thread timing, and
//! `recv_timeout` never blocks (an empty inbox is immediately
//! [`TransportError::Timeout`] — in a discrete-event world, "waiting"
//! cannot make a message appear).
//!
//! Cost accounting mirrors the simulator's: every delivered frame
//! charges one message, its encoded frame length in bytes, and one hop.
//! [`SimHub::stats`] exposes the accumulated [`OpStats`], so a runtime
//! driven over this transport reports the same cost vocabulary as the
//! in-process simulation.

use crate::{Envelope, PeerId, Transport, TransportError};
use hyperm_can::codec::{decode_message, encode_message};
use hyperm_can::Message;
use hyperm_sim::OpStats;
use hyperm_telemetry::sync::{Guard, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

struct SimState {
    inboxes: BTreeMap<PeerId, VecDeque<Envelope>>,
    stats: OpStats,
}

/// Deterministic single-process switchboard for [`SimEndpoint`]s.
#[derive(Clone)]
pub struct SimHub {
    state: Arc<Mutex<SimState>>,
    inbox_capacity: usize,
}

impl SimHub {
    /// A hub with per-peer inboxes bounded at `inbox_capacity`.
    pub fn new(inbox_capacity: usize) -> Self {
        Self {
            state: Arc::new(Mutex::new(SimState {
                inboxes: BTreeMap::new(),
                stats: OpStats::zero(),
            })),
            inbox_capacity,
        }
    }

    fn lock(&self) -> Guard<'_, SimState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Register peer `id` and return its endpoint.
    pub fn endpoint(&self, id: PeerId) -> SimEndpoint {
        self.lock().inboxes.entry(id).or_default();
        SimEndpoint {
            hub: self.clone(),
            id,
        }
    }

    /// Accumulated delivery cost across every endpoint of this hub.
    pub fn stats(&self) -> OpStats {
        self.lock().stats
    }
}

/// One peer's attachment to a [`SimHub`].
pub struct SimEndpoint {
    hub: SimHub,
    id: PeerId,
}

impl Transport for SimEndpoint {
    fn local(&self) -> PeerId {
        self.id
    }

    fn send_tagged(&self, to: PeerId, req_id: u64, msg: &Message) -> Result<(), TransportError> {
        let body = encode_message(msg).map_err(TransportError::Codec)?;
        let msg = decode_message(&body).map_err(TransportError::Codec)?;
        let mut state = self.hub.lock();
        let cap = self.hub.inbox_capacity;
        let inbox = state
            .inboxes
            .get_mut(&to)
            .ok_or(TransportError::UnknownPeer(to))?;
        if inbox.len() >= cap {
            // No time passes in a discrete-event hub, so a full inbox
            // cannot drain "while we wait": fail immediately.
            return Err(TransportError::Backpressure);
        }
        inbox.push_back(Envelope {
            from: self.id,
            req_id,
            msg,
        });
        state.stats.messages += 1;
        state.stats.bytes += crate::frame::HEADER_LEN as u64 + body.len() as u64;
        state.stats.hops += 1;
        Ok(())
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<Envelope, TransportError> {
        let mut state = self.hub.lock();
        match state.inboxes.get_mut(&self.id) {
            Some(q) => q.pop_front().ok_or(TransportError::Timeout),
            None => Err(TransportError::Closed),
        }
    }

    fn peers(&self) -> Vec<PeerId> {
        self.hub
            .lock()
            .inboxes
            .keys()
            .copied()
            .filter(|&p| p != self.id)
            .collect()
    }

    fn close(&self) {
        self.hub.lock().inboxes.remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_fifo_delivery_with_cost() {
        let hub = SimHub::new(16);
        let a = hub.endpoint(0);
        let b = hub.endpoint(1);
        a.send(1, &Message::Monitor).unwrap();
        a.send(1, &Message::Shutdown).unwrap();
        let e1 = b.recv_timeout(Duration::ZERO).unwrap();
        let e2 = b.recv_timeout(Duration::ZERO).unwrap();
        assert_eq!(e1.msg, Message::Monitor);
        assert_eq!(e2.msg, Message::Shutdown);
        assert_eq!(b.recv_timeout(Duration::ZERO), Err(TransportError::Timeout));
        let stats = hub.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.hops, 2);
        // 12-byte header (len + req_id) + 1-byte kind, twice.
        assert_eq!(stats.bytes, 26);
    }

    #[test]
    fn bounded_inbox_fails_fast() {
        let hub = SimHub::new(1);
        let a = hub.endpoint(0);
        let _b = hub.endpoint(1);
        a.send(1, &Message::Monitor).unwrap();
        assert_eq!(
            a.send(1, &Message::Monitor),
            Err(TransportError::Backpressure)
        );
    }
}
