//! In-memory transport: peers as threads, bounded mailboxes as links.
//!
//! A [`MemHub`] is the shared switchboard; each [`MemEndpoint`] owns a
//! bounded inbox registered with the hub. `send` encodes the message
//! (so every frame that crosses this transport is proven round-trippable
//! — the same codec path TCP uses) and enqueues the envelope with a
//! bounded-wait, surfacing [`TransportError::Backpressure`] when the
//! destination stays full.

use crate::mailbox::{Mailbox, RecvError, SendError};
use crate::{Envelope, PeerId, Transport, TransportError};
use hyperm_can::codec::{decode_message, encode_message};
use hyperm_can::Message;
use hyperm_telemetry::sync::{Guard, Mutex};
use hyperm_telemetry::{Name, Recorder, SpanId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Default per-endpoint inbox bound.
pub const DEFAULT_INBOX: usize = 256;

/// Default time a sender blocks against a full inbox before giving up.
pub const DEFAULT_SEND_TIMEOUT: Duration = Duration::from_secs(5);

struct HubState {
    inboxes: BTreeMap<PeerId, Mailbox<Envelope>>,
}

/// The shared switchboard connecting [`MemEndpoint`]s.
#[derive(Clone)]
pub struct MemHub {
    state: Arc<Mutex<HubState>>,
    inbox_capacity: usize,
    send_timeout: Duration,
}

impl MemHub {
    /// A hub whose endpoints get inboxes bounded at `inbox_capacity`.
    pub fn new(inbox_capacity: usize) -> Self {
        Self {
            state: Arc::new(Mutex::new(HubState {
                inboxes: BTreeMap::new(),
            })),
            inbox_capacity,
            send_timeout: DEFAULT_SEND_TIMEOUT,
        }
    }

    /// Override how long senders block on a full inbox before failing
    /// with [`TransportError::Backpressure`].
    pub fn with_send_timeout(mut self, timeout: Duration) -> Self {
        self.send_timeout = timeout;
        self
    }

    fn lock(&self) -> Guard<'_, HubState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Register peer `id` and return its endpoint. Re-registering an id
    /// replaces the previous inbox (the old endpoint is orphaned).
    pub fn endpoint(&self, id: PeerId) -> MemEndpoint {
        self.endpoint_traced(id, Recorder::disabled())
    }

    /// Like [`MemHub::endpoint`], with a telemetry recorder attached:
    /// the endpoint emits `frame_tx` / `frame_rx` / `backpressure`
    /// events under a `transport` span.
    pub fn endpoint_traced(&self, id: PeerId, recorder: Recorder) -> MemEndpoint {
        let inbox = Mailbox::bounded(self.inbox_capacity);
        self.lock().inboxes.insert(id, inbox.clone());
        let span = recorder.span(SpanId::NONE, Name::Transport, vec![("peer", id.into())]);
        MemEndpoint {
            hub: self.clone(),
            id,
            inbox,
            recorder,
            span,
        }
    }
}

/// One peer's attachment to a [`MemHub`].
pub struct MemEndpoint {
    hub: MemHub,
    id: PeerId,
    inbox: Mailbox<Envelope>,
    recorder: Recorder,
    span: SpanId,
}

impl Transport for MemEndpoint {
    fn local(&self) -> PeerId {
        self.id
    }

    fn send_tagged(&self, to: PeerId, req_id: u64, msg: &Message) -> Result<(), TransportError> {
        if self.inbox.is_closed() {
            return Err(TransportError::Closed);
        }
        // Round-trip through the codec: in-memory peers exchange exactly
        // the bytes TCP peers would, so an unencodable message fails here
        // too, not only in production.
        let body = encode_message(msg).map_err(TransportError::Codec)?;
        let msg = decode_message(&body).map_err(TransportError::Codec)?;
        let target = self
            .hub
            .lock()
            .inboxes
            .get(&to)
            .cloned()
            .ok_or(TransportError::UnknownPeer(to))?;
        let env = Envelope {
            from: self.id,
            req_id,
            msg,
        };
        match target.send_timeout(env, self.hub.send_timeout) {
            Ok(()) => {
                self.recorder.event(
                    self.span,
                    Name::FrameTx,
                    vec![
                        ("to", to.into()),
                        (
                            "bytes",
                            (crate::frame::HEADER_LEN as u64 + body.len() as u64).into(),
                        ),
                    ],
                );
                Ok(())
            }
            Err(SendError::Closed) => Err(TransportError::Closed),
            Err(SendError::Full) => {
                self.recorder
                    .event(self.span, Name::Backpressure, vec![("to", to.into())]);
                Err(TransportError::Backpressure)
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(env) => {
                self.recorder
                    .event(self.span, Name::FrameRx, vec![("from", env.from.into())]);
                Ok(env)
            }
            Err(RecvError::Timeout) => Err(TransportError::Timeout),
            Err(RecvError::Closed) => Err(TransportError::Closed),
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
        self.inbox.close();
        self.hub.lock().inboxes.remove(&self.id);
        self.recorder.end(self.span, Name::Transport, vec![]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip_with_sender_stamp() {
        let hub = MemHub::new(8);
        let a = hub.endpoint(1);
        let b = hub.endpoint(2);
        a.send(2, &Message::Monitor).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, Message::Monitor);
        assert_eq!(a.peers(), vec![2]);
    }

    #[test]
    fn unknown_peer_rejected() {
        let hub = MemHub::new(8);
        let a = hub.endpoint(1);
        assert_eq!(
            a.send(9, &Message::Monitor).unwrap_err(),
            TransportError::UnknownPeer(9)
        );
    }

    #[test]
    fn full_inbox_is_backpressure() {
        let hub = MemHub::new(1).with_send_timeout(Duration::from_millis(10));
        let a = hub.endpoint(1);
        let _b = hub.endpoint(2);
        a.send(2, &Message::Monitor).unwrap();
        assert_eq!(
            a.send(2, &Message::Monitor).unwrap_err(),
            TransportError::Backpressure
        );
    }

    #[test]
    fn close_unregisters() {
        let hub = MemHub::new(8);
        let a = hub.endpoint(1);
        let b = hub.endpoint(2);
        b.close();
        assert_eq!(
            a.send(2, &Message::Monitor).unwrap_err(),
            TransportError::UnknownPeer(2)
        );
        assert_eq!(
            b.recv_timeout(Duration::from_millis(1)).unwrap_err(),
            TransportError::Closed
        );
    }
}
