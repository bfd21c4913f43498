//! The Hyper-M transport layer: real message passing behind the overlay.
//!
//! Everything above this crate — CAN routing, publication, queries — was
//! built against a single-process simulator. This crate extracts the
//! boundary those components actually need as the [`Transport`] trait
//! (addressed, framed, backpressured message exchange) and provides two
//! implementations:
//!
//! * [`MemHub`]/[`MemEndpoint`] — peers as long-lived threads exchanging
//!   messages over bounded in-memory mailboxes; full backpressure, no
//!   sockets. The unit-test transport. The `transport_equivalence`
//!   integration test asserts that driving the network through its
//!   frames is **bit-identical** to calling it directly — results,
//!   `OpStats`, and telemetry event streams.
//! * [`TcpEndpoint`] — loopback/LAN TCP with length-prefixed frames
//!   ([`frame`]), one reader thread per connection, and the same bounded
//!   inbox. This is what the `hyperm-node` / `hyperm-client` /
//!   `hyperm-monitor` binaries speak.
//!
//! On top of the trait, [`NodeRuntime`] serves the full [`Message`]
//! protocol (join/route/publish/put/get/fetch/query/monitor) around a
//! [`hyperm_core::HypermNetwork`], and [`Client`] is the request/response
//! wrapper the CLI binaries use.
//!
//! Backpressure contract: every endpoint owns a bounded inbox
//! ([`mailbox::Mailbox`]). Senders block up to a timeout when it is full
//! and then fail with [`TransportError::Backpressure`]; TCP reader
//! threads block indefinitely, so kernel flow control pushes back on the
//! remote writer instead.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Every lock is the ranked `hyperm_telemetry::sync::Mutex` (clippy.toml).
#![deny(clippy::disallowed_types)]

pub mod chaos;
pub mod frame;
pub mod mailbox;
pub mod mem;
pub mod runtime;
pub mod tcp;

pub use chaos::{ChaosConfig, ChaosEndpoint, ChaosStats};
pub use frame::{frame_len, read_frame, write_frame, HEADER_LEN, MAX_FRAME};
pub use mem::{MemEndpoint, MemHub};
pub use runtime::{Client, NodeRuntime, RequestPolicy, Role, ServeOutcome};
pub use tcp::TcpEndpoint;

use hyperm_can::codec::CodecError;
use hyperm_can::Message;
use std::time::Duration;

/// Transport-level peer address. Distinct from overlay node ids: a
/// client has a `PeerId` but no overlay zone.
pub type PeerId = u64;

/// A received message, stamped with its sender and the frame header's
/// request-correlation tag (`0` = untagged).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Transport peer that sent the message.
    pub from: PeerId,
    /// Request-correlation tag echoed from the frame header.
    pub req_id: u64,
    /// The decoded message.
    pub msg: Message,
}

/// Errors surfaced by transports and the node runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The endpoint (or its counterparty) is closed.
    Closed,
    /// The destination inbox stayed full for the whole send timeout.
    Backpressure,
    /// Nothing arrived within the receive timeout.
    Timeout,
    /// No route/connection to this peer.
    UnknownPeer(PeerId),
    /// Socket-level failure.
    Io(String),
    /// The peer sent bytes that do not decode.
    Codec(CodecError),
    /// A frame exceeded [`MAX_FRAME`] (hostile length prefix or oversized
    /// payload).
    FrameTooLarge(usize),
    /// The counterparty answered, but with an unexpected or failure
    /// message (e.g. `Ack { ok: false }`).
    Rejected(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "endpoint closed"),
            TransportError::Backpressure => write!(f, "destination inbox full (backpressure)"),
            TransportError::Timeout => write!(f, "timed out"),
            TransportError::UnknownPeer(p) => write!(f, "no route to peer {p}"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
            TransportError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            TransportError::Rejected(what) => write!(f, "request rejected: {what}"),
        }
    }
}

impl TransportError {
    /// Stable machine-readable name of this error's kind, for typed JSON
    /// error objects in the CLI binaries (the human-readable `Display`
    /// string is free to change; this is not).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TransportError::Closed => "closed",
            TransportError::Backpressure => "backpressure",
            TransportError::Timeout => "timeout",
            TransportError::UnknownPeer(_) => "unknown_peer",
            TransportError::Io(_) => "io",
            TransportError::Codec(_) => "codec",
            TransportError::FrameTooLarge(_) => "frame_too_large",
            TransportError::Rejected(_) => "rejected",
        }
    }
}

impl std::error::Error for TransportError {}

/// Addressed, framed message exchange between peers.
///
/// Contract:
/// * `send` is atomic per message: the receiver sees whole [`Message`]s
///   or nothing, never partial frames;
/// * per-sender FIFO: two sends to the same destination arrive in order;
/// * bounded buffering: a full destination inbox blocks the sender and
///   eventually fails with [`TransportError::Backpressure`] — transports
///   never buffer unboundedly;
/// * `recv_timeout` returns messages stamped with the true sender id
///   (on TCP, the id announced by the connection's `Hello` handshake).
pub trait Transport: Send {
    /// This endpoint's peer id.
    fn local(&self) -> PeerId;

    /// Send one message to `to`, untagged (`req_id` 0).
    fn send(&self, to: PeerId, msg: &Message) -> Result<(), TransportError> {
        self.send_tagged(to, 0, msg)
    }

    /// Send one message to `to` with a request-correlation tag stamped
    /// into the frame header. Requesters use a fresh non-zero `req_id`
    /// per attempt; responders echo the request's tag on the reply.
    fn send_tagged(&self, to: PeerId, req_id: u64, msg: &Message) -> Result<(), TransportError>;

    /// Receive the next message, waiting up to `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError>;

    /// Peers currently reachable from this endpoint (connected or
    /// routable), excluding itself. Sorted ascending.
    fn peers(&self) -> Vec<PeerId>;

    /// Shut the endpoint down: closes the inbox and tears down
    /// connections. Further sends and receives fail with
    /// [`TransportError::Closed`].
    fn close(&self);
}
