//! Loopback/LAN TCP transport with length-prefixed frames.
//!
//! One [`TcpEndpoint`] per process: it binds a listener, spawns an accept
//! thread, and gives every connection a reader thread that decodes frames
//! ([`crate::frame`]) into the endpoint's bounded inbox. The first frame
//! on every connection must be [`Message::Hello`] naming the sender —
//! that id stamps all subsequent envelopes from the connection, and
//! registers the socket so replies can be addressed by peer id. A
//! connection is one shared `TcpStream`: its reader thread and every
//! sender borrow it, and it has `TCP_NODELAY` set, so each frame (one
//! `write_all`, see [`crate::frame`]) leaves when it is written.
//!
//! A frame whose body does not decode costs that frame, not the
//! connection: its header was read whole, so the stream is still framed.
//! A request the runtime would answer gets the runtime's refusal on its
//! `req_id` from the reader thread; anything else is dropped. Only an
//! oversized length prefix or a socket error ends a connection.
//!
//! Outbound connections open on demand: `send(to, …)` uses a registered
//! route (`add_route`) when no connection to `to` exists yet, and sends
//! its own `Hello` first. Backpressure: a reader thread whose inbox is
//! full *blocks* (it stops reading the socket), so the kernel's receive
//! window fills and the remote writer stalls — bounded buffering end to
//! end, no unbounded queues.

use crate::frame::{read_body, read_frame, write_frame};
use crate::mailbox::{Mailbox, RecvError};
use crate::runtime::refusal;
use crate::runtime::request::{retry, Attempt};
use crate::{Envelope, PeerId, Transport, TransportError};
use hyperm_can::codec::decode_message;
use hyperm_can::Message;
use hyperm_sim::Backoff;
use hyperm_telemetry::sync::{assert_unlocked, Guard, Mutex};
use hyperm_telemetry::{Name, Recorder, SpanId};
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default inbox bound (frames, not bytes).
pub const DEFAULT_INBOX: usize = 256;

/// Dial attempts per `ensure_conn` (first try + redials), spaced by
/// `Backoff::exponential(1, 8)` gaps of [`DEFAULT_DIAL_TICK`] each.
pub const DEFAULT_DIAL_ATTEMPTS: u32 = 3;

/// Wall-clock length of one backoff tick between dial attempts.
pub const DEFAULT_DIAL_TICK: Duration = Duration::from_millis(25);

/// How long an accepted connection may take to send its `Hello`. A
/// dialer writes it straight after `connect`, so this only expires on a
/// peer that is not speaking the protocol. Unbounded, such a connection
/// would hold its reader thread and descriptor for good: before its
/// `Hello` it is in no pool, so `close` cannot reach it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

struct Shared {
    id: PeerId,
    inbox: Mailbox<Envelope>,
    /// Live connections, by announced peer id.
    conns: Mutex<BTreeMap<PeerId, Arc<TcpStream>>>,
    /// Dial addresses for peers we may need to connect to.
    routes: Mutex<BTreeMap<PeerId, SocketAddr>>,
    /// Peers we held a connection to at some point: a fresh dial to one
    /// of these is a *re*connect, reported as such.
    known: Mutex<BTreeSet<PeerId>>,
    closed: AtomicBool,
    recorder: Recorder,
    span: SpanId,
}

impl Shared {
    fn lock_conns(&self) -> Guard<'_, BTreeMap<PeerId, Arc<TcpStream>>> {
        match self.conns.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn lock_routes(&self) -> Guard<'_, BTreeMap<PeerId, SocketAddr>> {
        match self.routes.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn lock_known(&self) -> Guard<'_, BTreeSet<PeerId>> {
        match self.known.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Serve one accepted connection: handshake, then pump frames into
    /// the inbox until EOF/close.
    fn run_reader(&self, stream: TcpStream) {
        let stream = Arc::new(stream);
        let mut r = BufReader::new(&*stream);
        match handshake(&stream, &mut r) {
            Ok(peer) => {
                self.register(peer, &stream);
                self.pump(peer, &stream, r);
            }
            Err(_) => {
                self.recorder.event(
                    self.span,
                    Name::FrameDrop,
                    vec![("reason", "no_hello".into())],
                );
            }
        }
    }

    /// Pool a handshaken connection, dialed or accepted, under its peer
    /// id. The one place a socket enters `conns`, so the one place
    /// `TCP_NODELAY` is set: without it the tail segment of a frame
    /// larger than one MSS waits for the peer's delayed ACK.
    fn register(&self, peer: PeerId, stream: &Arc<TcpStream>) {
        // Refused only on a socket that is already dead; the next write
        // or read reports that.
        let _ = stream.set_nodelay(true);
        self.lock_conns().insert(peer, Arc::clone(stream));
        let rejoined = !self.lock_known().insert(peer);
        self.recorder
            .event(self.span, Name::Connect, vec![("peer", peer.into())]);
        if rejoined {
            self.recorder
                .event(self.span, Name::Reconnect, vec![("peer", peer.into())]);
        }
    }

    fn pump(&self, peer: PeerId, stream: &Arc<TcpStream>, mut r: BufReader<&TcpStream>) {
        loop {
            if self.closed.load(Ordering::SeqCst) {
                break;
            }
            match read_body(&mut r) {
                Ok((req_id, body)) => {
                    let Ok(msg) = decode_message(&body) else {
                        self.refuse(peer, stream, req_id, &body);
                        continue;
                    };
                    self.recorder
                        .event(self.span, Name::FrameRx, vec![("from", peer.into())]);
                    // Blocking push: a full inbox stops this reader, the
                    // socket buffer fills, and TCP flow control pushes
                    // back on the remote writer.
                    if self
                        .inbox
                        .send_blocking(Envelope {
                            from: peer,
                            req_id,
                            msg,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                Err(TransportError::FrameTooLarge(_)) => {
                    // A hostile length prefix: the rest of the stream
                    // cannot be framed, so drop the connection.
                    self.recorder
                        .event(self.span, Name::FrameDrop, vec![("from", peer.into())]);
                    break;
                }
                Err(_) => break, // EOF or socket error
            }
        }
        self.evict(peer, stream);
        self.recorder
            .event(self.span, Name::Disconnect, vec![("peer", peer.into())]);
    }

    /// Answer a frame whose body does not decode, on its `req_id`: with
    /// the runtime's refusal when the body's kind byte names a request
    /// that has a reply, so its sender fails at once instead of waiting
    /// out its timeouts; otherwise the frame is dropped. Its header was
    /// read whole, so the connection stays framed and is kept.
    fn refuse(&self, peer: PeerId, stream: &TcpStream, req_id: u64, body: &[u8]) {
        let expected = body.first().and_then(|&k| Message::reply_kind_of(k));
        self.recorder.event(
            self.span,
            Name::FrameDrop,
            vec![("from", peer.into()), ("reason", "codec".into())],
        );
        if let Some(expected) = expected {
            // A failed write shows up as the next read's error.
            let _ = write_frame(&mut &*stream, req_id, &refusal(expected));
        }
    }

    /// Drop `stream` from the pool — unless `peer` has been re-registered
    /// on a newer connection since, which stays.
    fn evict(&self, peer: PeerId, stream: &Arc<TcpStream>) {
        let mut conns = self.lock_conns();
        if conns.get(&peer).is_some_and(|s| Arc::ptr_eq(s, stream)) {
            conns.remove(&peer);
        }
    }
}

/// Read the `Hello` that must open an accepted connection, waiting at
/// most [`HANDSHAKE_TIMEOUT`] for it; the timeout is cleared again for
/// the frames that follow.
fn handshake(stream: &TcpStream, r: &mut BufReader<&TcpStream>) -> Result<PeerId, TransportError> {
    let io = |e: std::io::Error| TransportError::Io(e.to_string());
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(io)?;
    let first = read_frame(r)?;
    stream.set_read_timeout(None).map_err(io)?;
    match first {
        (_, Message::Hello { peer }) => Ok(peer),
        _ => Err(TransportError::Rejected("first frame must be Hello")),
    }
}

/// A TCP transport endpoint (listener + connection pool + bounded inbox).
pub struct TcpEndpoint {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
}

impl TcpEndpoint {
    /// Bind `addr` (e.g. `127.0.0.1:0`) as peer `id` and start accepting.
    pub fn bind(id: PeerId, addr: &str) -> Result<Self, TransportError> {
        Self::bind_traced(id, addr, DEFAULT_INBOX, Recorder::disabled())
    }

    /// [`TcpEndpoint::bind`] with an explicit inbox bound and a telemetry
    /// recorder for `connect`/`disconnect`/`frame_*` events.
    pub fn bind_traced(
        id: PeerId,
        addr: &str,
        inbox_capacity: usize,
        recorder: Recorder,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let span = recorder.span(SpanId::NONE, Name::Transport, vec![("peer", id.into())]);
        let shared = Arc::new(Shared {
            id,
            inbox: Mailbox::bounded(inbox_capacity),
            conns: Mutex::new(BTreeMap::new()),
            routes: Mutex::new(BTreeMap::new()),
            known: Mutex::new(BTreeSet::new()),
            closed: AtomicBool::new(false),
            recorder,
            span,
        });
        let accept_shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.closed.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || conn_shared.run_reader(stream));
            }
        });
        Ok(Self { shared, local_addr })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Register where `peer` can be dialed. `send` connects on demand.
    pub fn add_route(&self, peer: PeerId, addr: SocketAddr) {
        self.shared.lock_routes().insert(peer, addr);
    }

    /// Dial `peer` now (handshaking with `Hello`) instead of waiting for
    /// the first send. Also registers the route.
    pub fn connect(&self, peer: PeerId, addr: SocketAddr) -> Result<(), TransportError> {
        self.add_route(peer, addr);
        self.ensure_conn(peer)?;
        Ok(())
    }

    /// A live connection to `peer`: the pooled one when it exists,
    /// otherwise a fresh dial — retried up to [`DEFAULT_DIAL_ATTEMPTS`]
    /// times with backoff, because an evicted connection usually means
    /// the peer is restarting, not gone.
    fn ensure_conn(&self, peer: PeerId) -> Result<Arc<TcpStream>, TransportError> {
        if let Some(s) = self.shared.lock_conns().get(&peer) {
            return Ok(Arc::clone(s));
        }
        let addr = self
            .shared
            .lock_routes()
            .get(&peer)
            .copied()
            .ok_or(TransportError::UnknownPeer(peer))?;
        let outcome = retry(
            DEFAULT_DIAL_ATTEMPTS,
            &Backoff::exponential(1, 8),
            DEFAULT_DIAL_TICK,
            |attempt| {
                self.shared.recorder.event(
                    self.shared.span,
                    Name::Retry,
                    vec![
                        ("peer", peer.into()),
                        ("attempt", u64::from(attempt).into()),
                    ],
                );
            },
            || {
                if self.shared.closed.load(Ordering::SeqCst) {
                    return Attempt::Fatal(TransportError::Closed);
                }
                match self.dial(peer, addr) {
                    Ok(stream) => Attempt::Done(stream),
                    Err(e) => Attempt::Again(e),
                }
            },
        );
        match outcome {
            Attempt::Done(stream) => Ok(stream),
            Attempt::Fatal(e) | Attempt::Again(e) => Err(e),
        }
    }

    /// One dial + `Hello` handshake to `peer` at `addr`, pooling the
    /// connection and starting its reader thread.
    fn dial(&self, peer: PeerId, addr: SocketAddr) -> Result<Arc<TcpStream>, TransportError> {
        assert_unlocked();
        let stream = TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        write_frame(
            &mut &stream,
            0,
            &Message::Hello {
                peer: self.shared.id,
            },
        )?;
        let stream = Arc::new(stream);
        self.shared.register(peer, &stream);
        let shared = Arc::clone(&self.shared);
        let reader_stream = Arc::clone(&stream);
        std::thread::spawn(move || {
            shared.pump(peer, &reader_stream, BufReader::new(&*reader_stream));
        });
        Ok(stream)
    }
}

impl Transport for TcpEndpoint {
    fn local(&self) -> PeerId {
        self.shared.id
    }

    fn send_tagged(&self, to: PeerId, req_id: u64, msg: &Message) -> Result<(), TransportError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        // Two passes: if the pooled connection turns out to be dead at
        // write time, evict it and redial once (with ensure_conn's own
        // backoff) before giving up.
        let mut last = TransportError::UnknownPeer(to);
        for _pass in 0..2 {
            let stream = self.ensure_conn(to)?;
            match write_frame(&mut &*stream, req_id, msg) {
                Ok(n) => {
                    self.shared.recorder.event(
                        self.shared.span,
                        Name::FrameTx,
                        vec![("to", to.into()), ("bytes", (n as u64).into())],
                    );
                    return Ok(());
                }
                Err(e) => {
                    // The pooled connection died; drop it so the retry
                    // (and any later send) redials.
                    self.shared.evict(to, &stream);
                    last = e;
                }
            }
        }
        Err(last)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        match self.shared.inbox.recv_timeout(timeout) {
            Ok(env) => Ok(env),
            Err(RecvError::Timeout) => Err(TransportError::Timeout),
            Err(RecvError::Closed) => Err(TransportError::Closed),
        }
    }

    fn peers(&self) -> Vec<PeerId> {
        let mut ids: Vec<PeerId> = self.shared.lock_conns().keys().copied().collect();
        for &p in self.shared.lock_routes().keys() {
            if !ids.contains(&p) {
                ids.push(p);
            }
        }
        ids.sort_unstable();
        ids.retain(|&p| p != self.shared.id);
        ids
    }

    fn close(&self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.inbox.close();
        let conns = std::mem::take(&mut *self.shared.lock_conns());
        for (_, s) in conns {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        // Wake the accept thread so it observes `closed` and exits.
        assert_unlocked();
        let _ = TcpStream::connect(self.local_addr);
        self.shared
            .recorder
            .end(self.shared.span, Name::Transport, vec![]);
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip_with_hello_handshake() {
        let a = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        let b = TcpEndpoint::bind(2, "127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        a.send(2, &Message::Ack { seq: 5, ok: true }).unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, Message::Ack { seq: 5, ok: true });
        // b can reply over the same connection without a route to a.
        b.send(1, &Message::Ack { seq: 6, ok: false }).unwrap();
        let env = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from, 2);
        assert_eq!(env.msg, Message::Ack { seq: 6, ok: false });
        a.close();
        b.close();
    }

    #[test]
    fn both_ends_of_a_connection_have_nodelay_set() {
        let a = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        let b = TcpEndpoint::bind(2, "127.0.0.1:0").unwrap();
        a.connect(2, b.local_addr()).unwrap();
        // b registers the accepted socket before it pumps the first
        // frame, so once that frame is out of b's inbox the pool has it.
        a.send(2, &Message::Monitor).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        let dialed = a.shared.lock_conns().get(&2).map(|s| s.nodelay().unwrap());
        let accepted = b.shared.lock_conns().get(&1).map(|s| s.nodelay().unwrap());
        assert_eq!((dialed, accepted), (Some(true), Some(true)));
    }

    #[test]
    fn silent_dialer_is_dropped_after_the_handshake_timeout() {
        use std::io::Read;
        let (recorder, ring) = Recorder::ring(64);
        let b = TcpEndpoint::bind_traced(2, "127.0.0.1:0", DEFAULT_INBOX, recorder).unwrap();
        let started = std::time::Instant::now();
        let mut silent = TcpStream::connect(b.local_addr()).unwrap();

        // An honest client is served while the silent one is pending...
        let a = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        a.connect(2, b.local_addr()).unwrap();
        a.send(2, &Message::Ping { seq: 1 }).unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((env.from, env.msg), (1, Message::Ping { seq: 1 }));

        // ...the silent one sees EOF, not before the timeout and well
        // before its own read gives up...
        silent
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT * 5))
            .unwrap();
        assert_eq!(silent.read(&mut [0u8; 1]).unwrap(), 0, "b must hang up");
        assert!(started.elapsed() >= HANDSHAKE_TIMEOUT);
        let no_hello = ring
            .events()
            .iter()
            .filter(|e| e.name == Name::FrameDrop && e.field("reason") == Some(&"no_hello".into()))
            .count();
        assert_eq!(no_hello, 1);

        // ...and the honest client's connection outlives it.
        a.send(2, &Message::Ping { seq: 2 }).unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((env.from, env.msg), (1, Message::Ping { seq: 2 }));
    }

    #[test]
    fn send_without_route_is_unknown_peer() {
        let a = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        assert_eq!(
            a.send(9, &Message::Monitor).unwrap_err(),
            TransportError::UnknownPeer(9)
        );
    }

    #[test]
    fn closed_endpoint_refuses() {
        let a = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        a.close();
        assert_eq!(
            a.send(1, &Message::Monitor).unwrap_err(),
            TransportError::Closed
        );
        assert_eq!(
            a.recv_timeout(Duration::from_millis(1)).unwrap_err(),
            TransportError::Closed
        );
    }
}
