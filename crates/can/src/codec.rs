//! Binary wire codec for overlay messages.
//!
//! The simulators charge byte costs per message; this module makes those
//! costs *real* by defining the actual on-wire encoding of everything that
//! crosses the network. It started as two payload records — published
//! cluster objects and range queries — and grew into the full [`Message`]
//! enum the `hyperm-transport` crate frames over channels and loopback
//! TCP: join/route/publish/get/fetch/query traffic and their acks. All
//! sizes reported by [`StoredObject::wire_bytes`] equal the encoder's
//! output length exactly (asserted by tests), so the simulated byte counts
//! are what a real deployment transmits.
//!
//! Hardening contract (every byte may come from an untrusted peer):
//!
//! * decoding **never panics** — every failure is a typed [`CodecError`];
//! * length fields are validated against the remaining buffer *before*
//!   any allocation sized by them (a 2-byte header cannot make us reserve
//!   512 KiB for a 10-byte frame);
//! * encoding is fallible too: a dimension that does not fit the `u16`
//!   wire field is [`CodecError::DimTooLarge`], not an `assert!`.
//!
//! Layout (little-endian, fixed width — these are small records, varints
//! would save ≤ 10% at the cost of branchy decode on battery devices):
//!
//! ```text
//! object:  id u64 | dim u16 | centre f64×dim | radius f64 | peer u64 | tag u64 | items u32
//! query:   dim u16 | centre f64×dim | radius f64
//! message: kind u8 | kind-specific body (see the frame table in DESIGN.md)
//! ctx:     trace_id u64 | parent_span u64   (tail of query/fetch/publish)
//! ```
//!
//! Query, fetch and publish bodies end with a 16-byte
//! [`hyperm_telemetry::TraceCtx`] that is **always encoded** — all zeroes
//! when untraced — so frame layout, and therefore the byte streams the
//! bit-identity tests compare, is independent of whether tracing is on.

// Wire numbers convert through `From`/`TryFrom`, never `as`, and no
// decode path unwraps: a hostile frame gets a typed error.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::as_conversions
)]

use crate::ops::{ObjectRef, StoredObject};
use hyperm_telemetry::TraceCtx;

/// Errors from encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the record did.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The buffer is longer than one record.
    TrailingBytes(usize),
    /// A floating-point field decoded to NaN/∞, a count overflowed, or a
    /// field value is outside its domain.
    CorruptField(&'static str),
    /// Encode-side: a dimension does not fit the `u16` wire field.
    DimTooLarge(usize),
    /// A message frame's kind byte names no known [`Message`] variant.
    UnknownKind(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "truncated record: needed {needed} bytes, got {got}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
            CodecError::CorruptField(name) => write!(f, "corrupt field {name}"),
            CodecError::DimTooLarge(d) => {
                write!(f, "dimension {d} exceeds the u16 wire format")
            }
            CodecError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for CodecError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Pre-validate that `n` more bytes exist *without* consuming them —
    /// called before any allocation sized by a wire-derived count.
    fn need(&self, n: usize) -> Result<(), CodecError> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => Ok(()),
            Some(end) => Err(CodecError::Truncated {
                needed: end,
                got: self.buf.len(),
            }),
            // `pos + n` overflowed usize: the frame cannot possibly hold it.
            None => Err(CodecError::Truncated {
                needed: usize::MAX,
                got: self.buf.len(),
            }),
        }
    }

    /// `count` elements read by `elem`, each at least `min_bytes` on the
    /// wire. The count is checked against the remaining bytes (with
    /// `checked_mul`) before the vector is allocated: this is the
    /// decoder's one allocation sized by a wire-derived count, so a short
    /// frame declaring a huge count is [`CodecError::Truncated`].
    ///
    /// Forced inline: called out of line from `decode_message`, the
    /// 200-item `QueryAck` decode took ≈ 1.5× as long.
    #[inline(always)]
    fn seq<T>(
        &mut self,
        count: usize,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        // A byte count that overflows cannot fit any frame either.
        self.need(count.saturating_mul(min_bytes))?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// A `u32` count or length field.
    fn count(&mut self, field: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u32()?).map_err(|_| CodecError::CorruptField(field))
    }

    /// A `u16` dimension field.
    fn dim(&mut self) -> Result<usize, CodecError> {
        Ok(usize::from(self.u16()?))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        // Checked: once length-prefixed framing feeds wire-derived lengths
        // through here, `pos + n` can overflow on hostile input.
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Fixed-width read as an owned array. `take(N)` already guarantees
    /// the slice is exactly `N` bytes, but the conversion returns a
    /// typed error rather than unwrapping so no decode path can panic
    /// even if that invariant is ever broken.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| CodecError::Truncated { needed: N, got: 0 })
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A peer/node index: `u64` on the wire, checked into `usize` (a
    /// 32-bit host must reject ids it cannot even address).
    fn peer_id(&mut self, field: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::CorruptField(field))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        let v = f64::from_le_bytes(self.array()?);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CodecError::CorruptField(field))
        }
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

/// Encoded length of an object record with `dim` centre coordinates.
pub fn object_wire_len(dim: usize) -> usize {
    8 + 2 + 8 * dim + 8 + 8 + 8 + 4
}

/// Encoded length of a query record with `dim` centre coordinates.
pub fn query_wire_len(dim: usize) -> usize {
    2 + 8 * dim + 8
}

fn write_object(out: &mut Vec<u8>, obj: &StoredObject) -> Result<(), CodecError> {
    let dim = obj.centre.len();
    let wire_dim = u16::try_from(dim).map_err(|_| CodecError::DimTooLarge(dim))?;
    out.extend_from_slice(&obj.id.to_le_bytes());
    out.extend_from_slice(&wire_dim.to_le_bytes());
    for &x in &obj.centre {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.extend_from_slice(&obj.radius.to_le_bytes());
    let peer = u64::try_from(obj.payload.peer).map_err(|_| CodecError::CorruptField("peer"))?;
    out.extend_from_slice(&peer.to_le_bytes());
    out.extend_from_slice(&obj.payload.tag.to_le_bytes());
    out.extend_from_slice(&obj.payload.items.to_le_bytes());
    Ok(())
}

fn read_object(r: &mut Reader<'_>) -> Result<StoredObject, CodecError> {
    let id = r.u64()?;
    let dim = r.dim()?;
    let centre = r.seq(dim, 8, |r| r.f64("centre"))?;
    let radius = r.f64("radius")?;
    if radius < 0.0 {
        return Err(CodecError::CorruptField("radius"));
    }
    let peer = r.peer_id("peer")?;
    let tag = r.u64()?;
    let items = r.u32()?;
    Ok(StoredObject {
        id,
        centre,
        radius,
        payload: ObjectRef { peer, tag, items },
    })
}

fn write_vec_f64(out: &mut Vec<u8>, v: &[f64]) -> Result<(), CodecError> {
    let dim = u16::try_from(v.len()).map_err(|_| CodecError::DimTooLarge(v.len()))?;
    out.extend_from_slice(&dim.to_le_bytes());
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Ok(())
}

fn read_vec_f64(r: &mut Reader<'_>, field: &'static str) -> Result<Vec<f64>, CodecError> {
    let dim = r.dim()?;
    r.seq(dim, 8, |r| r.f64(field))
}

fn read_radius(r: &mut Reader<'_>, field: &'static str) -> Result<f64, CodecError> {
    let radius = r.f64(field)?;
    if radius < 0.0 {
        return Err(CodecError::CorruptField(field));
    }
    Ok(radius)
}

/// Encode a stored object for transmission.
pub fn encode_object(obj: &StoredObject) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(object_wire_len(obj.centre.len().min(usize::from(u16::MAX))));
    write_object(&mut out, obj)?;
    debug_assert_eq!(out.len(), object_wire_len(obj.centre.len()));
    Ok(out)
}

/// Decode one object record.
pub fn decode_object(buf: &[u8]) -> Result<StoredObject, CodecError> {
    let mut r = Reader::new(buf);
    let obj = read_object(&mut r)?;
    r.finish()?;
    Ok(obj)
}

/// Encode a range-query record.
pub fn encode_query(centre: &[f64], radius: f64) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(query_wire_len(centre.len().min(usize::from(u16::MAX))));
    write_vec_f64(&mut out, centre)?;
    out.extend_from_slice(&radius.to_le_bytes());
    Ok(out)
}

/// Decode one range-query record into `(centre, radius)`.
pub fn decode_query(buf: &[u8]) -> Result<(Vec<f64>, f64), CodecError> {
    let mut r = Reader::new(buf);
    let centre = read_vec_f64(&mut r, "centre")?;
    let radius = read_radius(&mut r, "radius")?;
    r.finish()?;
    Ok((centre, radius))
}

// ---------------------------------------------------------------------------
// The full message enum framed by `hyperm-transport`.
// ---------------------------------------------------------------------------

/// Every message the transport layer frames between peers.
///
/// Requests and replies pair up as the `protocol!` list below this enum
/// states (`REQUEST => REPLY`; [`Message::reply_kind_of`] reads it).
/// `Ack { seq, ok: false }` is the generic failure reply, with `seq`
/// echoing the *expected* reply kind so forwarding nodes can route it
/// back to the right requester.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Transport-level introduction: the first frame on every connection,
    /// naming the sender so replies can be addressed.
    Hello {
        /// Sender's transport peer id.
        peer: u64,
    },
    /// A latecomer joins the network, carrying its collection (row-major).
    Join {
        /// Joining node's transport peer id.
        peer: u64,
        /// Data dimensionality of each row.
        dim: u16,
        /// `rows.len() / dim` items, flattened row-major.
        rows: Vec<f64>,
    },
    /// Join accepted.
    JoinAck {
        /// Assigned dense peer id (== overlay node id at every level).
        peer: u64,
        /// Network size after the join.
        members: u64,
    },
    /// Owner lookup: who owns this key at this overlay level?
    Route {
        /// Overlay level.
        level: u16,
        /// Key-space point.
        key: Vec<f64>,
    },
    /// Owner lookup reply.
    RouteAck {
        /// Overlay level echoed.
        level: u16,
        /// Owning overlay node id.
        owner: u64,
    },
    /// Publish one sphere object into an overlay level.
    Publish {
        /// Overlay level.
        level: u16,
        /// Replicate into every overlapping zone (Section 5 semantics).
        replicate: bool,
        /// The object; its `id` is publisher-local and echoed in the ack.
        object: StoredObject,
        /// Distributed trace context (all zeroes when untraced).
        ctx: TraceCtx,
    },
    /// Publish accepted.
    PublishAck {
        /// Overlay level echoed.
        level: u16,
        /// Publisher-local object id echoed from the request.
        object_id: u64,
        /// Zones that stored a replica.
        replicas: u32,
        /// Zones the sphere overlaps (`replicas < targets` = coverage hole).
        targets: u32,
    },
    /// Full Hyper-M range query in original data space.
    Query {
        /// Query centre (data space, `data_dim` wide).
        centre: Vec<f64>,
        /// Search radius ε ≥ 0.
        eps: f64,
        /// Peer contact budget; `u32::MAX` = contact every candidate.
        budget: u32,
        /// Distributed trace context (all zeroes when untraced).
        ctx: TraceCtx,
    },
    /// Range-query reply.
    QueryAck {
        /// Retrieved items as `(peer, local index)` pairs.
        items: Vec<(u64, u64)>,
        /// Simulated overlay hops charged.
        hops: u64,
        /// Simulated messages charged.
        messages: u64,
        /// Simulated bytes charged.
        bytes: u64,
    },
    /// Overlay-level point lookup: stored spheres covering a key.
    Get {
        /// Overlay level.
        level: u16,
        /// Key-space point.
        key: Vec<f64>,
    },
    /// Point-lookup reply.
    GetAck {
        /// Overlay level echoed.
        level: u16,
        /// Stored objects whose spheres cover the key.
        objects: Vec<StoredObject>,
    },
    /// Direct phase-2 fetch against one peer's local collection.
    Fetch {
        /// Target peer id.
        peer: u64,
        /// Query centre (data space).
        centre: Vec<f64>,
        /// Search radius ε ≥ 0.
        eps: f64,
        /// Distributed trace context (all zeroes when untraced).
        ctx: TraceCtx,
    },
    /// Fetch reply.
    FetchAck {
        /// Target peer echoed.
        peer: u64,
        /// Matching local item indices.
        indices: Vec<u64>,
    },
    /// Generic acknowledgement / failure notice.
    Ack {
        /// Request-specific tag; for failures, the expected reply kind.
        seq: u64,
        /// Whether the request succeeded.
        ok: bool,
    },
    /// Ask a node for its live overlay state.
    Monitor,
    /// Overlay state dump.
    MonitorAck {
        /// JSON document (zones, neighbours, summary counts).
        json: String,
    },
    /// Orderly shutdown request; acked before the node exits its loop.
    Shutdown,
    /// Insert one data item into a peer's live collection.
    Put {
        /// Target peer id.
        peer: u64,
        /// The item, in original data space.
        item: Vec<f64>,
        /// Re-publish the absorbed cluster sphere (vs. stale summaries).
        republish: bool,
    },
    /// Put accepted.
    PutAck {
        /// Target peer echoed.
        peer: u64,
        /// The item's new local index in the peer's collection.
        index: u64,
    },
    /// Ask a node for its sliding-window metrics snapshot.
    Stats,
    /// Window-metrics snapshot dump.
    StatsAck {
        /// JSON document (one [`hyperm_telemetry::WindowSnapshot`]).
        json: String,
    },
    /// Wire heartbeat: is the peer alive and serving?
    Ping {
        /// Sender-local heartbeat sequence number, echoed by the pong.
        seq: u64,
    },
    /// Heartbeat answer.
    Pong {
        /// The ping's sequence number, echoed.
        seq: u64,
    },
}

/// The wire protocol, stated once: one row per message kind —
///
/// ```text
/// byte  kind:: const  Message:: variant  wire name  [=> reply kind [idempotent]];
/// ```
///
/// — from which this macro emits the [`kind`] module (a `u8` const per
/// row, `ALL`, `IDEMPOTENT`), the `REPLIES` pairing table and
/// `Message::{kind, kind_name}`. A row without `=>` is not a request, and
/// the grammar has no place for `idempotent` on it. The compiler carries
/// the rest: a reply that names no row does not resolve, a variant
/// without a row (or a row without a variant) fails the `match`es here,
/// in [`write_message`] and in the transport's dispatch, and the `const`
/// assertions after the list check bytes and pairing.
macro_rules! protocol {
    (@reply) => { None };
    (@reply $REPLY:ident) => { Some(kind::$REPLY) };
    (@idempotent idempotent $KIND:ident) => { $KIND };
    ($($byte:literal $KIND:ident $Variant:ident $name:literal
        $(=> $REPLY:ident $($idempotent:ident)?)?;)*) => {
        /// Message kind bytes (the first byte of every encoded message).
        pub mod kind {
            $(
                #[doc = concat!("[`super::Message::", stringify!($Variant), "`].")]
                pub const $KIND: u8 = $byte;
            )*

            /// Every kind byte paired with its [`super::Message`] variant
            /// name, in byte order.
            pub const ALL: &[(u8, &str)] = &[$(($KIND, stringify!($Variant))),*];

            /// Request kinds whose effect is idempotent at the receiver: a
            /// duplicate delivery (from a resend racing a slow reply) is
            /// indistinguishable from a single one, so the transport may
            /// resend them after a timeout.
            pub const IDEMPOTENT: &[u8] =
                &[$($($(protocol!(@idempotent $idempotent $KIND),)?)?)*];
        }

        /// The reply kind each kind expects, indexed by kind byte.
        const REPLIES: [Option<u8>; kind::ALL.len()] = [$(protocol!(@reply $($REPLY)?)),*];

        impl Message {
            /// The kind byte this message encodes with (see [`kind`]).
            pub fn kind(&self) -> u8 {
                match self {
                    $(Message::$Variant { .. } => kind::$KIND,)*
                }
            }

            /// Human-readable kind name (for logs and monitor output).
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $(Message::$Variant { .. } => $name,)*
                }
            }
        }
    };
}

// Reads, scrapes and heartbeats are idempotent; `Join` is because the
// head's rejoin map resolves a duplicate join to the peer's existing
// overlay id. `Put`/`Publish` mutate (a resend whose first copy landed
// would double-apply) and `Shutdown` races its own effect, so they get
// exactly one attempt.
protocol! {
     0  HELLO        Hello       "hello";
     1  JOIN         Join        "join"         => JOIN_ACK     idempotent;
     2  JOIN_ACK     JoinAck     "join_ack";
     3  ROUTE        Route       "route"        => ROUTE_ACK    idempotent;
     4  ROUTE_ACK    RouteAck    "route_ack";
     5  PUBLISH      Publish     "publish"      => PUBLISH_ACK;
     6  PUBLISH_ACK  PublishAck  "publish_ack";
     7  QUERY        Query       "query"        => QUERY_ACK    idempotent;
     8  QUERY_ACK    QueryAck    "query_ack";
     9  GET          Get         "get"          => GET_ACK      idempotent;
    10  GET_ACK      GetAck      "get_ack";
    11  FETCH        Fetch       "fetch"        => FETCH_ACK    idempotent;
    12  FETCH_ACK    FetchAck    "fetch_ack";
    13  ACK          Ack         "ack";
    14  MONITOR      Monitor     "monitor"      => MONITOR_ACK  idempotent;
    15  MONITOR_ACK  MonitorAck  "monitor_ack";
    16  SHUTDOWN     Shutdown    "shutdown"     => ACK;
    17  PUT          Put         "put"          => PUT_ACK;
    18  PUT_ACK      PutAck      "put_ack";
    19  STATS        Stats       "stats"        => STATS_ACK    idempotent;
    20  STATS_ACK    StatsAck    "stats_ack";
    21  PING         Ping        "ping"         => PONG         idempotent;
    22  PONG         Pong        "pong";
}

// Kind bytes count up from 0 in list order, so they are unique and
// `REPLIES` can be indexed by byte.
#[expect(
    clippy::as_conversions,
    reason = "const context: usize::from is not a const fn"
)]
const _: () = {
    let mut k = 0;
    while k < kind::ALL.len() {
        assert!(
            kind::ALL[k].0 as usize == k,
            "kind bytes must be 0, 1, 2, … in list order"
        );
        k += 1;
    }
};

// Pairing is one level deep, and every kind is a request, some request's
// reply, or the `HELLO` handshake.
#[expect(
    clippy::as_conversions,
    reason = "const context: usize::from is not a const fn"
)]
const _: () = {
    let mut k = 0;
    while k < REPLIES.len() {
        match REPLIES[k] {
            Some(reply) => assert!(
                REPLIES[reply as usize].is_none(),
                "a reply kind cannot expect a reply of its own"
            ),
            None => {
                let mut answers_a_request = false;
                let mut q = 0;
                while q < REPLIES.len() {
                    answers_a_request |= matches!(REPLIES[q], Some(reply) if reply as usize == k);
                    q += 1;
                }
                assert!(
                    answers_a_request || k == kind::HELLO as usize,
                    "every kind is a request, a request's reply, or HELLO"
                );
            }
        }
        k += 1;
    }
};

impl Message {
    /// The trace-context slot of the kinds that carry one (`Query`,
    /// `Fetch`, `Publish`): read it to stitch a serve span under the
    /// sender's, overwrite it to re-parent a relayed frame.
    pub fn ctx_mut(&mut self) -> Option<&mut TraceCtx> {
        match self {
            Message::Query { ctx, .. }
            | Message::Fetch { ctx, .. }
            | Message::Publish { ctx, .. } => Some(ctx),
            _ => None,
        }
    }

    /// The reply kind a request of kind `k` expects, if it expects one.
    pub fn reply_kind_of(k: u8) -> Option<u8> {
        REPLIES.get(usize::from(k)).copied().flatten()
    }

    /// Whether this is a request the receiver can safely see twice (see
    /// [`kind::IDEMPOTENT`]).
    pub fn is_idempotent(&self) -> bool {
        kind::IDEMPOTENT.contains(&self.kind())
    }
}

fn write_u32_count(out: &mut Vec<u8>, n: usize, field: &'static str) -> Result<(), CodecError> {
    let n = u32::try_from(n).map_err(|_| CodecError::CorruptField(field))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

/// Trace context: two fixed words at the *end* of the body, always
/// present (zeroes = untraced), so every other field keeps its offset and
/// frame length is independent of whether tracing is enabled.
fn write_ctx(out: &mut Vec<u8>, ctx: TraceCtx) {
    out.extend_from_slice(&ctx.trace_id.to_le_bytes());
    out.extend_from_slice(&ctx.parent_span.to_le_bytes());
}

fn read_ctx(r: &mut Reader<'_>) -> Result<TraceCtx, CodecError> {
    Ok(TraceCtx {
        trace_id: r.u64()?,
        parent_span: r.u64()?,
    })
}

/// Upper bound on the encoded body of an encodable `msg`: every kind's
/// fixed fields fit in 48 bytes (the widest, `Fetch`, takes 35), plus its
/// variable-length payload. Sizes the output buffer once instead of
/// letting a 4 KiB query double its way up from a few bytes.
fn body_len_bound(msg: &Message) -> usize {
    let payload = match msg {
        Message::Join { rows, .. } => 8 * rows.len(),
        Message::Route { key, .. } | Message::Get { key, .. } => 8 * key.len(),
        Message::Publish { object, .. } => object_wire_len(object.centre.len()),
        Message::Query { centre, .. } | Message::Fetch { centre, .. } => 8 * centre.len(),
        Message::QueryAck { items, .. } => 16 * items.len(),
        Message::GetAck { objects, .. } => objects
            .iter()
            .map(|o| object_wire_len(o.centre.len()))
            .sum(),
        Message::FetchAck { indices, .. } => 8 * indices.len(),
        Message::MonitorAck { json } | Message::StatsAck { json } => json.len(),
        Message::Put { item, .. } => 8 * item.len(),
        _ => 0,
    };
    48 + payload
}

/// Encode a message body (kind byte + payload, no length prefix — the
/// transport layer adds framing).
pub fn encode_message(msg: &Message) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_message_into(&mut out, msg)?;
    Ok(out)
}

/// Append the body [`encode_message`] would return to `out`, after
/// whatever `out` already holds (the transport's frame header, say).
/// On error `out` is left as it was.
pub fn encode_message_into(out: &mut Vec<u8>, msg: &Message) -> Result<(), CodecError> {
    let start = out.len();
    out.reserve(body_len_bound(msg));
    let res = write_message(out, msg);
    if res.is_err() {
        out.truncate(start);
    }
    res
}

fn write_message(out: &mut Vec<u8>, msg: &Message) -> Result<(), CodecError> {
    out.push(msg.kind());
    match msg {
        Message::Hello { peer } => out.extend_from_slice(&peer.to_le_bytes()),
        Message::Join { peer, dim, rows } => {
            let dim_len = usize::from(*dim);
            if dim_len == 0 || rows.len() % dim_len != 0 {
                return Err(CodecError::CorruptField("rows"));
            }
            out.extend_from_slice(&peer.to_le_bytes());
            out.extend_from_slice(&dim.to_le_bytes());
            write_u32_count(out, rows.len() / dim_len, "rows")?;
            for &x in rows {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Message::JoinAck { peer, members } => {
            out.extend_from_slice(&peer.to_le_bytes());
            out.extend_from_slice(&members.to_le_bytes());
        }
        Message::Route { level, key } => {
            out.extend_from_slice(&level.to_le_bytes());
            write_vec_f64(out, key)?;
        }
        Message::RouteAck { level, owner } => {
            out.extend_from_slice(&level.to_le_bytes());
            out.extend_from_slice(&owner.to_le_bytes());
        }
        Message::Publish {
            level,
            replicate,
            object,
            ctx,
        } => {
            out.extend_from_slice(&level.to_le_bytes());
            out.push(u8::from(*replicate));
            write_object(out, object)?;
            write_ctx(out, *ctx);
        }
        Message::PublishAck {
            level,
            object_id,
            replicas,
            targets,
        } => {
            out.extend_from_slice(&level.to_le_bytes());
            out.extend_from_slice(&object_id.to_le_bytes());
            out.extend_from_slice(&replicas.to_le_bytes());
            out.extend_from_slice(&targets.to_le_bytes());
        }
        Message::Query {
            centre,
            eps,
            budget,
            ctx,
        } => {
            write_vec_f64(out, centre)?;
            out.extend_from_slice(&eps.to_le_bytes());
            out.extend_from_slice(&budget.to_le_bytes());
            write_ctx(out, *ctx);
        }
        Message::QueryAck {
            items,
            hops,
            messages,
            bytes,
        } => {
            write_u32_count(out, items.len(), "items")?;
            for &(p, i) in items {
                out.extend_from_slice(&p.to_le_bytes());
                out.extend_from_slice(&i.to_le_bytes());
            }
            out.extend_from_slice(&hops.to_le_bytes());
            out.extend_from_slice(&messages.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        Message::Get { level, key } => {
            out.extend_from_slice(&level.to_le_bytes());
            write_vec_f64(out, key)?;
        }
        Message::GetAck { level, objects } => {
            out.extend_from_slice(&level.to_le_bytes());
            write_u32_count(out, objects.len(), "objects")?;
            for obj in objects {
                write_object(out, obj)?;
            }
        }
        Message::Fetch {
            peer,
            centre,
            eps,
            ctx,
        } => {
            out.extend_from_slice(&peer.to_le_bytes());
            write_vec_f64(out, centre)?;
            out.extend_from_slice(&eps.to_le_bytes());
            write_ctx(out, *ctx);
        }
        Message::FetchAck { peer, indices } => {
            out.extend_from_slice(&peer.to_le_bytes());
            write_u32_count(out, indices.len(), "indices")?;
            for &i in indices {
                out.extend_from_slice(&i.to_le_bytes());
            }
        }
        Message::Ack { seq, ok } => {
            out.extend_from_slice(&seq.to_le_bytes());
            out.push(u8::from(*ok));
        }
        Message::Monitor | Message::Shutdown | Message::Stats => {}
        Message::MonitorAck { json } | Message::StatsAck { json } => {
            write_u32_count(out, json.len(), "json")?;
            out.extend_from_slice(json.as_bytes());
        }
        Message::Put {
            peer,
            item,
            republish,
        } => {
            out.extend_from_slice(&peer.to_le_bytes());
            write_vec_f64(out, item)?;
            out.push(u8::from(*republish));
        }
        Message::PutAck { peer, index } => {
            out.extend_from_slice(&peer.to_le_bytes());
            out.extend_from_slice(&index.to_le_bytes());
        }
        Message::Ping { seq } | Message::Pong { seq } => {
            out.extend_from_slice(&seq.to_le_bytes());
        }
    }
    Ok(())
}

fn read_bool(r: &mut Reader<'_>, field: &'static str) -> Result<bool, CodecError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::CorruptField(field)),
    }
}

/// A `u32`-length-prefixed UTF-8 string.
fn read_string(r: &mut Reader<'_>, field: &'static str) -> Result<String, CodecError> {
    let len = r.count(field)?;
    let bytes = r.take(len)?;
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| CodecError::CorruptField(field))
}

/// Decode one message body (as produced by [`encode_message`]). Every
/// count is validated against the remaining bytes before allocation, and
/// any leftover bytes are a [`CodecError::TrailingBytes`] error.
pub fn decode_message(buf: &[u8]) -> Result<Message, CodecError> {
    let mut r = Reader::new(buf);
    let k = r.u8()?;
    let msg = match k {
        kind::HELLO => Message::Hello { peer: r.u64()? },
        kind::JOIN => {
            let peer = r.u64()?;
            let dim = r.u16()?;
            if dim == 0 {
                return Err(CodecError::CorruptField("dim"));
            }
            // Saturating: an overflowing row count is a truncated frame.
            let values = r.count("rows")?.saturating_mul(usize::from(dim));
            let rows = r.seq(values, 8, |r| r.f64("rows"))?;
            Message::Join { peer, dim, rows }
        }
        kind::JOIN_ACK => Message::JoinAck {
            peer: r.u64()?,
            members: r.u64()?,
        },
        kind::ROUTE => Message::Route {
            level: r.u16()?,
            key: read_vec_f64(&mut r, "key")?,
        },
        kind::ROUTE_ACK => Message::RouteAck {
            level: r.u16()?,
            owner: r.u64()?,
        },
        kind::PUBLISH => Message::Publish {
            level: r.u16()?,
            replicate: read_bool(&mut r, "replicate")?,
            object: read_object(&mut r)?,
            ctx: read_ctx(&mut r)?,
        },
        kind::PUBLISH_ACK => Message::PublishAck {
            level: r.u16()?,
            object_id: r.u64()?,
            replicas: r.u32()?,
            targets: r.u32()?,
        },
        kind::QUERY => {
            let centre = read_vec_f64(&mut r, "centre")?;
            let eps = read_radius(&mut r, "eps")?;
            let budget = r.u32()?;
            let ctx = read_ctx(&mut r)?;
            Message::Query {
                centre,
                eps,
                budget,
                ctx,
            }
        }
        kind::QUERY_ACK => {
            let count = r.count("items")?;
            let items = r.seq(count, 16, |r| Ok((r.u64()?, r.u64()?)))?;
            Message::QueryAck {
                items,
                hops: r.u64()?,
                messages: r.u64()?,
                bytes: r.u64()?,
            }
        }
        kind::GET => Message::Get {
            level: r.u16()?,
            key: read_vec_f64(&mut r, "key")?,
        },
        kind::GET_ACK => {
            let level = r.u16()?;
            let count = r.count("objects")?;
            // An object record is at least `object_wire_len(0)` bytes.
            let objects = r.seq(count, object_wire_len(0), read_object)?;
            Message::GetAck { level, objects }
        }
        kind::FETCH => {
            let peer = r.u64()?;
            let centre = read_vec_f64(&mut r, "centre")?;
            let eps = read_radius(&mut r, "eps")?;
            let ctx = read_ctx(&mut r)?;
            Message::Fetch {
                peer,
                centre,
                eps,
                ctx,
            }
        }
        kind::FETCH_ACK => {
            let peer = r.u64()?;
            let count = r.count("indices")?;
            let indices = r.seq(count, 8, Reader::u64)?;
            Message::FetchAck { peer, indices }
        }
        kind::ACK => Message::Ack {
            seq: r.u64()?,
            ok: read_bool(&mut r, "ok")?,
        },
        kind::MONITOR => Message::Monitor,
        kind::MONITOR_ACK => Message::MonitorAck {
            json: read_string(&mut r, "json")?,
        },
        kind::SHUTDOWN => Message::Shutdown,
        kind::PUT => Message::Put {
            peer: r.u64()?,
            item: read_vec_f64(&mut r, "item")?,
            republish: read_bool(&mut r, "republish")?,
        },
        kind::PUT_ACK => Message::PutAck {
            peer: r.u64()?,
            index: r.u64()?,
        },
        kind::PING => Message::Ping { seq: r.u64()? },
        kind::PONG => Message::Pong { seq: r.u64()? },
        kind::STATS => Message::Stats,
        kind::STATS_ACK => Message::StatsAck {
            json: read_string(&mut r, "json")?,
        },
        other => return Err(CodecError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
#[expect(
    clippy::as_conversions,
    clippy::cast_possible_truncation,
    reason = "test fixtures build values and hostile fields with literal casts"
)]
mod tests {
    use super::*;

    fn obj(dim: usize) -> StoredObject {
        StoredObject {
            id: 0xDEAD_BEEF,
            centre: (0..dim).map(|i| i as f64 * 0.125 - 1.0).collect(),
            radius: 0.375,
            payload: ObjectRef {
                peer: 42,
                tag: 7,
                items: 1234,
            },
        }
    }

    #[test]
    fn object_roundtrip_many_dims() {
        for dim in [1usize, 2, 4, 8, 64, 512] {
            let o = obj(dim);
            let bytes = encode_object(&o).unwrap();
            assert_eq!(bytes.len(), object_wire_len(dim));
            assert_eq!(bytes.len() as u64, o.wire_bytes());
            let back = decode_object(&bytes).unwrap();
            assert_eq!(back, o);
        }
    }

    #[test]
    fn query_roundtrip() {
        let centre = vec![0.1, 0.9, 0.5];
        let bytes = encode_query(&centre, 0.25).unwrap();
        assert_eq!(bytes.len(), query_wire_len(3));
        let (c, r) = decode_query(&bytes).unwrap();
        assert_eq!(c, centre);
        assert_eq!(r, 0.25);
    }

    #[test]
    fn oversized_dimension_is_an_error_not_a_panic() {
        let o = obj(u16::MAX as usize + 1);
        assert_eq!(
            encode_object(&o).unwrap_err(),
            CodecError::DimTooLarge(u16::MAX as usize + 1)
        );
        let centre = vec![0.0; u16::MAX as usize + 1];
        assert_eq!(
            encode_query(&centre, 0.1).unwrap_err(),
            CodecError::DimTooLarge(u16::MAX as usize + 1)
        );
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let bytes = encode_object(&obj(4)).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_object(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn huge_declared_dim_does_not_allocate() {
        // 2-byte header declaring dim = 65535 on a tiny buffer must fail
        // the pre-validation, not reserve 512 KiB.
        let mut buf = vec![0u8; 10];
        buf[8] = 0xFF;
        buf[9] = 0xFF; // object: id(8) then dim = 0xFFFF
        assert!(matches!(
            decode_object(&buf).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        let qbuf = [0xFFu8, 0xFF, 0, 0]; // query: dim = 0xFFFF, 2 spare bytes
        assert!(matches!(
            decode_query(&qbuf).unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_object(&obj(2)).unwrap();
        bytes.push(0);
        assert_eq!(
            decode_object(&bytes).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn corrupt_floats_rejected() {
        let mut bytes = encode_object(&obj(2)).unwrap();
        // Overwrite the first centre coordinate with NaN.
        bytes[10..18].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            decode_object(&bytes).unwrap_err(),
            CodecError::CorruptField("centre")
        );
        // Negative radius.
        let mut bytes = encode_object(&obj(2)).unwrap();
        let radius_off = 8 + 2 + 16;
        bytes[radius_off..radius_off + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(
            decode_object(&bytes).unwrap_err(),
            CodecError::CorruptField("radius")
        );
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        // Deterministic pseudo-random buffers of many lengths.
        let mut state = 0x1234_5678u64;
        for len in 0..200 {
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            let _ = decode_object(&buf);
            let _ = decode_query(&buf);
            let _ = decode_message(&buf);
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { peer: 9 },
            Message::Join {
                peer: 3,
                dim: 2,
                rows: vec![0.1, 0.2, 0.3, 0.4],
            },
            Message::JoinAck {
                peer: 12,
                members: 13,
            },
            Message::Route {
                level: 1,
                key: vec![0.5, 0.25],
            },
            Message::RouteAck { level: 1, owner: 4 },
            Message::Publish {
                level: 0,
                replicate: true,
                object: obj(4),
                ctx: TraceCtx::new(0xAB, hyperm_telemetry::SpanId(3)),
            },
            Message::PublishAck {
                level: 0,
                object_id: 77,
                replicas: 3,
                targets: 3,
            },
            Message::Query {
                centre: vec![0.4; 8],
                eps: 0.125,
                budget: u32::MAX,
                ctx: TraceCtx {
                    trace_id: u64::MAX,
                    parent_span: 1,
                },
            },
            Message::QueryAck {
                items: vec![(0, 5), (2, 9)],
                hops: 17,
                messages: 21,
                bytes: 4096,
            },
            Message::Get {
                level: 2,
                key: vec![0.75],
            },
            Message::GetAck {
                level: 2,
                objects: vec![obj(1), obj(3)],
            },
            Message::Fetch {
                peer: 6,
                centre: vec![0.9, 0.1],
                eps: 0.0,
                ctx: TraceCtx::NONE,
            },
            Message::FetchAck {
                peer: 6,
                indices: vec![0, 4, 9],
            },
            Message::Ack { seq: 8, ok: false },
            Message::Monitor,
            Message::MonitorAck {
                json: "{\"zones\": 4}".to_string(),
            },
            Message::Shutdown,
            Message::Put {
                peer: 2,
                item: vec![0.25, 0.5, 0.75],
                republish: true,
            },
            Message::PutAck { peer: 2, index: 20 },
            Message::Stats,
            Message::StatsAck {
                json: "{\"ops\": 9}".to_string(),
            },
            Message::Ping { seq: 11 },
            Message::Pong { seq: 11 },
        ]
    }

    #[test]
    fn message_roundtrip_every_kind() {
        let msgs = sample_messages();
        // One sample per row of the protocol list, in list order: a new
        // kind fails here until it has a sample.
        let sampled: Vec<u8> = msgs.iter().map(Message::kind).collect();
        let listed: Vec<u8> = kind::ALL.iter().map(|&(b, _)| b).collect();
        assert_eq!(sampled, listed);
        for msg in msgs {
            let bytes = encode_message(&msg).unwrap();
            assert_eq!(bytes[0], msg.kind());
            let back = decode_message(&bytes).unwrap();
            assert_eq!(back, msg, "{}", msg.kind_name());
        }
    }

    /// The wire, pinned: `sample_messages()` encoded by the code as it
    /// stood before the kind tables were folded into `protocol!`. Any
    /// change to a kind byte or a field layout shows up here as a diff in
    /// committed bytes, not as a round trip that still agrees with itself.
    #[test]
    fn wire_bytes_of_every_kind_are_pinned() {
        #[rustfmt::skip]
        const GOLDEN: &[(&str, &str)] = &[
            ("hello", "000900000000000000"),
            ("join", "0103000000000000000200020000009a9999999999b93f9a9999999999c93f333333333333d33f9a9999999999d93f"),
            ("join_ack", "020c000000000000000d00000000000000"),
            ("route", "0301000200000000000000e03f000000000000d03f"),
            ("route_ack", "0401000400000000000000"),
            ("publish", "05000001efbeadde000000000400000000000000f0bf000000000000ecbf000000000000e8bf000000000000e4bf000000000000d83f2a000000000000000700000000000000d2040000ab000000000000000300000000000000"),
            ("publish_ack", "0600004d000000000000000300000003000000"),
            ("query", "0708009a9999999999d93f9a9999999999d93f9a9999999999d93f9a9999999999d93f9a9999999999d93f9a9999999999d93f9a9999999999d93f9a9999999999d93f000000000000c03fffffffffffffffffffffffff0100000000000000"),
            ("query_ack", "08020000000000000000000000050000000000000002000000000000000900000000000000110000000000000015000000000000000010000000000000"),
            ("get", "0902000100000000000000e83f"),
            ("get_ack", "0a020002000000efbeadde000000000100000000000000f0bf000000000000d83f2a000000000000000700000000000000d2040000efbeadde000000000300000000000000f0bf000000000000ecbf000000000000e8bf000000000000d83f2a000000000000000700000000000000d2040000"),
            ("fetch", "0b06000000000000000200cdccccccccccec3f9a9999999999b93f000000000000000000000000000000000000000000000000"),
            ("fetch_ack", "0c060000000000000003000000000000000000000004000000000000000900000000000000"),
            ("ack", "0d080000000000000000"),
            ("monitor", "0e"),
            ("monitor_ack", "0f0c0000007b227a6f6e6573223a20347d"),
            ("shutdown", "10"),
            ("put", "1102000000000000000300000000000000d03f000000000000e03f000000000000e83f01"),
            ("put_ack", "1202000000000000001400000000000000"),
            ("stats", "13"),
            ("stats_ack", "140a0000007b226f7073223a20397d"),
            ("ping", "150b00000000000000"),
            ("pong", "160b00000000000000"),
        ];
        let msgs = sample_messages();
        assert_eq!(msgs.len(), GOLDEN.len());
        for (msg, &(name, hex)) in msgs.iter().zip(GOLDEN) {
            assert_eq!(msg.kind_name(), name);
            let got: String = encode_message(msg)
                .unwrap()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(got, hex, "{name}");
        }
    }

    #[test]
    fn encode_into_appends_the_same_body_after_any_prefix() {
        for prefix in [&[][..], &[0xAA], &[0x55; 12], &[7; 100]] {
            for msg in sample_messages() {
                let body = encode_message(&msg).unwrap();
                // One allocation: the bound covers the body.
                assert!(body.len() <= body_len_bound(&msg), "{}", msg.kind_name());
                let mut out = prefix.to_vec();
                encode_message_into(&mut out, &msg).unwrap();
                assert_eq!(out, [prefix, &body[..]].concat(), "{}", msg.kind_name());
            }
        }
    }

    #[test]
    fn encode_into_leaves_the_prefix_alone_on_error() {
        // The kind byte and level are already written when the oversized
        // key is rejected; neither may stay behind the prefix.
        let unencodable = Message::Route {
            level: 1,
            key: vec![0.0; u16::MAX as usize + 1],
        };
        let mut out = vec![1, 2, 3];
        assert_eq!(
            encode_message_into(&mut out, &unencodable).unwrap_err(),
            CodecError::DimTooLarge(u16::MAX as usize + 1)
        );
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn kind_table_is_total_and_collision_free() {
        // `kind::ALL` is generated from the `protocol!` list: no byte
        // collisions, and each row's variant, wire name and byte belong
        // to the same message.
        let mut bytes: Vec<u8> = kind::ALL.iter().map(|&(b, _)| b).collect();
        bytes.sort_unstable();
        let n = bytes.len();
        bytes.dedup();
        assert_eq!(bytes.len(), n, "kind byte collision in kind::ALL");
        for msg in sample_messages() {
            let k = msg.kind();
            let (_, variant) = kind::ALL
                .iter()
                .find(|&&(b, _)| b == k)
                .unwrap_or_else(|| panic!("kind {k} missing from kind::ALL"));
            // The table's variant name must agree with the wire name
            // modulo case convention (JoinAck vs join_ack).
            let squashed: String = variant.to_ascii_lowercase();
            let wire: String = msg.kind_name().replace('_', "");
            assert_eq!(squashed, wire, "kind::ALL name drifted for byte {k}");
        }
    }

    #[test]
    fn idempotent_kinds_are_requests() {
        use kind::*;
        assert_eq!(
            IDEMPOTENT,
            [JOIN, ROUTE, QUERY, GET, FETCH, MONITOR, STATS, PING]
        );
        for &k in IDEMPOTENT {
            assert!(
                Message::reply_kind_of(k).is_some(),
                "kind::IDEMPOTENT lists {k}, which is not a request kind"
            );
        }
    }

    #[test]
    fn message_truncations_error_cleanly() {
        for msg in sample_messages() {
            let bytes = encode_message(&msg).unwrap();
            for cut in 0..bytes.len() {
                match decode_message(&bytes[..cut]) {
                    Err(_) => {}
                    // A prefix that happens to be a complete shorter
                    // message (e.g. cutting all of Hello's payload would
                    // still need the kind byte) cannot roundtrip to the
                    // original — but must never panic.
                    Ok(m) => assert_ne!(m, msg),
                }
            }
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // Every length prefix the decoder reads, each declaring its
        // maximum in a frame that ends right after it: the count is
        // checked against the remaining bytes before anything is
        // allocated, so each is `Truncated`.
        let max32 = u32::MAX.to_le_bytes();
        let max16 = u16::MAX.to_le_bytes();
        let frame = |kind: u8, fixed: usize, prefix: &[u8]| {
            let mut buf = vec![kind];
            buf.resize(1 + fixed, 0);
            buf.extend_from_slice(prefix);
            buf
        };
        let join_rows = |dim: u16| {
            let mut prefix = dim.to_le_bytes().to_vec();
            prefix.extend_from_slice(&max32);
            frame(kind::JOIN, 8, &prefix)
        };
        let cases: [(&str, Vec<u8>); 13] = [
            ("JOIN rows", join_rows(1)),
            ("JOIN rows × dim overflowing usize", join_rows(u16::MAX)),
            ("QUERY_ACK items", frame(kind::QUERY_ACK, 0, &max32)),
            ("GET_ACK objects", frame(kind::GET_ACK, 2, &max32)),
            ("FETCH_ACK indices", frame(kind::FETCH_ACK, 8, &max32)),
            ("MONITOR_ACK json", frame(kind::MONITOR_ACK, 0, &max32)),
            ("STATS_ACK json", frame(kind::STATS_ACK, 0, &max32)),
            ("ROUTE key dim", frame(kind::ROUTE, 2, &max16)),
            ("GET key dim", frame(kind::GET, 2, &max16)),
            (
                "PUBLISH object dim",
                frame(kind::PUBLISH, 2 + 1 + 8, &max16),
            ),
            ("QUERY centre dim", frame(kind::QUERY, 0, &max16)),
            ("FETCH centre dim", frame(kind::FETCH, 8, &max16)),
            ("PUT item dim", frame(kind::PUT, 8, &max16)),
        ];
        for (name, buf) in &cases {
            let err = decode_message(buf).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "{name}: {err:?}"
            );
        }
        // The bare object and query records carry the same dims.
        let mut object = 0u64.to_le_bytes().to_vec();
        object.extend_from_slice(&max16);
        assert!(matches!(
            decode_object(&object).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        assert!(matches!(
            decode_query(&max16).unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(
            decode_message(&[200]).unwrap_err(),
            CodecError::UnknownKind(200)
        );
    }

    #[test]
    fn semantic_fields_validated() {
        // Query with negative eps.
        let bytes = encode_message(&Message::Query {
            centre: vec![0.5],
            eps: 0.25,
            budget: 0,
            ctx: TraceCtx::NONE,
        })
        .unwrap();
        let mut bad = bytes.clone();
        let eps_off = 1 + 2 + 8;
        bad[eps_off..eps_off + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(
            decode_message(&bad).unwrap_err(),
            CodecError::CorruptField("eps")
        );
        // Publish with a replicate byte outside {0, 1}.
        let bytes = encode_message(&Message::Publish {
            level: 0,
            replicate: false,
            object: obj(1),
            ctx: TraceCtx::NONE,
        })
        .unwrap();
        let mut bad = bytes.clone();
        bad[3] = 2;
        assert_eq!(
            decode_message(&bad).unwrap_err(),
            CodecError::CorruptField("replicate")
        );
        // Ack with a bad bool.
        let bytes = encode_message(&Message::Ack { seq: 1, ok: true }).unwrap();
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() = 9;
        assert_eq!(
            decode_message(&bad).unwrap_err(),
            CodecError::CorruptField("ok")
        );
    }

    #[test]
    fn trace_ctx_rides_the_frame_tail() {
        // Untraced and traced frames have identical length; the tail of an
        // untraced frame is 16 zero bytes.
        let untraced = Message::Query {
            centre: vec![0.5, 0.5],
            eps: 0.1,
            budget: 4,
            ctx: TraceCtx::NONE,
        };
        let traced = Message::Query {
            centre: vec![0.5, 0.5],
            eps: 0.1,
            budget: 4,
            ctx: TraceCtx {
                trace_id: 7,
                parent_span: 21,
            },
        };
        let a = encode_message(&untraced).unwrap();
        let b = encode_message(&traced).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(&a[..a.len() - 16], &b[..b.len() - 16]);
        assert!(a[a.len() - 16..].iter().all(|&x| x == 0));
        match decode_message(&b).unwrap() {
            Message::Query { ctx, .. } => {
                assert_eq!(ctx.trace_id, 7);
                assert_eq!(ctx.parent_span, 21);
            }
            other => panic!("decoded {other:?}"),
        }
    }
}
