//! Property-based hardening sweep for the wire codec: corrupt, truncated
//! and oversized frames across every message kind must decode to a typed
//! [`CodecError`] — never a panic, never an unbounded allocation.
//!
//! These are the frames a hostile or buggy peer can put on a TCP socket;
//! the decoder is the trust boundary.

use hyperm_can::codec::kind;
use hyperm_can::{
    decode_message, decode_object, decode_query, encode_message, encode_object, encode_query,
    Message, ObjectRef, StoredObject,
};
use hyperm_telemetry::TraceCtx;
use proptest::prelude::*;

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

/// One instance of every message kind (`samples_cover_every_kind`).
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
            ctx: TraceCtx {
                trace_id: 0xAB,
                parent_span: 3,
            },
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

/// The fuzz properties pick from `sample_messages()`, so a kind without
/// a sample is a kind they never truncate, corrupt or oversize.
#[test]
fn samples_cover_every_kind() {
    let sampled: Vec<u8> = sample_messages().iter().map(Message::kind).collect();
    let listed: Vec<u8> = kind::ALL.iter().map(|&(b, _)| b).collect();
    assert_eq!(sampled, listed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a valid frame of any kind at any boundary decodes to a
    /// typed error (or, for a prefix that happens to be self-consistent,
    /// a valid message) — never a panic.
    #[test]
    fn truncated_frames_of_every_kind_never_panic(
        pick in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let msgs = sample_messages();
        let msg = &msgs[pick.index(msgs.len())];
        let bytes = encode_message(msg).unwrap();
        let cut = cut.index(bytes.len()); // strict prefix
        // Typed result either way; a panic fails the test harness.
        let _ = decode_message(&bytes[..cut]);
    }

    /// Flipping arbitrary bytes in a valid frame of any kind decodes to a
    /// typed error or a different valid message — never a panic.
    #[test]
    fn corrupt_frames_of_every_kind_never_panic(
        pick in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let msgs = sample_messages();
        let msg = &msgs[pick.index(msgs.len())];
        let mut bytes = encode_message(msg).unwrap();
        for (pos, mask) in &flips {
            let i = pos.index(bytes.len());
            bytes[i] ^= mask | 1; // always a real change
        }
        if let Ok(back) = decode_message(&bytes) {
            // A surviving decode must re-encode: the codec never produces
            // values it would itself reject.
            prop_assert!(encode_message(&back).is_ok());
        }
    }

    /// Appending trailing garbage to a valid frame is always rejected —
    /// frames are exact, not prefixes.
    #[test]
    fn oversized_frames_of_every_kind_are_rejected(
        pick in any::<prop::sample::Index>(),
        tail in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let msgs = sample_messages();
        let msg = &msgs[pick.index(msgs.len())];
        let mut bytes = encode_message(msg).unwrap();
        bytes.extend_from_slice(&tail);
        prop_assert!(decode_message(&bytes).is_err());
    }

    /// Arbitrary garbage through all three decoders: typed errors only.
    /// Byte 0 is drawn from the full u8 range, so unknown kind bytes and
    /// hostile declared lengths are both exercised.
    #[test]
    fn random_buffers_never_panic(buf in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_message(&buf);
        let _ = decode_object(&buf);
        let _ = decode_query(&buf);
    }

    /// Round-trip stability under random valid inputs: encode ∘ decode is
    /// the identity for objects and queries built from finite values.
    #[test]
    fn valid_objects_and_queries_roundtrip(
        dim in 1usize..24,
        coords in prop::collection::vec(-1.0..1.0f64, 24),
        radius in 0.0..2.0f64,
        id in any::<u64>(),
        tag in any::<u64>(),
        items in any::<u32>(),
    ) {
        let object = StoredObject {
            id,
            centre: coords[..dim].to_vec(),
            radius,
            payload: ObjectRef { peer: 7, tag, items },
        };
        let bytes = encode_object(&object).unwrap();
        let back = decode_object(&bytes).unwrap();
        prop_assert_eq!(&back.centre, &object.centre);
        prop_assert_eq!(back.radius.to_bits(), object.radius.to_bits());
        prop_assert_eq!(back.id, object.id);

        let qbytes = encode_query(&object.centre, radius).unwrap();
        let (centre, eps) = decode_query(&qbytes).unwrap();
        prop_assert_eq!(&centre, &object.centre);
        prop_assert_eq!(eps.to_bits(), radius.to_bits());
    }
}
