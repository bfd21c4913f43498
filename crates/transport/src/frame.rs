//! Length-prefixed framing of [`Message`] bodies over byte streams.
//!
//! ```text
//! frame: len u32 (little-endian, body length) | req_id u64 | body (kind u8 | payload)
//! ```
//!
//! The `req_id` word is the transport-level request-correlation tag: a
//! requester stamps each attempt with a fresh non-zero id and the
//! responder echoes it on the reply, so a late reply from a timed-out
//! attempt can never be mistaken for the answer to the next request.
//! It lives in the frame header (not the codec body) so the message
//! layout — including the `TraceCtx` tail of query/fetch/publish — is
//! untouched. `0` means untagged (handshakes, fire-and-forget frames).
//!
//! The length prefix is wire-derived and therefore untrusted: it is
//! checked against [`MAX_FRAME`] *before* the body buffer is allocated,
//! mirroring the codec's own pre-validation discipline. Everything past
//! the header is `hyperm_can::codec`'s message encoding, so corrupt
//! bodies surface as typed [`CodecError`]s, never panics.
//!
//! [`CodecError`]: hyperm_can::codec::CodecError

// The frame header is wire-derived: no unwrap and no truncating cast.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use hyperm_can::codec::{decode_message, encode_message, encode_message_into};
use hyperm_can::Message;
use hyperm_telemetry::sync::assert_unlocked;

use crate::TransportError;
use std::io::{Read, Write};

/// Largest accepted frame body, in bytes. Generous for every legitimate
/// message (a 65 535-d object record is ~512 KiB; `Join` carries whole
/// collections) while still bounding what a hostile length prefix can
/// make a reader allocate.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Frame header bytes preceding the body: `len u32 | req_id u64`.
pub const HEADER_LEN: usize = 4 + 8;

/// Encode `msg` and write it as one length-prefixed frame tagged with
/// `req_id` (`0` = untagged).
///
/// Header and body are assembled in one buffer and handed to `w` in a
/// single `write_all`: on a socket, a frame split over several writes
/// has its tail held back by Nagle's algorithm until the peer's delayed
/// ACK (~40 ms) — per frame, so twice per round trip.
pub fn write_frame<W: Write>(
    w: &mut W,
    req_id: u64,
    msg: &Message,
) -> Result<usize, TransportError> {
    assert_unlocked();
    let mut frame = vec![0u8; HEADER_LEN];
    encode_message_into(&mut frame, msg).map_err(TransportError::Codec)?;
    let body_len = frame.len() - HEADER_LEN;
    if body_len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(body_len));
    }
    let len = u32::try_from(body_len).map_err(|_| TransportError::FrameTooLarge(body_len))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..HEADER_LEN].copy_from_slice(&req_id.to_le_bytes());
    w.write_all(&frame)
        .map_err(|e| TransportError::Io(e.to_string()))?;
    w.flush().map_err(|e| TransportError::Io(e.to_string()))?;
    Ok(frame.len())
}

/// Read one length-prefixed frame and decode its body. Returns the
/// header's correlation tag alongside the message.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u64, Message), TransportError> {
    let (req_id, body) = read_body(r)?;
    let msg = decode_message(&body).map_err(TransportError::Codec)?;
    Ok((req_id, msg))
}

/// Read one length-prefixed frame, leaving its body undecoded: the
/// header's correlation tag and the body bytes. A body that then fails
/// to decode leaves the stream at the next frame's header.
pub(crate) fn read_body<R: Read>(r: &mut R) -> Result<(u64, Vec<u8>), TransportError> {
    assert_unlocked();
    // Two fixed-width reads instead of one 12-byte buffer split: the
    // arrays carry their lengths in the type, so no slice conversion
    // (and no panic path) is left in the decode; the byte layout on the
    // wire is unchanged.
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)
        .map_err(|e| TransportError::Io(e.to_string()))?;
    let mut req_id_bytes = [0u8; HEADER_LEN - 4];
    r.read_exact(&mut req_id_bytes)
        .map_err(|e| TransportError::Io(e.to_string()))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    let req_id = u64::from_le_bytes(req_id_bytes);
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| TransportError::Io(e.to_string()))?;
    Ok((req_id, body))
}

/// Encoded frame length (header + body) of a message, for byte
/// accounting. Errors if the message is unencodable.
pub fn frame_len(msg: &Message) -> Result<u64, TransportError> {
    let body = encode_message(msg).map_err(TransportError::Codec)?;
    Ok(HEADER_LEN as u64 + body.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let msg = Message::Query {
            centre: vec![0.25, 0.5],
            eps: 0.125,
            budget: u32::MAX,
            ctx: hyperm_telemetry::TraceCtx {
                trace_id: 5,
                parent_span: 9,
            },
        };
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, 0xFEED_F00D, &msg).unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(n as u64, frame_len(&msg).unwrap());
        let mut cursor = std::io::Cursor::new(buf);
        let (req_id, back) = read_frame(&mut cursor).unwrap();
        assert_eq!(req_id, 0xFEED_F00D);
        assert_eq!(back, msg);
    }

    /// Records each `write` call; takes the whole buffer every time, so
    /// `write_all` never loops on its own account.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write_in_the_documented_layout() {
        let query = Message::Query {
            centre: vec![0.25, 0.5],
            eps: 0.125,
            budget: 7,
            ctx: hyperm_telemetry::TraceCtx {
                trace_id: 5,
                parent_span: 9,
            },
        };
        // body: kind | dim u16 | centre f64.. | eps f64 | budget u32 | ctx 2 x u64
        let mut query_body = vec![hyperm_can::codec::kind::QUERY];
        query_body.extend_from_slice(&2u16.to_le_bytes());
        query_body.extend_from_slice(&0.25f64.to_le_bytes());
        query_body.extend_from_slice(&0.5f64.to_le_bytes());
        query_body.extend_from_slice(&0.125f64.to_le_bytes());
        query_body.extend_from_slice(&7u32.to_le_bytes());
        query_body.extend_from_slice(&5u64.to_le_bytes());
        query_body.extend_from_slice(&9u64.to_le_bytes());

        let ack = Message::QueryAck {
            items: vec![(1, 2)],
            hops: 3,
            messages: 4,
            bytes: 5,
        };
        // body: kind | count u32 | (peer u64, index u64).. | hops | messages | bytes
        let mut ack_body = vec![hyperm_can::codec::kind::QUERY_ACK];
        ack_body.extend_from_slice(&1u32.to_le_bytes());
        for word in [1u64, 2, 3, 4, 5] {
            ack_body.extend_from_slice(&word.to_le_bytes());
        }

        for (msg, body, req_id) in [(query, query_body, 0xFEED_F00Du64), (ack, ack_body, 0)] {
            let mut want = u32::try_from(body.len()).unwrap().to_le_bytes().to_vec();
            want.extend_from_slice(&req_id.to_le_bytes());
            want.extend_from_slice(&body);
            let mut w = CountingWriter::default();
            let n = write_frame(&mut w, req_id, &msg).unwrap();
            assert_eq!(
                w.calls,
                1,
                "{}: header and body must leave together",
                msg.kind_name()
            );
            assert_eq!(w.bytes, want, "{}", msg.kind_name());
            assert_eq!(n, want.len());
        }
    }

    #[test]
    fn req_id_rides_the_header_not_the_body() {
        // Two frames of the same message with different tags differ only
        // in the 8 header bytes after the length prefix — the codec body
        // (and therefore every body-layout test) is untouched.
        let msg = Message::Monitor;
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_frame(&mut a, 0, &msg).unwrap();
        write_frame(&mut b, u64::MAX, &msg).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[..4], b[..4]);
        assert_ne!(a[4..12], b[4..12]);
        assert_eq!(a[12..], b[12..]);
    }

    #[test]
    fn header_truncated_mid_header_is_io_error() {
        // Six bytes: a full length prefix but only half the req_id tag.
        // Must surface as an Io error from the second fixed-width read,
        // never a slice-conversion panic.
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 2]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            TransportError::Io(_)
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 24]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            TransportError::FrameTooLarge(_)
        ));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let msg = Message::Monitor;
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &msg).unwrap();
        buf.pop();
        buf[0] = 2; // still claims 2-byte body, stream has 1
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            TransportError::Io(_)
        ));
    }

    #[test]
    fn corrupt_body_is_codec_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(250); // unknown kind
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            TransportError::Codec(_)
        ));
    }
}
