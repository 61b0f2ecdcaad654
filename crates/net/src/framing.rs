//! Wire framing shared by the TCP transport: single-envelope frames and the
//! multi-envelope *batch frame* that lets a sender flush many queued
//! messages with one `write(2)`.
//!
//! A single frame is a 4-byte little-endian payload length followed by one
//! [`Envelope`] in the compact binary codec. A batch frame reuses the same
//! header with the high bit ([`BATCH_FLAG`]) set; its payload is a sequence
//! of ordinary single frames, concatenated:
//!
//! ```text
//! single:  [len:u32 LE][envelope bytes]
//! batch:   [BATCH_FLAG | len:u32 LE][count:u32 LE][len0][envelope0][len1][envelope1]...
//! ```
//!
//! The explicit `count` makes the batch self-validating: a payload cut at a
//! sub-frame boundary (which would otherwise parse as a valid shorter
//! batch) is rejected because the count no longer matches.
//!
//! The flag bit cannot collide with a legitimate single-frame length because
//! payloads are capped at [`MAX_FRAME`] (64 MiB), far below the flag bit.
//! Batches are parsed *iteratively* — deliberately not as a recursive
//! message variant, so malformed input can never nest batches and blow the
//! decoder's stack — and sub-frames inside a batch must themselves be
//! single frames. Truncated sub-frames, trailing bytes, and empty batches
//! are all rejected as malformed.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::codec::{self, CodecError};
use crate::message::Envelope;
use crate::transport::{NetError, NetResult};

/// Maximum accepted frame payload size (applies to single frames, batch
/// frames as a whole, and every sub-frame of a batch). Anything larger is
/// treated as a malformed peer and the connection is dropped.
pub const MAX_FRAME: usize = 64 << 20;

/// High bit of the frame header marking a batch frame. The remaining 31
/// bits are the payload length, exactly as for a single frame.
pub const BATCH_FLAG: u32 = 1 << 31;

fn codec_err(e: CodecError) -> NetError {
    NetError::Codec(e.to_string())
}

/// Appends one single-envelope frame to `buf`, returning its payload length.
/// The buffer is not cleared: callers reuse one buffer per peer and clear it
/// themselves per flush, so steady-state encoding allocates nothing.
pub fn append_frame(buf: &mut Vec<u8>, envelope: &Envelope) -> NetResult<usize> {
    let payload_len = codec::encode_framed_into(envelope, buf).map_err(codec_err)?;
    if payload_len > MAX_FRAME {
        return Err(NetError::Codec(format!(
            "frame of {payload_len} bytes exceeds MAX_FRAME"
        )));
    }
    Ok(payload_len)
}

/// Appends one batch frame containing `envelopes` (at least two) to `buf`.
/// The whole batch becomes a single contiguous byte run, so the caller can
/// flush it with one `write(2)`.
pub fn append_batch_frame(buf: &mut Vec<u8>, envelopes: &[Envelope]) -> NetResult<()> {
    debug_assert!(envelopes.len() >= 2, "a batch frame carries >= 2 envelopes");
    let count = u32::try_from(envelopes.len())
        .map_err(|_| NetError::Codec("batch envelope count exceeds u32".to_string()))?;
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    buf.extend_from_slice(&count.to_le_bytes());
    for envelope in envelopes {
        append_frame(buf, envelope)?;
    }
    let payload_len = buf.len() - start - 4;
    if payload_len > MAX_FRAME {
        return Err(NetError::Codec(format!(
            "batch frame of {payload_len} bytes exceeds MAX_FRAME"
        )));
    }
    let header = BATCH_FLAG | payload_len as u32;
    #[expect(
        clippy::indexing_slicing,
        reason = "patches the 4 header bytes appended above"
    )]
    buf[start..start + 4].copy_from_slice(&header.to_le_bytes());
    Ok(())
}

/// Splits a batch-frame payload back into its envelopes, in order. Rejects
/// truncated sub-frames, oversized sub-frames, undecodable envelopes,
/// nested batch headers, and empty batches — a reader treats any error as a
/// malformed peer and drops the connection.
pub fn parse_batch(payload: &[u8]) -> Result<Vec<Envelope>, CodecError> {
    let Some(count) = payload.get(..4) else {
        return Err(CodecError::msg("batch frame shorter than its count"));
    };
    let count = count
        .try_into()
        .map(|b| u32::from_le_bytes(b) as usize)
        .map_err(|_| CodecError::msg("internal: batch count slice is not 4 bytes"))?;
    // Every sub-frame occupies at least its 4-byte header, so a count that
    // cannot fit the remaining bytes is rejected up front...
    if count.saturating_mul(4) > payload.len() - 4 {
        return Err(CodecError::msg(format!(
            "batch count {count} exceeds {} payload bytes",
            payload.len() - 4
        )));
    }
    // ...but the count is still attacker-controlled (a large frame can
    // claim millions of tiny sub-frames), so the pre-allocation is capped:
    // a lying count costs normal Vec growth, never a multi-GB reservation.
    let mut envelopes = Vec::with_capacity(count.min(1024));
    let mut pos = 4usize;
    while pos < payload.len() {
        let Some(header) = payload.get(pos..pos + 4) else {
            return Err(CodecError::msg("truncated sub-frame header in batch"));
        };
        let header = header
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| CodecError::msg("internal: sub-frame header slice is not 4 bytes"))?;
        if header & BATCH_FLAG != 0 {
            return Err(CodecError::msg("nested batch frame"));
        }
        let len = header as usize;
        if len > MAX_FRAME {
            return Err(CodecError::msg(format!(
                "sub-frame of {len} bytes exceeds MAX_FRAME"
            )));
        }
        let Some(bytes) = payload.get(pos + 4..pos + 4 + len) else {
            return Err(CodecError::msg(format!(
                "sub-frame of {len} bytes truncated at offset {pos}"
            )));
        };
        envelopes.push(codec::decode::<Envelope>(bytes)?);
        pos += 4 + len;
    }
    if envelopes.is_empty() {
        return Err(CodecError::msg("empty batch frame"));
    }
    if envelopes.len() != count {
        return Err(CodecError::msg(format!(
            "batch count {count} does not match its {} envelopes",
            envelopes.len()
        )));
    }
    Ok(envelopes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{DriverMessage, Message, NodeId};

    fn envelope(marker: u64) -> Envelope {
        Envelope {
            from: NodeId::Driver,
            to: NodeId::Controller,
            message: Message::driver0(DriverMessage::Checkpoint { marker }),
        }
    }

    #[test]
    fn batch_frame_roundtrips_in_order() {
        let envelopes: Vec<Envelope> = (0..5).map(envelope).collect();
        let mut buf = Vec::new();
        append_batch_frame(&mut buf, &envelopes).unwrap();
        let header = u32::from_le_bytes(buf[..4].try_into().unwrap());
        assert_ne!(header & BATCH_FLAG, 0, "batch header carries the flag");
        let payload_len = (header & !BATCH_FLAG) as usize;
        assert_eq!(payload_len, buf.len() - 4);
        let parsed = parse_batch(&buf[4..]).unwrap();
        assert_eq!(parsed, envelopes);
    }

    #[test]
    fn batch_sub_frames_match_single_frames_byte_for_byte() {
        let e = envelope(7);
        let mut single = Vec::new();
        append_frame(&mut single, &e).unwrap();
        let mut batch = Vec::new();
        append_batch_frame(&mut batch, &[e.clone(), e]).unwrap();
        assert_eq!(&batch[4..8], 2u32.to_le_bytes(), "envelope count");
        assert_eq!(&batch[8..8 + single.len()], single.as_slice());
        assert_eq!(&batch[8 + single.len()..], single.as_slice());
    }

    #[test]
    fn truncated_batches_are_rejected_at_every_cut() {
        let envelopes: Vec<Envelope> = (0..3).map(envelope).collect();
        let mut buf = Vec::new();
        append_batch_frame(&mut buf, &envelopes).unwrap();
        let payload = &buf[4..];
        for cut in 1..payload.len() {
            assert!(
                parse_batch(&payload[..payload.len() - cut]).is_err(),
                "batch payload cut by {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn garbage_and_pathological_batches_are_rejected() {
        // Empty payload (shorter than the count).
        assert!(parse_batch(&[]).is_err());
        // A count the remaining bytes cannot possibly satisfy.
        let mut absurd = Vec::new();
        absurd.extend_from_slice(&u32::MAX.to_le_bytes());
        absurd.extend_from_slice(&[0u8; 8]);
        assert!(parse_batch(&absurd).is_err());
        // Sub-frame header claiming more bytes than remain.
        let mut huge = Vec::new();
        huge.extend_from_slice(&1u32.to_le_bytes());
        huge.extend_from_slice(&100u32.to_le_bytes());
        huge.extend_from_slice(&[0u8; 8]);
        assert!(parse_batch(&huge).is_err());
        // Nested batch header.
        let mut nested = Vec::new();
        nested.extend_from_slice(&1u32.to_le_bytes());
        nested.extend_from_slice(&(BATCH_FLAG | 4).to_le_bytes());
        nested.extend_from_slice(&[0u8; 4]);
        assert!(parse_batch(&nested).is_err());
        // Undecodable envelope bytes in a well-sized sub-frame.
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&1u32.to_le_bytes());
        garbage.extend_from_slice(&4u32.to_le_bytes());
        garbage.extend_from_slice(&[0xff, 0xff, 0xff, 0xff]);
        assert!(parse_batch(&garbage).is_err());
        // Trailing bytes after the counted sub-frames.
        let mut trailing = Vec::new();
        trailing.extend_from_slice(&1u32.to_le_bytes());
        append_frame(&mut trailing, &envelope(1)).unwrap();
        trailing.push(0);
        assert!(parse_batch(&trailing).is_err());
        // A count smaller than the sub-frames actually present.
        let mut undercount = Vec::new();
        undercount.extend_from_slice(&1u32.to_le_bytes());
        append_frame(&mut undercount, &envelope(1)).unwrap();
        append_frame(&mut undercount, &envelope(2)).unwrap();
        assert!(parse_batch(&undercount).is_err());
    }

    #[test]
    fn append_frame_reuses_the_buffer_without_clearing() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &envelope(1)).unwrap();
        let first = buf.len();
        append_frame(&mut buf, &envelope(2)).unwrap();
        assert!(buf.len() > first, "second frame appended after the first");
        let cap = {
            buf.clear();
            buf.capacity()
        };
        append_frame(&mut buf, &envelope(3)).unwrap();
        assert_eq!(buf.capacity(), cap, "steady-state reuse must not grow");
    }
}
