//! Length-delimited, CRC-checked frames for shipping synopses.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic:u32 | kind:u8 | len:u32 | payload[len] | crc32:u32
//! ```
//!
//! The CRC covers `kind | len | payload` so bit rot anywhere in a frame is
//! detected before the codec sees it. Built on [`bytes`] so frames can be
//! sliced out of a receive buffer without copying payloads.
//!
//! # Trace-context extension
//!
//! A frame may carry one optional, length-prefixed extension block. Its
//! presence is signalled by the [`EXT_FLAG`] high bit of the kind byte,
//! and the block sits at the *front* of the payload region:
//!
//! ```text
//! magic:u32 | kind|0x80:u8 | len:u32 | tag:u8 | ext_len:u16 | ext[ext_len] | message | crc32:u32
//! ```
//!
//! `len` covers `tag + ext_len + ext + message` together, so
//! [`frame_size_hint`] needs no extension awareness beyond masking the
//! flag bit, and the CRC covers the extension like any other payload
//! byte. Extension-free frames are bit-identical to the original format.
//! The extension is **version-gated at the sender**: sites and relays emit
//! it only when tracing is enabled, so peers that predate it never see
//! the flag; receivers skip unrecognized tags (and unrecognized sizes of
//! known tags) rather than rejecting the frame, which is what lets either
//! side upgrade first. [`ExtensionTag::TraceContext`] carries
//! `trace_id:u64 | span_id:u64 | cut_ns:u64` — the propagatable
//! [`TraceContext`] plus the sender's epoch-cut wall clock, which is what
//! lets the coordinator histogram true cut→commit latency.

use crate::codec::{self, CodecError};
use crate::site::{DeltaMessage, EpochCommit, Hello, SynopsisMessage};
use crate::transport::AckMessage;
use bytes::{Buf, Bytes};
use serde::de::DeserializeOwned;
use serde::Serialize;
use setstream_obs::TraceContext;
use std::fmt;

/// Frame magic: "2LHA".
///
/// Frames carry sketch cells, and cells mean something only under the
/// coins that filled them. The magic changed from "2LHS" when the
/// second-level functions became the GF(2)-affine family: a peer running
/// the older mod-(2⁶¹−1) family then fails every frame with
/// [`WireError::BadMagic`] instead of merging cells from other coins.
const MAGIC: u32 = 0x324c_4841;

/// Bytes of framing around a payload: magic + kind + len + crc.
pub const FRAME_OVERHEAD: usize = 13;

/// Bytes before the payload region: magic + kind + len.
const HEADER_LEN: usize = 9;

/// Hard cap on a frame's declared payload length.
///
/// Enforced *before* any buffer is sized from the header, so a hostile or
/// bit-flipped length field can never make a receiver allocate unbounded
/// memory — it is a typed [`WireError::Oversize`] instead. Generous for
/// real synopses (a 16 MiB payload is orders of magnitude beyond any
/// family this workspace mints) yet small enough that even a frame-per-
/// connection abuser stays bounded.
pub const MAX_PAYLOAD_LEN: usize = 16 << 20;

/// High bit of the kind byte: set when the payload region starts with an
/// extension block. The remaining 7 bits are the [`FrameKind`].
pub const EXT_FLAG: u8 = 0x80;

/// What an extension block carries. One tag byte on the wire; receivers
/// skip tags they do not recognize, so new tags can ship without breaking
/// old peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtensionTag {
    /// A propagated trace context: `trace_id:u64 | span_id:u64 | cut_ns:u64`.
    TraceContext,
}

impl ExtensionTag {
    fn as_byte(self) -> u8 {
        match self {
            ExtensionTag::TraceContext => 1,
        }
    }

    /// `None` for unrecognized tags — the frame still decodes, the
    /// extension is simply ignored (forward compatibility).
    fn from_byte(b: u8) -> Option<Self> {
        (b == 1).then_some(ExtensionTag::TraceContext)
    }
}

/// The decoded trace-context extension: who to parent downstream spans
/// under, plus the sender's epoch-cut timestamp (its own clock, ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameContext {
    /// Trace identity to continue (`trace_id`/`span_id`).
    pub trace: TraceContext,
    /// Wall clock at the originating site's epoch cut (0 = unknown).
    pub cut_ns: u64,
}

/// Serialized size of a [`FrameContext`] extension body.
const TRACE_EXT_LEN: usize = 24;
/// Extension block header: tag byte + u16 length.
const EXT_HEADER_LEN: usize = 3;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A site announcing itself, its sketch family, and (on restart) the
    /// epoch it resumes from.
    Hello,
    /// A per-stream **cumulative** synopsis, shipped by a resync.
    /// Replaces the sender's previous contribution for that stream at the
    /// coordinator (never re-merged), so repeated resyncs are safe.
    Synopsis,
    /// A per-stream **delta**: counter changes since the stream's last
    /// shipped epoch. Merged additively, guarded by epoch watermarks.
    Delta,
    /// Epoch commit marker: every delta of the named epoch was emitted.
    Commit,
    /// Transport acknowledgement: the receiver's verdict on one epoch
    /// batch (see `transport::AckMessage`). Flows downstream only; the
    /// coordinator's merge path never sees one.
    Ack,
}

impl FrameKind {
    fn as_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Synopsis => 2,
            FrameKind::Delta => 4,
            FrameKind::Commit => 5,
            FrameKind::Ack => 6,
        }
    }

    /// Byte 3 is retired: it ended the removed one-shot snapshot batch.
    /// It decodes as an unknown kind, so do not reuse it while older
    /// peers may still send it.
    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(FrameKind::Hello),
            2 => Ok(FrameKind::Synopsis),
            4 => Ok(FrameKind::Delta),
            5 => Ok(FrameKind::Commit),
            6 => Ok(FrameKind::Ack),
            other => Err(WireError::BadKind(other)),
        }
    }
}

/// Wire failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame did not start with the magic bytes.
    BadMagic(u32),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Frame shorter than its header claims.
    Truncated,
    /// Payload too large for the frame header's `u32` length field.
    Oversize(usize),
    /// Checksum mismatch — the frame was corrupted in flight.
    Corrupt {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received content.
        actual: u32,
    },
    /// The extension block's declared length overruns the payload region,
    /// so the message boundary cannot be found. Only reachable for frames
    /// that passed CRC (a hostile or buggy writer, not bit rot).
    Extension {
        /// Declared extension body length.
        ext_len: usize,
        /// Bytes actually available in the payload region.
        available: usize,
    },
    /// Payload decoding failed.
    Codec(CodecError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#x}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversize(n) => write!(f, "payload of {n} bytes exceeds frame limit"),
            WireError::Corrupt { expected, actual } => {
                write!(f, "frame CRC mismatch: header {expected:#x}, computed {actual:#x}")
            }
            WireError::Extension { ext_len, available } => write!(
                f,
                "extension block of {ext_len} bytes overruns payload ({available} available)"
            ),
            WireError::Codec(e) => write!(f, "payload codec error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Encode `value` as a framed message of the given kind.
pub fn encode_frame<T: Serialize>(kind: FrameKind, value: &T) -> Result<Bytes, WireError> {
    encode_frame_traced(kind, value, None)
}

/// Encode `value` as a framed message, optionally prefixed with a
/// trace-context extension block. `ctx: None` produces a frame
/// bit-identical to [`encode_frame`]'s original format, which is how the
/// extension stays version-gated: callers only pass a context when their
/// trace handle is enabled.
///
/// The payload is encoded straight into the frame buffer behind a
/// placeholder length, which is patched once the payload size is known.
pub fn encode_frame_traced<T: Serialize>(
    kind: FrameKind,
    value: &T,
    ctx: Option<&FrameContext>,
) -> Result<Bytes, WireError> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    match ctx {
        Some(_) => buf.push(kind.as_byte() | EXT_FLAG),
        None => buf.push(kind.as_byte()),
    }
    buf.extend_from_slice(&[0; 4]);
    if let Some(ctx) = ctx {
        buf.push(ExtensionTag::TraceContext.as_byte());
        buf.extend_from_slice(&(TRACE_EXT_LEN as u16).to_le_bytes());
        buf.extend_from_slice(&ctx.trace.trace_id.to_le_bytes());
        buf.extend_from_slice(&ctx.trace.span_id.to_le_bytes());
        buf.extend_from_slice(&ctx.cut_ns.to_le_bytes());
    }
    codec::encode_into(value, &mut buf)?;
    let total = buf.len() - HEADER_LEN;
    if total > MAX_PAYLOAD_LEN {
        return Err(WireError::Oversize(total));
    }
    let len: u32 = total.try_into().map_err(|_| WireError::Oversize(total))?;
    if let Some(field) = buf.get_mut(5..HEADER_LEN) {
        field.copy_from_slice(&len.to_le_bytes());
    }
    let crc = crc32(buf.get(4..).unwrap_or_default());
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(Bytes::from(buf))
}

/// Decode one frame, returning its kind and raw payload (zero-copy slice
/// of the input). Any extension block is validated and discarded; use
/// [`decode_frame_parts`] to keep it.
pub fn decode_frame(frame: Bytes) -> Result<(FrameKind, Bytes), WireError> {
    let (kind, payload, _ctx) = decode_frame_parts(frame)?;
    Ok((kind, payload))
}

/// Decode one frame into kind, message payload, and the trace-context
/// extension if one was attached and recognized.
///
/// Unknown extension tags — and recognized tags with an unexpected body
/// size — yield `None` rather than an error: the message still decodes, so
/// old peers can be upgraded around. A structurally impossible block
/// (declared length overrunning the payload) is [`WireError::Extension`].
pub fn decode_frame_parts(
    mut frame: Bytes,
) -> Result<(FrameKind, Bytes, Option<FrameContext>), WireError> {
    if frame.len() < 13 {
        return Err(WireError::Truncated);
    }
    let crc_region = frame.slice(4..frame.len() - 4);
    let magic = frame.get_u32_le();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let kind_byte = frame.get_u8();
    let has_ext = kind_byte & EXT_FLAG != 0;
    // Report the raw byte on failure so diagnostics show what was on the
    // wire, flag bit included.
    let kind = FrameKind::from_byte(kind_byte & !EXT_FLAG)
        .map_err(|_| WireError::BadKind(kind_byte))?;
    let len = frame.get_u32_le() as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(WireError::Oversize(len));
    }
    if frame.len() != len + 4 {
        return Err(WireError::Truncated);
    }
    let mut payload = frame.slice(..len);
    frame.advance(len);
    let expected = frame.get_u32_le();
    let actual = crc32(&crc_region);
    if expected != actual {
        return Err(WireError::Corrupt { expected, actual });
    }
    // Extension parsing runs after the CRC check, so a malformed block in
    // a CRC-valid frame is a writer bug (or hostility), never bit rot.
    let mut ctx = None;
    if has_ext {
        if payload.len() < EXT_HEADER_LEN {
            return Err(WireError::Extension {
                ext_len: 0,
                available: payload.len(),
            });
        }
        let tag = payload.get_u8();
        let ext_len = u16::from_le_bytes([payload.get_u8(), payload.get_u8()]) as usize;
        if ext_len > payload.len() {
            return Err(WireError::Extension {
                ext_len,
                available: payload.len(),
            });
        }
        let mut ext = payload.slice(..ext_len);
        payload.advance(ext_len);
        if ExtensionTag::from_byte(tag) == Some(ExtensionTag::TraceContext)
            && ext.len() >= TRACE_EXT_LEN
        {
            ctx = Some(FrameContext {
                trace: TraceContext {
                    trace_id: ext.get_u64_le(),
                    span_id: ext.get_u64_le(),
                },
                cut_ns: ext.get_u64_le(),
            });
        }
    }
    Ok((kind, payload, ctx))
}

/// Peek at a (possibly partial) receive buffer and report the total size
/// of the frame at its head, without allocating.
///
/// * `Ok(None)` — fewer than 9 header bytes buffered; read more.
/// * `Ok(Some(n))` — the frame spans `n` bytes (header + payload + CRC);
///   once `buf.len() >= n`, hand the first `n` bytes to [`decode_frame`].
/// * `Err(_)` — the stream is poisoned at this position (wrong magic,
///   unknown kind, or a declared payload beyond [`MAX_PAYLOAD_LEN`]);
///   the connection cannot be resynchronized and must be dropped.
///
/// The length check runs *before* any buffer is grown from the header,
/// which is what makes a bit-flipped or hostile length field a typed
/// error instead of an unbounded allocation.
pub fn frame_size_hint(buf: &[u8]) -> Result<Option<usize>, WireError> {
    let Some(&[m0, m1, m2, m3, kind_byte, l0, l1, l2, l3]) = buf.get(..9) else {
        return Ok(None);
    };
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    // The extension flag never changes a frame's extent: `len` covers the
    // extension block and the message together, so masking it off here is
    // all the hint needs to agree with `decode_frame` on every frame.
    FrameKind::from_byte(kind_byte & !EXT_FLAG).map_err(|_| WireError::BadKind(kind_byte))?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(WireError::Oversize(len));
    }
    Ok(Some(len + FRAME_OVERHEAD))
}

/// Decode a frame's payload into `T` after CRC verification.
pub fn decode_payload<T: DeserializeOwned>(frame: Bytes) -> Result<(FrameKind, T), WireError> {
    let (kind, payload) = decode_frame(frame)?;
    Ok((kind, codec::from_bytes(&payload)?))
}

/// A frame's message, typed by its kind.
#[derive(Debug, Clone)]
pub enum Message {
    /// A site announcing itself ([`FrameKind::Hello`]).
    Hello(Hello),
    /// A cumulative per-stream synopsis ([`FrameKind::Synopsis`]).
    Synopsis(SynopsisMessage),
    /// A per-stream epoch delta ([`FrameKind::Delta`]).
    Delta(DeltaMessage),
    /// An epoch commit marker ([`FrameKind::Commit`]).
    Commit(EpochCommit),
    /// A transport acknowledgement ([`FrameKind::Ack`]).
    Ack(AckMessage),
}

impl Message {
    /// The frame kind this message travels as.
    pub fn kind(&self) -> FrameKind {
        match self {
            Message::Hello(_) => FrameKind::Hello,
            Message::Synopsis(_) => FrameKind::Synopsis,
            Message::Delta(_) => FrameKind::Delta,
            Message::Commit(_) => FrameKind::Commit,
            Message::Ack(_) => FrameKind::Ack,
        }
    }
}

/// A verified, decoded frame: the typed message plus its trace-context
/// extension, if one was attached and recognized.
#[derive(Debug, Clone)]
pub struct DecodedFrame {
    /// The payload, decoded according to the frame kind.
    pub message: Message,
    /// The trace-context extension.
    pub ctx: Option<FrameContext>,
}

/// Verify one frame and decode its payload into the message its kind
/// names — the receive path's single pass over the bytes: one CRC check
/// ([`decode_frame_parts`]) and one payload decode, after which routing
/// and merging work on the typed value.
pub fn decode_message(frame: Bytes) -> Result<DecodedFrame, WireError> {
    let (kind, payload, ctx) = decode_frame_parts(frame)?;
    let message = match kind {
        FrameKind::Hello => Message::Hello(codec::from_bytes(&payload)?),
        FrameKind::Synopsis => Message::Synopsis(codec::from_bytes(&payload)?),
        FrameKind::Delta => Message::Delta(codec::from_bytes(&payload)?),
        FrameKind::Commit => Message::Commit(codec::from_bytes(&payload)?),
        FrameKind::Ack => Message::Ack(codec::from_bytes(&payload)?),
    };
    Ok(DecodedFrame { message, ctx })
}

/// CRC-32 (IEEE 802.3), shared with the durable-snapshot container.
pub use setstream_hash::crc32;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trip() {
        let value: Vec<u64> = (0..50).collect();
        let frame = encode_frame(FrameKind::Synopsis, &value).unwrap();
        let (kind, back): (FrameKind, Vec<u64>) = decode_payload(frame).unwrap();
        assert_eq!(kind, FrameKind::Synopsis);
        assert_eq!(back, value);
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Synopsis,
            FrameKind::Delta,
            FrameKind::Commit,
            FrameKind::Ack,
        ] {
            let frame = encode_frame(kind, &1u8).unwrap();
            let (k, _payload) = decode_frame(frame).unwrap();
            assert_eq!(k, kind);
        }
    }

    #[test]
    fn retired_kind_byte_is_unknown() {
        // Byte 3 ended the legacy snapshot batch. It is no kind now, with
        // or without the extension flag; the error reports the raw byte.
        for (kind_byte, ext) in [(3u8, None), (3 | EXT_FLAG, Some(ctx(1, 2, 3)))] {
            let frame = encode_frame_traced(FrameKind::Commit, &0u8, ext.as_ref()).unwrap();
            let mut bytes = frame.to_vec();
            bytes[4] = kind_byte;
            let end = bytes.len() - 4;
            let crc = crc32(&bytes[4..end]);
            bytes[end..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(frame_size_hint(&bytes), Err(WireError::BadKind(kind_byte)));
            assert!(matches!(
                decode_message(Bytes::from(bytes)),
                Err(WireError::BadKind(k)) if k == kind_byte
            ));
        }
    }

    #[test]
    fn size_hint_tracks_partial_buffers() {
        let frame = encode_frame(FrameKind::Delta, &vec![9u64; 40]).unwrap();
        for cut in 0..9 {
            assert_eq!(frame_size_hint(&frame[..cut]).unwrap(), None, "cut {cut}");
        }
        for cut in 9..=frame.len() {
            assert_eq!(
                frame_size_hint(&frame[..cut]).unwrap(),
                Some(frame.len()),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn size_hint_rejects_poisoned_headers() {
        let frame = encode_frame(FrameKind::Hello, &7u32).unwrap();
        let mut bad_magic = frame.to_vec();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            frame_size_hint(&bad_magic),
            Err(WireError::BadMagic(_))
        ));
        let mut bad_kind = frame.to_vec();
        bad_kind[4] = 0xee;
        assert!(matches!(
            frame_size_hint(&bad_kind),
            Err(WireError::BadKind(0xee))
        ));
        // A hostile length field is refused before anything is allocated.
        let mut huge = frame.to_vec();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            frame_size_hint(&huge),
            Err(WireError::Oversize(_))
        ));
        assert!(matches!(
            decode_frame(Bytes::from(huge)),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn corruption_is_detected_anywhere() {
        let frame = encode_frame(FrameKind::Synopsis, &vec![1u64, 2, 3]).unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.to_vec();
            bad[i] ^= 0x01;
            let r = decode_frame(Bytes::from(bad));
            assert!(r.is_err(), "flipping byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let frame = encode_frame(FrameKind::Hello, &42u64).unwrap();
        for cut in 0..frame.len() {
            let r = decode_frame(frame.slice(..cut));
            assert!(r.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frames_with_the_mod_p_magic_are_refused() {
        // "2LHS" stamped the frames of releases whose second-level
        // functions were the mod-(2⁶¹−1) family.
        const RETIRED_MAGIC: u32 = 0x324c_4853;
        let mut frame = encode_frame(FrameKind::Commit, &5u32).unwrap().to_vec();
        frame[..4].copy_from_slice(&RETIRED_MAGIC.to_le_bytes());
        assert_eq!(
            frame_size_hint(&frame),
            Err(WireError::BadMagic(RETIRED_MAGIC))
        );
        assert!(matches!(
            decode_frame(Bytes::from(frame)),
            Err(WireError::BadMagic(RETIRED_MAGIC))
        ));
    }

    #[test]
    fn bad_magic_reported() {
        let mut bytes = encode_frame(FrameKind::Hello, &0u8).unwrap().to_vec();
        bytes[0] ^= 0xff;
        match decode_frame(Bytes::from(bytes)) {
            Err(WireError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    fn ctx(trace_id: u64, span_id: u64, cut_ns: u64) -> FrameContext {
        FrameContext {
            trace: TraceContext { trace_id, span_id },
            cut_ns,
        }
    }

    #[test]
    fn traced_frames_round_trip_context_and_payload() {
        let value: Vec<u64> = (0..20).collect();
        let frame =
            encode_frame_traced(FrameKind::Delta, &value, Some(&ctx(7, 9, 123_456))).unwrap();
        let (kind, payload, got) = decode_frame_parts(frame.clone()).unwrap();
        assert_eq!(kind, FrameKind::Delta);
        assert_eq!(got, Some(ctx(7, 9, 123_456)));
        let back: Vec<u64> = codec::from_bytes(&payload).unwrap();
        assert_eq!(back, value);
        // decode_frame / decode_payload see the same message, minus ctx.
        let (kind, back2): (FrameKind, Vec<u64>) = decode_payload(frame).unwrap();
        assert_eq!(kind, FrameKind::Delta);
        assert_eq!(back2, value);
    }

    #[test]
    fn untraced_encoding_is_bit_identical_to_the_original_format() {
        let plain = encode_frame(FrameKind::Synopsis, &42u64).unwrap();
        let traced_none = encode_frame_traced(FrameKind::Synopsis, &42u64, None).unwrap();
        assert_eq!(plain, traced_none);
        assert_eq!(plain[4] & EXT_FLAG, 0, "no flag without a context");
        let (_, _, got) = decode_frame_parts(plain).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn traced_frames_satisfy_the_size_hint_contract() {
        let frame = encode_frame_traced(FrameKind::Commit, &5u32, Some(&ctx(1, 2, 3))).unwrap();
        for cut in 0..9 {
            assert_eq!(frame_size_hint(&frame[..cut]).unwrap(), None, "cut {cut}");
        }
        for cut in 9..=frame.len() {
            assert_eq!(frame_size_hint(&frame[..cut]).unwrap(), Some(frame.len()));
        }
    }

    #[test]
    fn unknown_extension_tags_are_skipped_not_fatal() {
        // Hand-build a frame whose extension carries an unrecognized tag.
        let payload = codec::to_bytes(&99u64).unwrap();
        let ext_body = [0xAAu8; 5];
        let total = EXT_HEADER_LEN + ext_body.len() + payload.len();
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u8(FrameKind::Hello.as_byte() | EXT_FLAG);
        buf.put_u32_le(total as u32);
        buf.put_u8(0x7E); // no such tag
        buf.put_slice(&(ext_body.len() as u16).to_le_bytes());
        buf.put_slice(&ext_body);
        buf.put_slice(&payload);
        let crc = crc32(&buf[4..]);
        buf.put_u32_le(crc);
        let (kind, body, got) = decode_frame_parts(buf.freeze()).unwrap();
        assert_eq!(kind, FrameKind::Hello);
        assert_eq!(got, None, "unknown tag is ignored");
        let back: u64 = codec::from_bytes(&body).unwrap();
        assert_eq!(back, 99);
    }

    #[test]
    fn extension_overrunning_payload_is_a_typed_error() {
        // ext_len claims more bytes than the payload region holds.
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u8(FrameKind::Delta.as_byte() | EXT_FLAG);
        buf.put_u32_le(3); // payload region: just the ext header
        buf.put_u8(ExtensionTag::TraceContext.as_byte());
        buf.put_slice(&500u16.to_le_bytes()); // overruns
        let crc = crc32(&buf[4..]);
        buf.put_u32_le(crc);
        assert!(matches!(
            decode_frame_parts(buf.freeze()),
            Err(WireError::Extension { ext_len: 500, .. })
        ));
    }

    #[test]
    fn traced_corruption_is_detected_anywhere() {
        let frame =
            encode_frame_traced(FrameKind::Delta, &vec![1u64, 2], Some(&ctx(3, 4, 5))).unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.to_vec();
            bad[i] ^= 0x01;
            // Flipping the kind byte's high bit alone changes the CRC, so
            // even ext-flag flips are caught.
            assert!(
                decode_frame_parts(Bytes::from(bad)).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn wrong_payload_type_is_codec_error() {
        let frame = encode_frame(FrameKind::Synopsis, &"text".to_string()).unwrap();
        let r: Result<(FrameKind, u64), _> = decode_payload(frame);
        assert!(matches!(r, Err(WireError::Codec(_))));
    }
}
