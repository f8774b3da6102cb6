//! Hostile-input hardening for the SSWL wire container.
//!
//! Every path a byte from the network can take — `decode_frame`,
//! `decode_payload`, `frame_size_hint`, the streaming `FrameReader` —
//! must hold three properties against adversarial input:
//!
//! 1. **Never panic.** Truncations, bit flips, wrong kinds, hostile
//!    lengths: always a typed [`WireError`], never an abort.
//! 2. **Never allocate unbounded.** The declared payload length is
//!    capped *before* any buffer is sized from it; a 4 GiB length field
//!    costs nothing.
//! 3. **Stay consistent.** `frame_size_hint` (the streaming header
//!    check) and `decode_frame` (the full check) must agree: a frame the
//!    hint rejects can never decode, and a frame that decodes must have
//!    an exact hint.
//!
//! The sketch counter block inside a payload gets the same treatment:
//! every malformed block is a typed `EstimateError::Corrupt` (surfacing as
//! a codec error on the wire), and a shape that would size a huge
//! allocation is refused from its header.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use serde::{Serialize, Serializer};
use setstream_core::{
    estimate, EstimateError, EstimatorOptions, SketchConfig, SketchFamily, SketchVector,
    TwoLevelSketch,
};
use setstream_distributed::codec::{self, CodecError};
use setstream_distributed::site::{EpochCommit, SynopsisMessage};
use setstream_distributed::transport::FrameReader;
use setstream_distributed::wire::{
    crc32, decode_frame, decode_frame_parts, decode_payload, encode_frame, encode_frame_traced,
    frame_size_hint, FrameContext, FrameKind, WireError, EXT_FLAG, MAX_PAYLOAD_LEN,
};
use setstream_expr::SetExpr;
use setstream_hash::HashFamily;
use setstream_obs::TraceContext;
use setstream_stream::{StreamId, Update};

fn commit_frame(epoch: u64) -> Bytes {
    encode_frame(
        FrameKind::Commit,
        &EpochCommit {
            site: 7,
            epoch,
            deltas: 3,
        },
    )
    .unwrap()
}

#[test]
fn declared_oversize_length_is_rejected_before_allocation() {
    // A 13-byte buffer claiming a u32::MAX payload: if the length were
    // trusted, reading would demand 4 GiB. The cap must reject it from
    // the header alone.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&0x324c_4841u32.to_le_bytes()); // magic "2LHA"
    hostile.push(2); // Synopsis
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
    hostile.extend_from_slice(&[0u8; 4]); // fake crc
    match decode_frame(Bytes::from(hostile.clone())) {
        Err(WireError::Oversize(len)) => assert_eq!(len, u32::MAX as usize),
        other => panic!("expected Oversize, got {other:?}"),
    }
    match frame_size_hint(&hostile) {
        Err(WireError::Oversize(len)) => assert_eq!(len, u32::MAX as usize),
        other => panic!("expected Oversize from hint, got {other:?}"),
    }
    // Just past the cap is also refused; the cap itself is fine.
    let over = (MAX_PAYLOAD_LEN + 1) as u32;
    hostile[5..9].copy_from_slice(&over.to_le_bytes());
    assert!(matches!(
        frame_size_hint(&hostile),
        Err(WireError::Oversize(_))
    ));
}

#[test]
fn wrong_kind_byte_is_a_typed_error() {
    let frame = commit_frame(1);
    let mut bytes = frame.to_vec();
    bytes[4] = 0x7f; // not a FrameKind
    match decode_frame(Bytes::from(bytes.clone())) {
        Err(WireError::BadKind(0x7f)) => {}
        other => panic!("expected BadKind, got {other:?}"),
    }
    match frame_size_hint(&bytes) {
        Err(WireError::BadKind(0x7f)) => {}
        other => panic!("expected BadKind from hint, got {other:?}"),
    }
}

#[test]
fn frame_reader_is_bounded_by_its_cap() {
    // A reader with a tiny cap refuses a legitimate-but-large frame
    // without buffering it.
    let frame = commit_frame(1);
    let mut reader = FrameReader::new(frame.len() - 1);
    reader.extend(&frame);
    assert!(matches!(reader.next_frame(), Err(WireError::Oversize(_))));
}

/// Recompute the trailing CRC over everything after the magic. The CRC
/// check runs *before* extension parsing, so a hostile block has to
/// arrive CRC-valid to exercise the extension path at all.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = crc32(&bytes[4..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

fn traced_commit_frame(epoch: u64, ctx: &FrameContext) -> Bytes {
    encode_frame_traced(
        FrameKind::Commit,
        &EpochCommit {
            site: 7,
            epoch,
            deltas: 3,
        },
        Some(ctx),
    )
    .unwrap()
}

#[test]
fn declared_extension_overrun_is_a_typed_error() {
    // A CRC-valid frame whose extension block claims more bytes than the
    // payload holds: structurally impossible, must be WireError::Extension
    // (the writer is buggy or hostile), never a panic or a bogus decode.
    let ctx = FrameContext::default();
    let mut bytes = traced_commit_frame(1, &ctx).to_vec();
    // Ext header sits at the start of the payload: tag at 9, u16 len at 10.
    bytes[10..12].copy_from_slice(&u16::MAX.to_le_bytes());
    reseal(&mut bytes);
    match decode_frame_parts(Bytes::from(bytes.clone())) {
        Err(WireError::Extension { ext_len, .. }) => assert_eq!(ext_len, u16::MAX as usize),
        other => panic!("expected Extension error, got {other:?}"),
    }
    // The hint judges frames by header alone; an in-payload overrun is
    // decode's job, and (Ok hint, Err decode) is a legal combination.
    assert_eq!(frame_size_hint(&bytes).unwrap(), Some(bytes.len()));
}

// ------------------------------------------------------- counter blocks

/// Shape used by the block tests: 4 levels × s = 1, so each occupied
/// row is two cells.
fn tiny() -> SketchConfig {
    SketchConfig {
        levels: 4,
        second_level: 1,
        first_family: HashFamily::KWise(2),
    }
}

fn block(mask: u64, rows: &[u8]) -> Vec<u8> {
    let mut b = mask.to_le_bytes().to_vec();
    b.extend_from_slice(rows);
    b
}

fn corrupt_reason(config: SketchConfig, block: &[u8], total: i64) -> String {
    match TwoLevelSketch::from_counter_block(config, 1, block, total) {
        Err(EstimateError::Corrupt(why)) => why,
        other => panic!("expected a Corrupt rejection, got {other:?}"),
    }
}

#[test]
fn malformed_counter_blocks_are_typed_corrupt_rejections() {
    // Level 1 holds cells (3, -1): zigzag 6 and 1. j = 0 sums to 2.
    let good = block(0b10, &[6, 1]);
    let sketch = TwoLevelSketch::from_counter_block(tiny(), 1, &good, 2).unwrap();
    assert_eq!(sketch.counters(), &[0, 0, 3, -1, 0, 0, 0, 0]);
    assert_eq!(sketch.counter_block(), good);

    let cases: [(&str, Vec<u8>, i64, &str); 9] = [
        ("no mask", vec![0, 0, 0], 0, "no row mask"),
        ("mask bit at levels", block(1 << 4, &[2, 0]), 1, "beyond"),
        ("mask bit 63", block(1 << 63, &[2, 0]), 1, "beyond"),
        ("truncated varint", block(0b1, &[2, 0x80]), 1, "truncated"),
        ("row cut short", block(0b1, &[2]), 1, "truncated"),
        (
            "11-byte varint",
            block(0b1, &[[0xff; 10].as_slice(), &[0x01, 0]].concat()),
            0,
            "longer than 10",
        ),
        (
            "overflowing varint",
            block(0b1, &[[0xff; 9].as_slice(), &[0x02, 0]].concat()),
            0,
            "overflows",
        ),
        ("trailing bytes", block(0b10, &[6, 1, 0]), 2, "trailing"),
        (
            "j = 0 sum differs from total",
            good.clone(),
            3,
            "does not match",
        ),
    ];
    for (what, bytes, total, reason) in cases {
        let why = corrupt_reason(tiny(), &bytes, total);
        assert!(why.contains(reason), "{what}: {why}");
    }
    // Non-canonical encodings are refused too, so accepted blocks are
    // unique: a flagged all-zero row, and an overlong zero.
    assert!(corrupt_reason(tiny(), &block(0b1, &[0, 0]), 0).contains("all zero"));
    assert!(corrupt_reason(tiny(), &block(0b1, &[0x82, 0x00, 0]), 1).contains("overlong"));
}

/// The serde layout of a sketch — `config | seed | bytes | total` — with
/// an arbitrary block, for driving hostile blocks through the codec.
struct RawSketch {
    config: SketchConfig,
    seed: u64,
    block: Vec<u8>,
    total: i64,
}

impl Serialize for RawSketch {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        struct Blob<'a>(&'a [u8]);
        impl Serialize for Blob<'_> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_bytes(self.0)
            }
        }
        let mut out = serializer.serialize_struct("TwoLevelSketch", 4)?;
        out.serialize_field("config", &self.config)?;
        out.serialize_field("seed", &self.seed)?;
        out.serialize_field("counters", &Blob(&self.block))?;
        out.serialize_field("total", &self.total)?;
        out.end()
    }
}

#[test]
fn huge_declared_shape_with_an_empty_mask_is_refused_before_allocation() {
    // Sixteen bytes of block would otherwise size a 64 × 2³² × 2-cell
    // (4 TiB) counter array.
    let hostile = RawSketch {
        config: SketchConfig {
            levels: 64,
            second_level: u32::MAX,
            first_family: HashFamily::KWise(2),
        },
        seed: 1,
        block: 0u64.to_le_bytes().to_vec(),
        total: 0,
    };
    let why = corrupt_reason(hostile.config, &hostile.block, 0);
    assert!(why.contains("exceed"), "{why}");
    let bytes = codec::to_bytes(&hostile).unwrap();
    match codec::from_bytes::<TwoLevelSketch>(&bytes) {
        Err(CodecError::Message(m)) => assert!(m.contains("corrupt synopsis payload"), "{m}"),
        other => panic!("expected a codec rejection, got {other:?}"),
    }
}

/// The serde layout of a vector, with an arbitrary family and sketches.
#[derive(Serialize)]
struct RawVector {
    family: SketchFamily,
    sketches: Vec<RawSketch>,
}

fn empty_copy(config: SketchConfig, seed: u64) -> RawSketch {
    RawSketch {
        config,
        seed,
        block: 0u64.to_le_bytes().to_vec(),
        total: 0,
    }
}

fn vector_rejection(raw: &RawVector) -> String {
    match codec::from_bytes::<SketchVector>(&codec::to_bytes(raw).unwrap()) {
        Err(CodecError::Message(m)) => m,
        other => panic!("expected a codec rejection, got {other:?}"),
    }
}

#[test]
fn vector_headers_cannot_size_allocations_beyond_the_cap() {
    // 2²⁰ paper-shape copies (32 GiB of cells), declared in a few bytes.
    let paper = SketchConfig::default();
    let huge = RawVector {
        family: SketchFamily::new(paper, 1 << 20, 1),
        sketches: Vec::new(),
    };
    assert!(vector_rejection(&huge).contains("exceed"));
    // Copies must match the family's shape and count; each is checked
    // before its counters are allocated.
    let family = SketchFamily::new(tiny(), 2, 1);
    let big = SketchConfig {
        second_level: 512,
        ..paper
    };
    let wrong_shape = RawVector {
        family,
        sketches: vec![empty_copy(big, 1), empty_copy(tiny(), 2)],
    };
    assert!(vector_rejection(&wrong_shape).contains("differs"));
    let short = RawVector {
        family,
        sketches: vec![empty_copy(tiny(), family.copy_seed(0))],
    };
    assert!(vector_rejection(&short).contains("carries 1 sketches"));
    let honest = RawVector {
        family,
        sketches: (0..2)
            .map(|i| empty_copy(tiny(), family.copy_seed(i)))
            .collect(),
    };
    let back: SketchVector = codec::from_bytes(&codec::to_bytes(&honest).unwrap()).unwrap();
    assert!(back.is_null());
}

/// The serde layout of a [`SynopsisMessage`], around a raw vector.
#[derive(Serialize)]
struct RawSynopsis {
    site: u32,
    stream: StreamId,
    epoch: u64,
    vector: RawVector,
}

fn zigzag_varint(out: &mut Vec<u8>, v: i64) {
    let mut u = ((v << 1) ^ (v >> 63)) as u64;
    while u >= 0x80 {
        out.push(u as u8 | 0x80);
        u >>= 7;
    }
    out.push(u as u8);
}

/// A Synopsis frame whose copy 0 holds level-0 cells (i64::MAX, 1),
/// decoded through the codec. The block is canonical and its j = 0 cells
/// sum (wrapping) to the declared total i64::MIN, so the decoder accepts
/// it — yet an unchecked `cell + cell` emptiness probe, or an unchecked
/// cell add, overflows on it.
fn decode_extreme_cells() -> (SketchFamily, SketchVector) {
    let family = SketchFamily::new(tiny(), 2, 1);
    let mut block = 1u64.to_le_bytes().to_vec();
    zigzag_varint(&mut block, i64::MAX);
    zigzag_varint(&mut block, 1);
    let hostile = RawSynopsis {
        site: 7,
        stream: StreamId(0),
        epoch: 1,
        vector: RawVector {
            family,
            sketches: vec![
                RawSketch {
                    config: tiny(),
                    seed: family.copy_seed(0),
                    block,
                    total: i64::MIN,
                },
                empty_copy(tiny(), family.copy_seed(1)),
            ],
        },
    };
    let frame = encode_frame(FrameKind::Synopsis, &hostile).unwrap();
    let (kind, message): (FrameKind, SynopsisMessage) = decode_payload(frame).unwrap();
    assert_eq!(kind, FrameKind::Synopsis);
    (family, message.vector)
}

#[test]
fn extreme_cells_decode_merge_and_estimate_without_panicking() {
    let (family, decoded) = decode_extreme_cells();
    assert_eq!(decoded.sketches()[0].cell(0, 0, 0), i64::MAX);
    assert!(!decoded.sketches()[0].is_level_empty(0));

    // Merging it twice wraps the cells to (-2, 2) and the total to 0;
    // subtracting it again wraps back.
    let mut merged = family.new_vector();
    merged.merge_from(&decoded).unwrap();
    merged.merge_from(&decoded).unwrap();
    assert_eq!(merged.sketches()[0].counters()[..2], [-2, 2]);
    let mut other = family.new_vector();
    for e in 0..50u64 {
        other.insert(e);
    }
    let opts = EstimatorOptions::default();
    let expr: SetExpr = "(A - B) | (B & A)".parse().unwrap();
    for v in [&decoded, &merged] {
        estimate::union(&[v, &other], &opts).unwrap();
        let answer = estimate::expression(&expr, &[(StreamId(0), v), (StreamId(1), &other)], &opts);
        assert!(
            matches!(answer, Ok(_) | Err(EstimateError::NoValidObservations)),
            "{answer:?}"
        );
    }
    merged.subtract_from(&decoded).unwrap();
    assert_eq!(merged.sketches()[0].counters(), decoded.sketches()[0].counters());
    assert_eq!(merged.sketches()[0].total_count(), i64::MIN);
}

#[test]
fn extreme_cells_take_scalar_and_batch_updates() {
    // Updates landing on the decoded i64::MAX cell go through the lane
    // kernels, whose cell adds wrap. Maintenance is linear and merge
    // wraps too, so each result equals the decoded sketch merged with a
    // fresh one given the same updates.
    let (family, decoded) = decode_extreme_cells();
    let inserts: Vec<Update> = (0..64u64)
        .map(|e| Update::insert(StreamId(0), e, 1))
        .collect();
    let mixed: Vec<Update> = (0..64u64)
        .map(|e| Update {
            stream: StreamId(0),
            element: e,
            delta: if e % 3 == 0 { -2 } else { 1 },
        })
        .collect();
    for (what, updates, batch) in [
        ("scalar insert", &inserts, false),
        ("uniform batch", &inserts, true),
        ("mixed-delta batch", &mixed, true),
    ] {
        let mut got = decoded.clone();
        let mut fresh = family.new_vector();
        if batch {
            got.update_batch(updates);
            fresh.update_batch(updates);
        } else {
            for u in updates {
                got.process(u);
                fresh.process(u);
            }
        }
        let mut want = decoded.clone();
        want.merge_from(&fresh).unwrap();
        for (g, w) in got.sketches().iter().zip(want.sketches()) {
            assert_eq!(g.counters(), w.counters(), "{what}");
            assert_eq!(g.total_count(), w.total_count(), "{what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn garbage_counter_blocks_never_panic(
        levels in 1u32..=64,
        second_level in 1u32..=4,
        mask in any::<u64>(),
        rows in vec(any::<u8>(), 0..96),
        total in -4i64..4,
    ) {
        let config = SketchConfig {
            levels,
            second_level,
            first_family: HashFamily::KWise(2),
        };
        let bytes = block(mask, &rows);
        // Typed outcome only; an accepted block is canonical.
        match TwoLevelSketch::from_counter_block(config, 5, &bytes, total) {
            Ok(sketch) => prop_assert_eq!(sketch.counter_block(), bytes.clone()),
            Err(EstimateError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
        // The same block through the codec, and raw garbage in place of
        // a whole sketch payload.
        let raw = RawSketch { config, seed: 5, block: bytes, total };
        let _ = codec::from_bytes::<TwoLevelSketch>(&codec::to_bytes(&raw).unwrap());
        let _ = codec::from_bytes::<TwoLevelSketch>(&rows);
    }

    #[test]
    fn single_byte_mutations_of_real_blocks_stay_typed(
        seed in any::<u64>(),
        pos in any::<proptest::sample::Index>(),
        value in any::<u8>(),
    ) {
        let mut sketch = TwoLevelSketch::new(tiny(), seed);
        for e in 0..40u64 {
            sketch.update(e, if e % 3 == 0 { -7 } else { 300 });
        }
        let mut bytes = sketch.counter_block();
        let i = pos.index(bytes.len());
        bytes[i] = value;
        match TwoLevelSketch::from_counter_block(tiny(), seed, &bytes, sketch.total_count()) {
            Ok(back) => prop_assert_eq!(back.counter_block(), bytes),
            Err(EstimateError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    #[test]
    fn traced_frames_round_trip_and_plain_consumers_ignore_the_extension(
        trace_id in any::<u64>(),
        span_id in any::<u64>(),
        cut_ns in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let ctx = FrameContext {
            trace: TraceContext { trace_id, span_id },
            cut_ns,
        };
        let traced = traced_commit_frame(epoch, &ctx);
        // Full decode recovers the exact context.
        let (kind, _, back) = decode_frame_parts(traced.clone()).unwrap();
        prop_assert_eq!(kind, FrameKind::Commit);
        prop_assert_eq!(back, Some(ctx));
        // A context-blind consumer (the pre-extension decode path) still
        // reads the message — the extension is skipped, not misparsed.
        let (_, msg): (FrameKind, EpochCommit) = decode_payload(traced.clone()).unwrap();
        prop_assert_eq!(msg.epoch, epoch);
        // The streaming hint agrees on the traced frame's exact extent.
        prop_assert_eq!(frame_size_hint(&traced).unwrap(), Some(traced.len()));
        // And the version gate: a ctx-less encode is bit-identical to the
        // original format and decodes with no context.
        let plain = commit_frame(epoch);
        prop_assert_eq!(plain[4] & EXT_FLAG, 0);
        let (_, _, none) = decode_frame_parts(plain).unwrap();
        prop_assert_eq!(none, None);
    }

    #[test]
    fn hostile_extension_tags_and_lengths_never_break_frame_decode(
        tag in any::<u8>(),
        declared in 0u16..64,
        epoch in any::<u64>(),
    ) {
        // Rewrite the tag and declared length of a real extension block,
        // reseal the CRC, and decode. Unknown tags and short/shifted
        // bodies must degrade to "no context" — the frame (and its kind)
        // still decode; only a declared overrun is an error.
        let ctx = FrameContext {
            trace: TraceContext { trace_id: 9, span_id: 9 },
            cut_ns: 9,
        };
        let mut bytes = traced_commit_frame(epoch, &ctx).to_vec();
        bytes[9] = tag;
        bytes[10..12].copy_from_slice(&declared.to_le_bytes());
        reseal(&mut bytes);
        let payload_len = bytes.len() - 13; // magic4 + kind1 + len4 + crc4
        match decode_frame_parts(Bytes::from(bytes.clone())) {
            Ok((kind, _, _)) => {
                prop_assert_eq!(kind, FrameKind::Commit);
                prop_assert!(declared as usize <= payload_len - 3);
            }
            Err(WireError::Extension { ext_len, available }) => {
                prop_assert_eq!(ext_len, declared as usize);
                prop_assert!(ext_len > available);
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
        // Hostile extension interiors never confuse the framing layer.
        prop_assert_eq!(frame_size_hint(&bytes).unwrap(), Some(bytes.len()));
    }

    #[test]
    fn garbage_extension_payloads_never_panic(
        garbage in vec(any::<u8>(), 0..64),
        epoch in any::<u64>(),
    ) {
        // An EXT-flagged frame whose entire payload is attacker-chosen
        // (CRC resealed): decode yields a typed result — Ok with the kind
        // intact, or Truncated/Extension — and the streaming reader can
        // carry the frame without desyncing.
        let plain = commit_frame(epoch);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&plain[..4]);
        bytes.push(plain[4] | EXT_FLAG);
        bytes.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&garbage);
        bytes.extend_from_slice(&[0u8; 4]);
        reseal(&mut bytes);
        match decode_frame_parts(Bytes::from(bytes.clone())) {
            Ok((kind, _, _)) => prop_assert_eq!(kind, FrameKind::Commit),
            Err(WireError::Extension { .. } | WireError::Truncated) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
        prop_assert_eq!(frame_size_hint(&bytes).unwrap(), Some(bytes.len()));
        let mut reader = FrameReader::new(1 << 16);
        reader.extend(&bytes);
        prop_assert!(reader.next_frame().unwrap().is_some());
        prop_assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn truncations_never_panic_and_never_decode(cut in 0usize..40) {
        let frame = commit_frame(9);
        if cut >= frame.len() {
            return Ok(());
        }
        let cut_frame = Bytes::from(frame.to_vec()[..cut].to_vec());
        // Either "need more bytes" (short header) or a typed error —
        // never success, never a panic.
        prop_assert!(decode_frame(cut_frame).is_err());
        match frame_size_hint(&frame.to_vec()[..cut]) {
            Ok(Some(total)) => prop_assert_eq!(total, frame.len()),
            Ok(None) => prop_assert!(cut < 9, "full header must always yield a hint"),
            Err(_) => {}
        }
    }

    #[test]
    fn bit_flips_yield_typed_errors_only(
        epoch in any::<u64>(),
        flip_pos in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = commit_frame(epoch);
        let mut bytes = frame.to_vec();
        let i = flip_pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        match decode_frame(Bytes::from(bytes.clone())) {
            Err(
                WireError::BadMagic(_)
                | WireError::BadKind(_)
                | WireError::Truncated
                | WireError::Oversize(_)
                | WireError::Corrupt { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            Ok(_) => prop_assert!(false, "bit flip at byte {} bit {} survived", i, bit),
        }
    }

    #[test]
    fn decode_payload_never_panics_on_wrong_kind_or_garbage(
        epoch in any::<u64>(),
        garbage in vec(any::<u8>(), 0..128),
    ) {
        // Wrong-kind decode: a Commit frame parsed as a Hello payload
        // must fail cleanly in the codec, not panic.
        let frame = commit_frame(epoch);
        let _ = decode_payload::<setstream_distributed::site::Hello>(frame);
        // And raw garbage through the whole payload path.
        let _ = decode_payload::<EpochCommit>(Bytes::from(garbage));
    }

    #[test]
    fn size_hint_agrees_with_decode(bytes in vec(any::<u8>(), 0..64)) {
        // Consistency: if the hint errors, decode must error; if decode
        // succeeds, the hint must have predicted the exact frame length.
        let hint = frame_size_hint(&bytes);
        let decoded = decode_frame(Bytes::from(bytes.clone()));
        match (hint, decoded) {
            (Err(_), Ok(_)) => prop_assert!(false, "hint rejected a decodable frame"),
            (Ok(Some(total)), Ok(_)) => prop_assert_eq!(total, bytes.len()),
            (Ok(None), Ok(_)) => prop_assert!(false, "decoded without a full header"),
            _ => {}
        }
    }

    #[test]
    fn frame_reader_never_panics_on_garbage_streams(
        chunks in vec(vec(any::<u8>(), 0..48), 0..8),
    ) {
        // Feed arbitrary byte chunks; the reader either yields frames,
        // asks for more, or reports desync — and its buffer stays
        // bounded by cap + one chunk.
        let cap = 1 << 16;
        let mut reader = FrameReader::new(cap);
        for chunk in &chunks {
            reader.extend(chunk);
            loop {
                match reader.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => return Ok(()), // desync: connection would drop here
                }
            }
            prop_assert!(reader.buffered() <= cap + 48);
        }
    }

    #[test]
    fn valid_frames_survive_interleaved_garbage_prefix_free(n in 1usize..5) {
        // A stream of back-to-back valid frames always reassembles.
        let mut stream = Vec::new();
        for e in 0..n as u64 {
            stream.extend_from_slice(&commit_frame(e));
        }
        let mut reader = FrameReader::new(1 << 16);
        reader.extend(&stream);
        let mut seen = 0usize;
        while let Some(frame) = reader.next_frame().unwrap() {
            prop_assert!(decode_frame(frame).is_ok());
            seen += 1;
        }
        prop_assert_eq!(seen, n);
        prop_assert_eq!(reader.buffered(), 0);
    }
}
