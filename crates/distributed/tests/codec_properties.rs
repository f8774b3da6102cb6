//! Property-based tests for the binary codec and wire framing: arbitrary
//! structured values round-trip, and arbitrary corruption never panics —
//! it is either detected or produces a clean decode error. Sketches
//! round-trip through their sparse counter blocks cell-identical.

use bytes::Bytes;
use proptest::collection::{btree_map, vec};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use setstream_core::{SketchConfig, TwoLevelSketch};
use setstream_distributed::codec::{from_bytes, to_bytes};
use setstream_distributed::wire::{decode_frame, encode_frame, FrameKind};
use setstream_hash::HashFamily;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Unit,
    Num(i64),
    Pair(u8, bool),
    Named { text: String, vals: Vec<u32> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Payload {
    flag: bool,
    byte: u8,
    wide: u64,
    signed: i64,
    real: f64,
    text: String,
    list: Vec<u64>,
    map: BTreeMap<u16, String>,
    opt: Option<u32>,
    nodes: Vec<Node>,
    tuple: (u8, u64, bool),
}

fn arb_node() -> impl Strategy<Value = Node> {
    prop_oneof![
        Just(Node::Unit),
        any::<i64>().prop_map(Node::Num),
        (any::<u8>(), any::<bool>()).prop_map(|(a, b)| Node::Pair(a, b)),
        ("[a-zA-Z0-9 ]{0,12}", vec(any::<u32>(), 0..6))
            .prop_map(|(text, vals)| Node::Named { text, vals }),
    ]
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    (
        (
            any::<bool>(),
            any::<u8>(),
            any::<u64>(),
            any::<i64>(),
            // Finite floats only: NaN breaks PartialEq round-trip checks.
            (-1e300f64..1e300).prop_map(|x| x),
            "\\PC{0,24}",
        ),
        (
            vec(any::<u64>(), 0..32),
            btree_map(any::<u16>(), "[a-z]{0,8}", 0..8),
            proptest::option::of(any::<u32>()),
            vec(arb_node(), 0..8),
            (any::<u8>(), any::<u64>(), any::<bool>()),
        ),
    )
        .prop_map(
            |((flag, byte, wide, signed, real, text), (list, map, opt, nodes, tuple))| Payload {
                flag,
                byte,
                wide,
                signed,
                real,
                text,
                list,
                map,
                opt,
                nodes,
                tuple,
            },
        )
}

fn shape(levels: u32, second_level: u32) -> SketchConfig {
    SketchConfig {
        levels,
        second_level,
        first_family: HashFamily::KWise(2),
    }
}

/// Independent oracle for the counter-block layout: mask, then each
/// occupied row's cells as zigzag LEB128.
fn dense_to_block(config: &SketchConfig, cells: &[i64]) -> Vec<u8> {
    let width = 2 * config.second_level as usize;
    let mut mask = 0u64;
    let mut rows = Vec::new();
    for (level, row) in cells.chunks(width).enumerate() {
        if row.iter().all(|&c| c == 0) {
            continue;
        }
        mask |= 1 << level;
        for &c in row {
            let mut v = ((c << 1) ^ (c >> 63)) as u64;
            while v >= 0x80 {
                rows.push(v as u8 | 0x80);
                v >>= 7;
            }
            rows.push(v as u8);
        }
    }
    let mut block = mask.to_le_bytes().to_vec();
    block.extend_from_slice(&rows);
    block
}

/// Build a sketch holding exactly `cells`, via the block decoder.
fn sketch_with_cells(config: SketchConfig, seed: u64, cells: &[i64]) -> TwoLevelSketch {
    let width = 2 * config.second_level as usize;
    let total = cells
        .chunks(width)
        .map(|row| row[0].wrapping_add(row[1]))
        .fold(0i64, i64::wrapping_add);
    TwoLevelSketch::from_counter_block(config, seed, &dense_to_block(&config, cells), total)
        .unwrap()
}

fn assert_round_trips(sketch: &TwoLevelSketch) {
    let back: TwoLevelSketch = from_bytes(&to_bytes(sketch).unwrap()).unwrap();
    assert_eq!(back.counters(), sketch.counters());
    assert_eq!(back.total_count(), sketch.total_count());
    assert_eq!(
        (back.config(), back.seed()),
        (sketch.config(), sketch.seed())
    );
    assert_eq!(back.counter_block(), sketch.counter_block());
}

#[test]
fn extreme_sketches_round_trip_cell_identical() {
    let config = shape(64, 4);
    let n = config.n_counters();
    // All zero: the block is the empty mask alone.
    let empty = TwoLevelSketch::new(config, 1);
    assert_eq!(empty.counter_block(), vec![0u8; 8]);
    assert_round_trips(&empty);
    // Every row occupied, cells at both ends of the i64 range.
    let extremes: Vec<i64> = (0..n)
        .map(|i| match i % 4 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -1,
            _ => 0,
        })
        .collect();
    let full = sketch_with_cells(config, 2, &extremes);
    assert_eq!(full.counter_block()[..8], u64::MAX.to_le_bytes());
    assert_round_trips(&full);
    // A single occupied top level (bit 63 of the mask).
    let mut top = vec![0i64; n];
    top[n - 1] = i64::MIN;
    top[n - 8] = 1;
    top[n - 7] = i64::MIN + 1;
    assert_round_trips(&sketch_with_cells(config, 3, &top));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_sketches_round_trip_cell_identical(
        levels in 1u32..=64,
        second_level in 1u32..=8,
        seed in any::<u64>(),
        updates in vec((any::<u64>(), -1000i64..1000), 0..200),
    ) {
        let mut sketch = TwoLevelSketch::new(shape(levels, second_level), seed);
        for &(e, d) in &updates {
            sketch.update(e, d);
        }
        let back: TwoLevelSketch = from_bytes(&to_bytes(&sketch).unwrap()).unwrap();
        prop_assert_eq!(back.counters(), sketch.counters());
        prop_assert_eq!(back.total_count(), sketch.total_count());
        // The block is the independent oracle's encoding, byte for byte.
        prop_assert_eq!(
            sketch.counter_block(),
            dense_to_block(sketch.config(), sketch.counters())
        );
    }

    #[test]
    fn random_cells_round_trip_cell_identical(
        cells in vec(any::<i64>(), 96..97),
        sparse in vec(any::<bool>(), 16..17),
    ) {
        // Arbitrary i64 cells (any magnitude, either sign) in a random
        // subset of 16 levels.
        let config = shape(16, 3);
        let width = 6;
        let mut cells = cells;
        for (row, keep) in cells.chunks_mut(width).zip(&sparse) {
            if !keep {
                row.fill(0);
            }
        }
        let sketch = sketch_with_cells(config, 9, &cells);
        let back: TwoLevelSketch = from_bytes(&to_bytes(&sketch).unwrap()).unwrap();
        prop_assert_eq!(back.counters(), &cells[..]);
    }

    #[test]
    fn codec_round_trips_arbitrary_payloads(p in arb_payload()) {
        let bytes = to_bytes(&p).unwrap();
        let back: Payload = from_bytes(&bytes).unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn codec_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..256)) {
        // Decoding random bytes as a structured type must fail cleanly or
        // succeed, never panic / overflow / OOM.
        let _ = from_bytes::<Payload>(&bytes);
        let _ = from_bytes::<Vec<u64>>(&bytes);
        let _ = from_bytes::<String>(&bytes);
        let _ = from_bytes::<BTreeMap<u16, String>>(&bytes);
    }

    #[test]
    fn frames_round_trip(p in arb_payload()) {
        let frame = encode_frame(FrameKind::Synopsis, &p).unwrap();
        let (kind, payload) = decode_frame(frame).unwrap();
        prop_assert_eq!(kind, FrameKind::Synopsis);
        let back: Payload = from_bytes(&payload).unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn single_bit_flips_never_survive(
        p in arb_payload(),
        flip_pos in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = encode_frame(FrameKind::Synopsis, &p).unwrap();
        let mut corrupt = frame.to_vec();
        let i = flip_pos.index(corrupt.len());
        corrupt[i] ^= 1 << bit;
        prop_assert!(
            decode_frame(Bytes::from(corrupt)).is_err(),
            "bit flip at byte {} bit {} went undetected", i, bit
        );
    }

    #[test]
    fn frame_decoding_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..200)) {
        let _ = decode_frame(Bytes::from(bytes));
    }
}
