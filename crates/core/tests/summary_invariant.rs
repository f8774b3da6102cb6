//! The occupancy summary a `TwoLevelSketch` keeps beside its counters —
//! the `occupied`, `multi` and row masks and the per-level sign words —
//! must equal one recomputed from `counters()` after every write, over
//! random interleavings of every write path: scalar `update`,
//! `update_batch`, sharded `par_slices` apply, `merge_from`,
//! `subtract_from`, `delta_since`, `truncated` and the serde form's round
//! trip (`counter_block` → `from_counter_block`), including cells with
//! arbitrary `i64` values.

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_core::{PreparedBatch, SketchConfig, SketchFamily, SketchVector, TwoLevelSketch};
use setstream_hash::HashFamily;
use setstream_stream::{StreamId, Update};

/// `(occupied, multi, rows, sign words of every level)`.
type Summary = (u64, u64, u64, Vec<u64>);

/// The summary as the sketch maintains it.
fn kept(sk: &TwoLevelSketch) -> Summary {
    let signs = (0..sk.levels()).flat_map(|l| sk.sign_words(l).to_vec()).collect();
    (sk.occupied_levels(), sk.multi_levels(), sk.row_mask(), signs)
}

/// The summary recomputed naively from the cells.
fn naive(sk: &TwoLevelSketch) -> Summary {
    let s = sk.second_level() as usize;
    let width = s.div_ceil(32);
    let (mut occupied, mut multi, mut rows) = (0u64, 0u64, 0u64);
    let mut signs = vec![0u64; sk.levels() as usize * width];
    for (level, row) in sk.counters().chunks(2 * s).enumerate() {
        let bit = 1u64 << level;
        if row[0].wrapping_add(row[1]) != 0 {
            occupied |= bit;
        }
        if row.chunks(2).any(|pair| pair[0] > 0 && pair[1] > 0) {
            multi |= bit;
        }
        if row.iter().any(|&c| c != 0) {
            rows |= bit;
        }
        for (k, &c) in row.iter().enumerate() {
            if c > 0 {
                signs[level * width + k / 64] |= 1 << (k % 64);
            }
        }
    }
    (occupied, multi, rows, signs)
}

fn check_sketch(sk: &TwoLevelSketch, step: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(kept(sk), naive(sk), "after {}", step);
    prop_assert_eq!(sk.is_null(), sk.counters().iter().all(|&c| c == 0), "after {}", step);
    for level in 0..sk.levels() {
        prop_assert_eq!(sk.is_level_empty(level), sk.level_total(level) == 0, "after {}", step);
    }
    Ok(())
}

fn check_vector(v: &SketchVector, step: &str) -> Result<(), TestCaseError> {
    for sk in v.sketches() {
        check_sketch(sk, step)?;
    }
    Ok(())
}

/// The serde form's two halves: the sparse counter block out, then back.
fn round_trip(sk: &TwoLevelSketch) -> TwoLevelSketch {
    let block = sk.counter_block();
    TwoLevelSketch::from_counter_block(*sk.config(), sk.seed(), &block, sk.total_count())
        .expect("a sketch's own counter block decodes")
}

fn updates(pairs: &[(u64, i64)]) -> Vec<Update> {
    pairs
        .iter()
        .map(|&(element, delta)| Update {
            stream: StreamId(0),
            element,
            delta,
        })
        .collect()
}

fn arb_config() -> impl Strategy<Value = SketchConfig> {
    (
        prop_oneof![Just(4u32), Just(16), Just(64)],
        prop_oneof![Just(1u32), Just(8), Just(32), Just(33), Just(65)],
    )
        .prop_map(|(levels, second_level)| SketchConfig {
            levels,
            second_level,
            first_family: HashFamily::KWise(4),
        })
}

/// A small element domain, so deletions empty rows again, and deltas
/// that drive cells negative.
fn arb_updates(max: usize) -> impl Strategy<Value = Vec<(u64, i64)>> {
    vec((0u64..300, -3i64..4), 0..max)
}

#[derive(Debug, Clone)]
enum VectorOp {
    Update(usize, u64, i64),
    Batch(usize, Vec<(u64, i64)>),
    Sharded(usize, usize, Vec<(u64, i64)>),
    Merge(usize, usize),
    Subtract(usize, usize),
    Delta(usize, usize),
    Truncate(usize, usize),
    RoundTrip(usize),
}

fn arb_vector_op() -> impl Strategy<Value = VectorOp> {
    prop_oneof![
        (0usize..3, 0u64..300, -3i64..4).prop_map(|(v, e, d)| VectorOp::Update(v, e, d)),
        (0usize..3, arb_updates(700)).prop_map(|(v, u)| VectorOp::Batch(v, u)),
        (0usize..3, 1usize..4, arb_updates(700))
            .prop_map(|(v, n, u)| VectorOp::Sharded(v, n, u)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| VectorOp::Merge(a, b)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| VectorOp::Subtract(a, b)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| VectorOp::Delta(a, b)),
        (0usize..3, 1usize..4).prop_map(|(v, r)| VectorOp::Truncate(v, r)),
        (0usize..3).prop_map(VectorOp::RoundTrip),
    ]
}

/// A cell value: mostly small, sometimes anything, sometimes an extreme.
fn arb_cell() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..4,
        Just(0i64),
        any::<i64>(),
        Just(i64::MAX),
        Just(i64::MIN),
    ]
}

#[derive(Debug, Clone)]
enum SketchOp {
    Update(usize, u64, i64),
    Batch(usize, Vec<(u64, i64)>),
    Merge(usize, usize),
    Subtract(usize, usize),
    RoundTrip(usize),
    /// Replace a slot with a sketch decoded from a block of arbitrary
    /// cells (levels flagged by `rows`).
    Decode(usize, u64, Vec<i64>),
}

fn arb_sketch_op() -> impl Strategy<Value = SketchOp> {
    prop_oneof![
        (0usize..3, 0u64..300, arb_cell()).prop_map(|(v, e, d)| SketchOp::Update(v, e, d)),
        (0usize..3, arb_updates(100)).prop_map(|(v, u)| SketchOp::Batch(v, u)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| SketchOp::Merge(a, b)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| SketchOp::Subtract(a, b)),
        (0usize..3).prop_map(SketchOp::RoundTrip),
        (0usize..3, any::<u64>(), vec(arb_cell(), 0..2048))
            .prop_map(|(v, rows, cells)| SketchOp::Decode(v, rows, cells)),
    ]
}

fn zigzag_varint(out: &mut Vec<u8>, v: i64) {
    let mut u = ((v << 1) ^ (v >> 63)) as u64;
    while u >= 0x80 {
        out.push(u as u8 | 0x80);
        u >>= 7;
    }
    out.push(u as u8);
}

/// A canonical counter block holding `cells` (recycled as needed) in the
/// nonzero rows among `rows`, and the total it must declare.
fn hostile_block(config: &SketchConfig, rows: u64, cells: &[i64]) -> (Vec<u8>, i64) {
    let width = 2 * config.second_level as usize;
    let mut source = cells.iter().copied().chain(std::iter::repeat(1));
    let mut mask = 0u64;
    let mut body = Vec::new();
    let mut total = 0i64;
    for level in 0..config.levels {
        if rows >> level & 1 == 0 {
            continue;
        }
        let row: Vec<i64> = (&mut source).take(width).collect();
        if row.iter().all(|&c| c == 0) {
            continue;
        }
        mask |= 1 << level;
        total = total.wrapping_add(row[0]).wrapping_add(row[1]);
        for &c in &row {
            zigzag_varint(&mut body, c);
        }
    }
    let mut block = mask.to_le_bytes().to_vec();
    block.extend_from_slice(&body);
    (block, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vector_writes_keep_every_summary_exact(
        config in arb_config(),
        seed in any::<u64>(),
        ops in vec(arb_vector_op(), 1..24),
    ) {
        let family = SketchFamily::new(config, 3, seed);
        let mut pool: Vec<SketchVector> = (0..3).map(|_| family.new_vector()).collect();
        for op in &ops {
            let step = format!("{op:?}");
            match op {
                VectorOp::Update(v, e, d) => pool[*v].update(*e, *d),
                VectorOp::Batch(v, u) => {
                    pool[*v].update_batch(&updates(u));
                }
                VectorOp::Sharded(v, n, u) => {
                    let batch = PreparedBatch::from_updates(&updates(u));
                    for mut slice in pool[*v].par_slices(*n) {
                        slice.apply_prepared(&batch);
                    }
                }
                VectorOp::Merge(a, b) => {
                    let other = pool[*b].clone();
                    pool[*a].merge_from(&other).unwrap();
                }
                VectorOp::Subtract(a, b) => {
                    let other = pool[*b].clone();
                    pool[*a].subtract_from(&other).unwrap();
                }
                VectorOp::Delta(a, b) => pool[*a] = pool[*a].delta_since(&pool[*b]).unwrap(),
                VectorOp::Truncate(v, r) => check_vector(&pool[*v].truncated(*r), &step)?,
                VectorOp::RoundTrip(v) => {
                    for sk in pool[*v].sketches() {
                        let back = round_trip(sk);
                        prop_assert_eq!(back.counters(), sk.counters());
                        check_sketch(&back, &step)?;
                    }
                }
            }
            for v in &pool {
                check_vector(v, &step)?;
            }
        }
    }

    /// Long runs of scalar updates on few elements, at widths with two
    /// and three sign words per level, so pairs in every word fill,
    /// split and empty again.
    #[test]
    fn scalar_updates_keep_every_summary_exact(
        second_level in prop_oneof![Just(33u32), Just(64), Just(65)],
        seed in any::<u64>(),
        steps in vec((0u64..24, -2i64..3), 1..300),
    ) {
        let config = SketchConfig {
            levels: 8,
            second_level,
            first_family: HashFamily::KWise(4),
        };
        let mut sketch = TwoLevelSketch::new(config, seed);
        for (e, d) in &steps {
            sketch.update(*e, *d);
            check_sketch(&sketch, &format!("update({e}, {d})"))?;
        }
    }

    #[test]
    fn hostile_cells_keep_every_summary_exact(
        config in arb_config(),
        seed in any::<u64>(),
        ops in vec(arb_sketch_op(), 1..24),
    ) {
        let mut pool: Vec<TwoLevelSketch> =
            (0..3).map(|_| TwoLevelSketch::new(config, seed)).collect();
        for op in &ops {
            let step = format!("{op:?}");
            match op {
                // The hash-bank kernels add with overflow checks in test
                // builds, so updates fill a fresh sketch that is then merged
                // (wrapping) into the slot.
                SketchOp::Update(v, e, d) => {
                    let mut fresh = TwoLevelSketch::new(config, seed);
                    fresh.update(*e, *d);
                    check_sketch(&fresh, &step)?;
                    pool[*v].merge_from(&fresh).unwrap();
                }
                SketchOp::Batch(v, u) => {
                    let mut fresh = TwoLevelSketch::new(config, seed);
                    fresh.update_batch(&updates(u));
                    check_sketch(&fresh, &step)?;
                    pool[*v].merge_from(&fresh).unwrap();
                }
                SketchOp::Merge(a, b) => {
                    let other = pool[*b].clone();
                    pool[*a].merge_from(&other).unwrap();
                }
                SketchOp::Subtract(a, b) => {
                    let other = pool[*b].clone();
                    pool[*a].subtract_from(&other).unwrap();
                }
                SketchOp::RoundTrip(v) => pool[*v] = round_trip(&pool[*v]),
                SketchOp::Decode(v, rows, cells) => {
                    let (block, total) = hostile_block(&config, *rows, cells);
                    pool[*v] = TwoLevelSketch::from_counter_block(config, seed, &block, total)
                        .unwrap();
                }
            }
            for sk in &pool {
                check_sketch(sk, &step)?;
            }
        }
    }
}
