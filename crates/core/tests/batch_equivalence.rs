//! Property tests pinning the batched maintenance paths to the scalar
//! semantics: for any workload, any chunking, and any sketch shape,
//! `update_batch` must leave counters **bit-for-bit identical** to
//! applying the same updates one at a time with `update`.
//!
//! This is the contract that makes the batch kernels safe to substitute
//! on the hot path.

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_core::family::WINDOW;
use setstream_core::{SketchConfig, SketchFamily, TwoLevelSketch};
use setstream_hash::{splitmix64, HashFamily};
use setstream_stream::{StreamId, Update};

fn updates_from(pairs: &[(u64, i64)]) -> Vec<Update> {
    pairs
        .iter()
        .map(|&(element, delta)| Update {
            stream: StreamId(0),
            element,
            delta,
        })
        .collect()
}

/// Sketch shapes worth sweeping: tiny rows, the paper's defaults, odd
/// sizes, and every first-level family.
fn arb_config() -> impl Strategy<Value = SketchConfig> {
    (
        prop_oneof![Just(4u32), Just(16), Just(33), Just(64)],
        prop_oneof![Just(1u32), Just(8), Just(32), Just(33)],
        prop_oneof![
            Just(HashFamily::Pairwise),
            Just(HashFamily::KWise(4)),
            Just(HashFamily::KWise(8)),
            Just(HashFamily::Tabulation),
            Just(HashFamily::Mix),
        ],
    )
        .prop_map(|(levels, second_level, first_family)| SketchConfig {
            levels,
            second_level,
            first_family,
        })
}

/// Deltas across the whole `i64` range, so every magnitude bit-plane and
/// both signs run: zero, unit steps, the extremes (`|i64::MIN|` needs the
/// 64th plane), arbitrary words, and small mixed steps.
fn arb_delta() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(1),
        Just(-1),
        Just(i64::MIN),
        Just(i64::MAX),
        any::<i64>(),
        -3i64..4,
    ]
}

/// Elements of every width: a few low bits (one nibble position in use),
/// 17 bits (five), and full 64-bit words (all sixteen).
fn arb_element() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..8, 0u64..1 << 17, any::<u64>()]
}

/// `(occupied, multi, rows, sign words of every level)`.
fn summary(sk: &TwoLevelSketch) -> (u64, u64, u64, Vec<u64>) {
    let signs = (0..sk.levels())
        .flat_map(|l| sk.sign_words(l).to_vec())
        .collect();
    (
        sk.occupied_levels(),
        sk.multi_levels(),
        sk.row_mask(),
        signs,
    )
}

/// Workloads spanning both batch regimes: below the scalar-fallback
/// threshold (32) and above one full 512-update chunk, with deltas
/// mixing inserts, deletes, and zero.
fn arb_workload() -> impl Strategy<Value = Vec<(u64, i64)>> {
    vec((any::<u64>(), -3i64..4), 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn update_batch_matches_scalar_updates(
        config in arb_config(),
        seed in any::<u64>(),
        pairs in arb_workload(),
    ) {
        let mut scalar = TwoLevelSketch::new(config, seed);
        for &(e, d) in &pairs {
            scalar.update(e, d);
        }
        let mut batched = TwoLevelSketch::new(config, seed);
        batched.update_batch(&updates_from(&pairs));
        prop_assert_eq!(scalar.counters(), batched.counters());
        prop_assert_eq!(scalar.total_count(), batched.total_count());
    }

    #[test]
    fn update_batch_is_chunking_invariant(
        config in arb_config(),
        seed in any::<u64>(),
        pairs in arb_workload(),
        cut_a in 0usize..600,
        cut_b in 0usize..600,
    ) {
        // Feeding the stream as one batch or as arbitrary sub-batches
        // must be indistinguishable: the cuts land anywhere, including
        // mid-chunk and on empty slices.
        let updates = updates_from(&pairs);
        let (lo, hi) = (
            cut_a.min(cut_b).min(updates.len()),
            cut_a.max(cut_b).min(updates.len()),
        );
        let mut whole = TwoLevelSketch::new(config, seed);
        whole.update_batch(&updates);
        let mut split = TwoLevelSketch::new(config, seed);
        split.update_batch(&updates[..lo]);
        split.update_batch(&updates[lo..hi]);
        split.update_batch(&updates[hi..]);
        prop_assert_eq!(whole.counters(), split.counters());
        prop_assert_eq!(whole.total_count(), split.total_count());
    }

    #[test]
    fn insert_only_batches_match_scalar(
        config in arb_config(),
        seed in any::<u64>(),
        elems in vec(any::<u64>(), 0..600),
    ) {
        // All-insert batches need a single unsigned delta plane.
        let pairs: Vec<(u64, i64)> = elems.iter().map(|&e| (e, 1)).collect();
        let mut scalar = TwoLevelSketch::new(config, seed);
        for &e in &elems {
            scalar.insert(e);
        }
        let mut batched = TwoLevelSketch::new(config, seed);
        batched.update_batch(&updates_from(&pairs));
        prop_assert_eq!(scalar.counters(), batched.counters());
        prop_assert_eq!(scalar.total_count(), batched.total_count());
    }

    #[test]
    fn delete_heavy_batches_match_scalar(
        config in arb_config(),
        seed in any::<u64>(),
        elems in vec(any::<u64>(), 0..600),
        insert_one_in in 2u64..12,
    ) {
        // Mostly-deletion streams give every chunk a signed delta plane
        // and drive counters negative — the regime the paper's
        // deletion-imperviousness argument lives in.
        let pairs: Vec<(u64, i64)> = elems
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, if i as u64 % insert_one_in == 0 { 1 } else { -1 }))
            .collect();
        let mut scalar = TwoLevelSketch::new(config, seed);
        for &(e, d) in &pairs {
            scalar.update(e, d);
        }
        let mut batched = TwoLevelSketch::new(config, seed);
        batched.update_batch(&updates_from(&pairs));
        prop_assert_eq!(scalar.counters(), batched.counters());
        prop_assert_eq!(scalar.total_count(), batched.total_count());
    }

    #[test]
    fn full_range_deltas_and_widths_match_scalar(
        config in arb_config(),
        seed in any::<u64>(),
        // One to four chunks of 512, with ragged tails.
        pairs in vec((arb_element(), arb_delta()), 0..2048),
    ) {
        let mut scalar = TwoLevelSketch::new(config, seed);
        for &(e, d) in &pairs {
            scalar.update(e, d);
        }
        let mut batched = TwoLevelSketch::new(config, seed);
        batched.update_batch(&updates_from(&pairs));
        prop_assert_eq!(scalar.counters(), batched.counters());
        prop_assert_eq!(scalar.total_count(), batched.total_count());
        prop_assert_eq!(summary(&scalar), summary(&batched));
    }

    #[test]
    fn vector_paths_match_scalar_for_every_shape(
        config in arb_config(),
        seed in any::<u64>(),
        copies in 1usize..4,
        pairs in vec((arb_element(), arb_delta()), 1..1200),
        windows in 0usize..3,
        tail in 0usize..1200,
    ) {
        // `SketchVector::update_batch` against per-update `process`, copy
        // by copy, summaries included. The generated pairs are tiled
        // over up to two whole windows plus a ragged tail, so a batch
        // spans several windows and ends mid-chunk.
        let fam = SketchFamily::new(config, copies, seed);
        let updates: Vec<Update> = updates_from(&pairs)
            .into_iter()
            .cycle()
            .take(windows * WINDOW + tail)
            .collect();
        let mut scalar = fam.new_vector();
        for u in &updates {
            scalar.process(u);
        }
        let mut batched = fam.new_vector();
        let stats = batched.update_batch(&updates);
        prop_assert_eq!(stats.updates, updates.len());
        for (a, b) in scalar.sketches().iter().zip(batched.sketches()) {
            prop_assert_eq!(a.counters(), b.counters());
            prop_assert_eq!(a.total_count(), b.total_count());
            prop_assert_eq!(summary(a), summary(b));
        }
    }

    #[test]
    fn merged_shards_match_sequential_for_any_split(
        seed in any::<u64>(),
        pairs in vec((any::<u64>(), -3i64..4), 0..400),
        cuts in vec(0usize..400, 0..6),
    ) {
        // Partition the stream at arbitrary boundaries (possibly empty
        // shards, possibly one giant shard), build a partial synopsis
        // per shard as separate sites do, and merge: linearity makes
        // the sum equal one `update_batch` of the whole stream.
        let fam = SketchFamily::builder()
            .copies(3)
            .levels(16)
            .second_level(8)
            .seed(seed)
            .build();
        let updates = updates_from(&pairs);
        let mut seq = fam.new_vector();
        seq.update_batch(&updates);

        let mut bounds: Vec<usize> =
            cuts.iter().map(|&c| c.min(updates.len())).collect();
        bounds.push(0);
        bounds.push(updates.len());
        bounds.sort_unstable();
        let mut merged = fam.new_vector();
        for w in bounds.windows(2) {
            let mut partial = fam.new_vector();
            partial.update_batch(&updates[w[0]..w[1]]);
            merged.merge_from(&partial).expect("same family");
        }
        for (a, b) in seq.sketches().iter().zip(merged.sketches()) {
            prop_assert_eq!(a.counters(), b.counters());
            prop_assert_eq!(a.total_count(), b.total_count());
        }
    }

    #[test]
    fn vector_update_batch_matches_scalar_updates(
        seed in any::<u64>(),
        pairs in vec((any::<u64>(), -3i64..4), 0..300),
    ) {
        // The copy-major vector path shares element/delta extraction
        // across copies; every copy must still match its scalar twin.
        let fam = SketchFamily::builder()
            .copies(3)
            .levels(16)
            .second_level(8)
            .seed(seed)
            .build();
        let updates = updates_from(&pairs);
        let mut scalar = fam.new_vector();
        for u in &updates {
            scalar.process(u);
        }
        let mut batched = fam.new_vector();
        batched.update_batch(&updates);
        for (a, b) in scalar.sketches().iter().zip(batched.sketches()) {
            prop_assert_eq!(a.counters(), b.counters());
            prop_assert_eq!(a.total_count(), b.total_count());
        }
    }
}

/// Every chunk length on both sides of the kernel's routing thresholds
/// (a level's population against the crossover, level 0 against the
/// short-chunk bound, one more chunk past 512), for bank widths below
/// the 16-function block, at it, ragged past it and at the paper's 32,
/// with full-range deltas and all three element widths: both batch
/// writers must leave the cells, totals and summaries of per-update
/// `process`.
#[test]
fn every_chunk_length_and_bank_width_matches_per_update_process() {
    const LENGTHS: [usize; 18] = [
        1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 511, 512, 513,
    ];
    let deltas = [0, 1, -1, i64::MIN, i64::MAX, -3, 7, 2];
    for s in [1u32, 8, 16, 17, 32, 33] {
        for levels in [4u32, 64] {
            let config = SketchConfig {
                levels,
                second_level: s,
                first_family: HashFamily::KWise(8),
            };
            let family = SketchFamily::new(config, 2, u64::from(s) << 8 | u64::from(levels));
            for n in LENGTHS {
                let mut state = n as u64;
                let pairs: Vec<(u64, i64)> = (0..n)
                    .map(|i| {
                        state = splitmix64(state);
                        let element = [state & 7, state & 0x1_ffff, state][i % 3];
                        let delta = match deltas[i % deltas.len()] {
                            2 => splitmix64(state) as i64,
                            d => d,
                        };
                        (element, delta)
                    })
                    .collect();
                let updates = updates_from(&pairs);
                let mut scalar = family.new_vector();
                for u in &updates {
                    scalar.process(u);
                }
                let mut batched = family.new_vector();
                batched.update_batch(&updates);
                let mut single = TwoLevelSketch::new(config, family.copy_seed(0));
                single.update_batch(&updates);
                let want = &scalar.sketches()[0];
                let what = format!("s={s} levels={levels} n={n}");
                assert_eq!(single.counters(), want.counters(), "{what}");
                assert_eq!(single.total_count(), want.total_count(), "{what}");
                assert_eq!(summary(&single), summary(want), "{what}");
                for (a, b) in scalar.sketches().iter().zip(batched.sketches()) {
                    assert_eq!(a.counters(), b.counters(), "{what}");
                    assert_eq!(a.total_count(), b.total_count(), "{what}");
                    assert_eq!(summary(a), summary(b), "{what}");
                }
            }
        }
    }
}

/// FNV-1a over every copy's cells and total.
fn digest(v: &setstream_core::SketchVector) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for sk in v.sketches() {
        for word in sk.counters().iter().chain([&sk.total_count()]) {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// A paper-shape vector (64 levels, s = 32, 8-wise first level) fed
/// seeded updates of every element width and delta size, over five
/// chunks with a ragged tail, pinned to the digest of its cells. The
/// digest was captured from the grouped counting-sort kernel that the
/// bit-sliced kernel replaced, so any change to what a cell holds shows
/// here even if the per-update and batch paths changed together.
#[test]
fn paper_shape_cells_match_the_pinned_digest() {
    let family = SketchFamily::builder().copies(16).seed(0x5eed).build();
    let mut state = 0x0dd_ba11u64;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let updates: Vec<Update> = (0..2300)
        .map(|i| {
            let r = next();
            let element = match i % 3 {
                0 => r & 7,
                1 => r & 0x1_ffff,
                _ => r,
            };
            let delta = match next() % 8 {
                0 => 0,
                1 => i64::MIN,
                2 => i64::MAX,
                3 => next() as i64,
                4 | 5 => 1,
                _ => -1,
            };
            Update {
                stream: StreamId(0),
                element,
                delta,
            }
        })
        .collect();
    let mut batched = family.new_vector();
    batched.update_batch(&updates);
    let mut scalar = family.new_vector();
    for u in &updates {
        scalar.process(u);
    }
    assert_eq!(digest(&scalar), digest(&batched));
    assert_eq!(digest(&batched), 669_283_509_870_777_791);
}
