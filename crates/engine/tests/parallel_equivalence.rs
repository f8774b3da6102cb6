//! Property tests for sharded-parallel ingestion: because the sketch
//! transform is linear, a synopsis built from merged per-shard partials
//! must be **bit-for-bit identical** to single-threaded ingestion — for
//! any workload, any shard boundaries, and any worker count.

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_core::{SketchConfig, SketchFamily, SketchVector, TwoLevelSketch};
use setstream_engine::ShardedIngestor;
use setstream_hash::HashFamily;
use setstream_stream::{StreamId, Update};

fn small_family(seed: u64) -> SketchFamily {
    SketchFamily::builder()
        .copies(3)
        .levels(16)
        .second_level(8)
        .seed(seed)
        .build()
}

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

/// `(occupied, multi, rows, sign words of every level)`.
fn summary(sk: &TwoLevelSketch) -> (u64, u64, u64, Vec<u64>) {
    let signs = (0..sk.levels()).flat_map(|l| sk.sign_words(l).to_vec()).collect();
    (sk.occupied_levels(), sk.multi_levels(), sk.row_mask(), signs)
}

fn assert_identical(a: &SketchVector, b: &SketchVector) {
    for (x, y) in a.sketches().iter().zip(b.sketches()) {
        assert_eq!(x.counters(), y.counters());
        assert_eq!(x.total_count(), y.total_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_shards_match_sequential_for_any_split(
        seed in any::<u64>(),
        pairs in vec((any::<u64>(), -3i64..4), 0..400),
        cuts in vec(0usize..400, 0..6),
    ) {
        // Partition the stream at arbitrary boundaries (possibly empty
        // shards, possibly one giant shard), build a partial synopsis
        // per shard exactly as the ingestor's workers do, and merge.
        let fam = small_family(seed);
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
        assert_identical(&seq, &merged);
    }

    #[test]
    fn sharded_ingestor_matches_single_thread(
        seed in any::<u64>(),
        base in vec((any::<u64>(), -3i64..4), 0..64),
        threads in 1usize..5,
    ) {
        // Tile the workload past the ingestor's parallel threshold so
        // worker threads genuinely run, then compare against threads=1.
        let mut pairs = Vec::new();
        while pairs.len() < 5000 {
            if base.is_empty() {
                break;
            }
            pairs.extend(base.iter().copied());
        }
        let updates = updates_from(&pairs);
        let fam = small_family(seed);
        let single = ShardedIngestor::new(fam, 1).ingest_vector(&updates);
        let sharded = ShardedIngestor::new(fam, threads).ingest_vector(&updates);
        assert_identical(&single, &sharded);
    }

    #[test]
    fn sharded_ingestor_matches_scalar_for_every_shape(
        levels in prop_oneof![Just(4u32), Just(16), Just(33), Just(64)],
        second_level in prop_oneof![Just(1u32), Just(8), Just(32), Just(33)],
        first_family in prop_oneof![
            Just(HashFamily::Pairwise),
            Just(HashFamily::KWise(4)),
            Just(HashFamily::KWise(8)),
            Just(HashFamily::Tabulation),
            Just(HashFamily::Mix),
        ],
        seed in any::<u64>(),
        base in vec((any::<u64>(), prop_oneof![-3i64..4, any::<i64>()]), 1..64),
        threads in 2usize..5,
    ) {
        // The staged pipeline over every sketch shape and full-range
        // deltas against per-update `process`: counters, totals and the
        // occupancy summary of every copy.
        let config = SketchConfig { levels, second_level, first_family };
        let fam = SketchFamily::new(config, 3, seed);
        let mut pairs = Vec::new();
        while pairs.len() < 4500 {
            pairs.extend(base.iter().copied());
        }
        let updates = updates_from(&pairs);
        let mut scalar = fam.new_vector();
        for u in &updates {
            scalar.process(u);
        }
        let sharded = ShardedIngestor::new(fam, threads).ingest_vector(&updates);
        assert_identical(&scalar, &sharded);
        for (a, b) in scalar.sketches().iter().zip(sharded.sketches()) {
            prop_assert_eq!(summary(a), summary(b));
        }
    }

    #[test]
    fn slice_owned_ingest_into_matches_sequential(
        seed in any::<u64>(),
        base in vec((any::<u64>(), -3i64..4), 1..64),
        prefix in vec((any::<u64>(), -3i64..4), 0..40),
        threads in 2usize..6,
    ) {
        // The staged pipeline writes through disjoint copy-owned slices
        // into a live synopsis (no partials, no merge). Starting from an
        // arbitrary pre-populated state, the result must be bit-identical
        // to sequential `update_batch` on the same synopsis — for any
        // worker count, including more workers than sketch copies.
        let mut pairs = Vec::new();
        while pairs.len() < 5000 {
            pairs.extend(base.iter().copied());
        }
        let updates = updates_from(&pairs);
        let warm = updates_from(&prefix);
        let fam = small_family(seed);

        let mut seq = fam.new_vector();
        seq.update_batch(&warm);
        let want_stats = seq.update_batch(&updates);

        let mut live = fam.new_vector();
        live.update_batch(&warm);
        let got_stats =
            ShardedIngestor::new(fam, threads).ingest_into(&mut live, &updates);

        prop_assert_eq!(got_stats, want_stats);
        assert_identical(&seq, &live);
    }
}
