//! Property-based tests for the baseline synopses.

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_baselines::{BottomKSketch, FmEstimator, MinwiseSignature};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fm_is_duplicate_insensitive(
        seed in any::<u64>(),
        elems in vec(0u64..500, 1..200),
    ) {
        let mut once = FmEstimator::new(8, seed);
        let mut twice = FmEstimator::new(8, seed);
        for &e in &elems {
            once.insert(e);
            twice.insert(e);
            twice.insert(e);
        }
        prop_assert_eq!(once.bit_sketches(), twice.bit_sketches());
    }

    #[test]
    fn fm_merge_is_commutative_and_idempotent(
        seed in any::<u64>(),
        xs in vec(0u64..500, 0..100),
        ys in vec(0u64..500, 0..100),
    ) {
        let build = |elems: &[u64]| {
            let mut fm = FmEstimator::new(8, seed);
            for &e in elems {
                fm.insert(e);
            }
            fm
        };
        let mut ab = build(&xs);
        ab.merge_from(&build(&ys));
        let mut ba = build(&ys);
        ba.merge_from(&build(&xs));
        prop_assert_eq!(ab.bit_sketches(), ba.bit_sketches());
        // Idempotent: merging again changes nothing.
        let snapshot = ab.bit_sketches().to_vec();
        ab.merge_from(&build(&ys));
        prop_assert_eq!(ab.bit_sketches(), snapshot.as_slice());
    }

    #[test]
    fn minwise_jaccard_is_symmetric_and_bounded(
        seed in any::<u64>(),
        xs in vec(0u64..300, 1..100),
        ys in vec(0u64..300, 1..100),
    ) {
        let mut a = MinwiseSignature::new(32, seed);
        let mut b = MinwiseSignature::new(32, seed);
        for &e in &xs {
            a.insert(e);
        }
        for &e in &ys {
            b.insert(e);
        }
        let jab = a.jaccard(&b);
        let jba = b.jaccard(&a);
        prop_assert_eq!(jab, jba);
        prop_assert!((0.0..=1.0).contains(&jab));
    }

    #[test]
    fn bottom_k_holds_the_k_smallest(
        seed in any::<u64>(),
        elems in vec(any::<u64>(), 1..300),
        k in 1usize..64,
    ) {
        use setstream_hash::{Hash64, MixHash};
        let mut s = BottomKSketch::new(k, seed);
        for &e in &elems {
            s.insert(e);
        }
        let h = MixHash::from_seed(seed);
        let mut hashes: Vec<u64> = elems.iter().map(|&e| h.hash(e)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        let expect: Vec<u64> = hashes.into_iter().take(k).collect();
        let got: Vec<u64> = s.sample().map(|(v, _)| v).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn bottom_k_merge_equals_union_build(
        seed in any::<u64>(),
        xs in vec(0u64..400, 0..120),
        ys in vec(0u64..400, 0..120),
    ) {
        let build = |elems: &[u64]| {
            let mut s = BottomKSketch::new(16, seed);
            for &e in elems {
                s.insert(e);
            }
            s
        };
        let merged = build(&xs).merged(&build(&ys));
        let mut all = xs.clone();
        all.extend(&ys);
        let direct = build(&all);
        let a: Vec<u64> = merged.sample().map(|(v, _)| v).collect();
        let b: Vec<u64> = direct.sample().map(|(v, _)| v).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn bottom_k_legal_delete_of_unsampled_is_noop(
        seed in any::<u64>(),
        elems in vec(0u64..100, 50..120),
    ) {
        // Insert everything twice: deleting one copy never depletes.
        let mut s = BottomKSketch::new(8, seed);
        for &e in &elems {
            s.insert(e);
            s.insert(e);
        }
        for &e in &elems {
            s.delete(e);
        }
        prop_assert_eq!(s.depleted(), 0);
    }
}
