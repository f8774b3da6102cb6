//! Property-based tests for the 2-level hash sketch: linearity, deletion
//! imperviousness, serde round-trips, and estimator sanity under random
//! workloads.

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_core::{
    estimate, EstimatorOptions, SketchConfig, SketchFamily, TwoLevelSketch,
};
use setstream_expr::SetExpr;
use setstream_stream::StreamId;

fn small_config() -> SketchConfig {
    SketchConfig {
        levels: 16,
        second_level: 8,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sketch_is_order_invariant(
        seed in any::<u64>(),
        mut updates in vec((0u64..500, 1i64..4), 1..200),
    ) {
        let mut fwd = TwoLevelSketch::new(small_config(), seed);
        for &(e, d) in &updates {
            fwd.update(e, d);
        }
        updates.reverse();
        let mut rev = TwoLevelSketch::new(small_config(), seed);
        for &(e, d) in &updates {
            rev.update(e, d);
        }
        prop_assert_eq!(fwd.counters(), rev.counters());
    }

    #[test]
    fn deletions_cancel_exactly(
        seed in any::<u64>(),
        live in vec(0u64..1000, 0..100),
        churn in vec((1000u64..2000, 1i64..5), 0..100),
    ) {
        let mut clean = TwoLevelSketch::new(small_config(), seed);
        for &e in &live {
            clean.insert(e);
        }
        let mut churned = TwoLevelSketch::new(small_config(), seed);
        for &e in &live {
            churned.insert(e);
        }
        for &(e, v) in &churn {
            churned.update(e, v);
        }
        for &(e, v) in &churn {
            churned.update(e, -v);
        }
        prop_assert_eq!(clean.counters(), churned.counters());
        prop_assert_eq!(clean.total_count(), churned.total_count());
    }

    #[test]
    fn merge_is_commutative_and_matches_concat(
        seed in any::<u64>(),
        xs in vec(0u64..800, 0..80),
        ys in vec(0u64..800, 0..80),
    ) {
        let mut a = TwoLevelSketch::new(small_config(), seed);
        let mut b = TwoLevelSketch::new(small_config(), seed);
        let mut concat = TwoLevelSketch::new(small_config(), seed);
        for &e in &xs {
            a.insert(e);
            concat.insert(e);
        }
        for &e in &ys {
            b.insert(e);
            concat.insert(e);
        }
        let ab = a.merged(&b).unwrap();
        let ba = b.merged(&a).unwrap();
        prop_assert_eq!(ab.counters(), ba.counters());
        prop_assert_eq!(ab.counters(), concat.counters());
    }

    #[test]
    fn clone_preserves_sketch_behavior(
        seed in any::<u64>(),
        xs in vec(0u64..500, 0..60),
    ) {
        // Full serde round-trips are exercised in setstream-distributed,
        // which owns the binary wire codec; here we check that clones are
        // behaviorally identical (same coins, same counters).
        let mut s = TwoLevelSketch::new(small_config(), seed);
        for &e in &xs {
            s.insert(e);
        }
        let cloned = s.clone();
        prop_assert_eq!(s.counters(), cloned.counters());
        prop_assert_eq!(s.seed(), cloned.seed());
        // Behavioral equality: future updates agree.
        let mut s2 = cloned;
        let mut s1 = s;
        s1.insert(123);
        s2.insert(123);
        prop_assert_eq!(s1.counters(), s2.counters());
    }

    #[test]
    fn union_estimate_is_deletion_invariant(
        n_live in 50usize..400,
        n_churn in 0usize..200,
    ) {
        let fam = SketchFamily::builder()
            .copies(32)
            .levels(32)
            .second_level(4)
            .seed(1234)
            .build();
        let mut clean = fam.new_vector();
        let mut churned = fam.new_vector();
        for e in 0..n_live as u64 {
            clean.insert(e);
            churned.insert(e);
        }
        for e in 0..n_churn as u64 {
            churned.insert(1_000_000 + e);
        }
        for e in 0..n_churn as u64 {
            churned.delete(1_000_000 + e);
        }
        let opts = EstimatorOptions::default();
        let a = estimate::union(&[&clean], &opts).unwrap().value;
        let b = estimate::union(&[&churned], &opts).unwrap().value;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn witness_counts_are_consistent(
        split in 0u64..2000,
    ) {
        // A = 0..2000, B = split..(split+2000): sweep overlap.
        let fam = SketchFamily::builder()
            .copies(48)
            .second_level(8)
            .seed(99)
            .build();
        let mut a = fam.new_vector();
        let mut b = fam.new_vector();
        for e in 0..2000u64 {
            a.insert(e);
            b.insert(e + split);
        }
        let opts = EstimatorOptions::default();
        let d = estimate::difference(&a, &b, &opts).unwrap();
        prop_assert!(d.witness_hits <= d.valid_observations);
        prop_assert!(d.value >= 0.0);
        let i = estimate::intersection(&a, &b, &opts).unwrap();
        // Inclusion-exclusion-ish sanity at the witness level: a bucket
        // cannot witness both A−B and A∩B, so hit totals never exceed the
        // valid count.
        prop_assert!(i.witness_hits + d.witness_hits <= i.valid_observations + d.valid_observations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inclusion_exclusion_consistency_of_estimators(split in 200u64..1800) {
        // Over the same synopses: |A∩B| + |AΔB| witness counts partition
        // the union singletons exactly (every valid bucket is one or the
        // other), so the two estimates must sum to û.
        let fam = SketchFamily::builder()
            .copies(64)
            .second_level(16)
            .seed(777)
            .build();
        let mut a = fam.new_vector();
        let mut b = fam.new_vector();
        for e in 0..2000u64 {
            a.insert(e);
            b.insert(e + split);
        }
        let opts = EstimatorOptions::default();
        let u_hat = estimate::union(&[&a, &b], &opts).unwrap().value;
        let inter = estimate::intersection_with_union(&a, &b, u_hat, &opts).unwrap();
        let sym_expr = SetExpr::stream(0)
            .diff(SetExpr::stream(1))
            .union(SetExpr::stream(1).diff(SetExpr::stream(0)));
        let sym = estimate::expression(&sym_expr, &[(StreamId(0), &a), (StreamId(1), &b)], &opts);
        if let Ok(sym) = sym {
            // Same synopses, same buckets: hits partition valid.
            prop_assert_eq!(inter.valid_observations, sym.valid_observations);
            prop_assert_eq!(
                inter.witness_hits + sym.witness_hits,
                inter.valid_observations
            );
        }
    }

}
