//! Tests of the set-difference estimator (`SetDifferenceEstimator` /
//! `AtomicDiffEstimator`, Figure 6), which [`super::difference`] runs as
//! the §4 estimator on `A − B`.
//!
//! Witness condition (§3.4): the probed bucket is a non-empty singleton for
//! `A` and empty for `B`, given that it is a singleton for `A ∪ B`; the
//! conditional probability of this event is exactly `|A − B| / |A ∪ B|`.

#[cfg(test)]
mod tests {
    use crate::estimate::{difference, difference_with_union, EstimatorOptions, WitnessMode};
    use crate::family::{SketchFamily, SketchVector};

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(16).seed(5).build()
    }

    fn filled(f: &SketchFamily, range: std::ops::Range<u64>) -> SketchVector {
        let mut v = f.new_vector();
        for e in range {
            v.insert(e);
        }
        v
    }

    #[test]
    fn recovers_difference_within_tolerance() {
        let f = family(256);
        // |A| = 6000, |B| = 6000, |A−B| = 3000, |A∪B| = 9000.
        let a = filled(&f, 0..6000);
        let b = filled(&f, 3000..9000);
        let e = difference(&a, &b, &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 3000.0).abs() / 3000.0;
        assert!(rel < 0.25, "estimate {} rel {rel}", e.value);
        assert!(e.valid_observations > 0);
        assert!(e.witness_hits <= e.valid_observations);
    }

    #[test]
    fn empty_difference_estimates_near_zero() {
        let f = family(128);
        let a = filled(&f, 0..2000);
        let b = filled(&f, 0..4000); // A ⊂ B
        let e = difference(&a, &b, &EstimatorOptions::default()).unwrap();
        // Witness condition can only fire on hash-signature failures.
        assert_eq!(e.witness_hits, 0);
        assert_eq!(e.value, 0.0);
    }

    #[test]
    fn disjoint_sets_difference_is_a() {
        let f = family(256);
        let a = filled(&f, 0..3000);
        let b = filled(&f, 10_000..13_000);
        let e = difference(&a, &b, &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 3000.0).abs() / 3000.0;
        assert!(rel < 0.25, "estimate {}", e.value);
    }

    #[test]
    fn empty_streams_give_zero_without_error() {
        let f = family(32);
        let a = f.new_vector();
        let b = f.new_vector();
        let e = difference(&a, &b, &EstimatorOptions::default()).unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.valid_observations, 0);
    }

    #[test]
    fn deletions_equalize_streams() {
        // A' = A plus fully-deleted churn must give the identical estimate.
        let f = family(128);
        let mut churned = filled(&f, 0..4000);
        for e in 50_000..52_000u64 {
            churned.update(e, 7);
        }
        for e in 50_000..52_000u64 {
            churned.update(e, -7);
        }
        let clean = filled(&f, 0..4000);
        let b = filled(&f, 2000..6000);
        let opts = EstimatorOptions::default();
        let e1 = difference(&churned, &b, &opts).unwrap();
        let e2 = difference(&clean, &b, &opts).unwrap();
        assert_eq!(e1.value, e2.value);
    }

    #[test]
    fn single_bucket_mode_also_works_with_enough_copies() {
        let f = family(2048);
        let a = filled(&f, 0..4000);
        let b = filled(&f, 2000..6000);
        let opts = EstimatorOptions {
            witness_mode: WitnessMode::SingleBucket,
            ..EstimatorOptions::paper()
        };
        let e = difference(&a, &b, &opts).unwrap();
        let rel = (e.value - 2000.0).abs() / 2000.0;
        assert!(rel < 0.5, "estimate {} rel {rel}", e.value);
    }

    #[test]
    fn incompatible_vectors_rejected() {
        let a = family(16).new_vector();
        let other = SketchFamily::builder().copies(16).seed(77).build();
        let b = other.new_vector();
        assert!(difference(&a, &b, &EstimatorOptions::default()).is_err());
    }

    #[test]
    fn with_union_uses_supplied_value() {
        let f = family(128);
        let a = filled(&f, 0..2000);
        let b = filled(&f, 1000..3000);
        let opts = EstimatorOptions::default();
        // Doubling û doubles the estimate (p̂ unchanged under AllLevels:
        // every level is scanned regardless of û).
        let e1 = difference_with_union(&a, &b, 3000.0, &opts).unwrap();
        let e2 = difference_with_union(&a, &b, 6000.0, &opts).unwrap();
        assert!((e2.value - 2.0 * e1.value).abs() < 1e-9);
    }
}
