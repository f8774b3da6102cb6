//! Tests of the set-intersection estimator (`SetIntersectionEstimator`,
//! §3.5), which [`super::intersection`] runs as the §4 estimator on
//! `A ∩ B`.
//!
//! The witness condition is "the probed bucket is a singleton in *both*
//! `A` and `B`" — given a union-singleton bucket, both singletons
//! necessarily hold the same element, so it witnesses `A ∩ B`.

#[cfg(test)]
mod tests {
    use crate::estimate::{intersection, EstimatorOptions};
    use crate::family::{SketchFamily, SketchVector};

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(16).seed(15).build()
    }

    fn filled(f: &SketchFamily, range: std::ops::Range<u64>) -> SketchVector {
        let mut v = f.new_vector();
        for e in range {
            v.insert(e);
        }
        v
    }

    #[test]
    fn recovers_intersection_within_tolerance() {
        let f = family(256);
        // |A∩B| = 3000, |A∪B| = 9000.
        let a = filled(&f, 0..6000);
        let b = filled(&f, 3000..9000);
        let e = intersection(&a, &b, &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 3000.0).abs() / 3000.0;
        assert!(rel < 0.25, "estimate {} rel {rel}", e.value);
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let f = family(128);
        let a = filled(&f, 0..3000);
        let b = filled(&f, 10_000..13_000);
        let e = intersection(&a, &b, &EstimatorOptions::default()).unwrap();
        // A witness needs both buckets singleton on the same element —
        // impossible for disjoint sets except via signature failure.
        assert_eq!(e.witness_hits, 0);
    }

    #[test]
    fn identical_sets_estimate_their_size() {
        let f = family(256);
        let a = filled(&f, 0..4000);
        let b = filled(&f, 0..4000);
        let e = intersection(&a, &b, &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 4000.0).abs() / 4000.0;
        assert!(rel < 0.15, "estimate {}", e.value);
        // Every valid observation is a witness here.
        assert_eq!(e.witness_hits, e.valid_observations);
    }

    #[test]
    fn multiplicities_are_ignored() {
        let f = family(128);
        let mut a = f.new_vector();
        let mut b = f.new_vector();
        for e in 0..2000u64 {
            a.update(e, 5); // five copies each
            b.update(e, 1);
        }
        let opts = EstimatorOptions::default();
        let e = intersection(&a, &b, &opts).unwrap();
        let rel = (e.value - 2000.0).abs() / 2000.0;
        assert!(rel < 0.15, "estimate {}", e.value);
    }

    #[test]
    fn intersection_after_deletions_shrinks() {
        let f = family(256);
        let a = filled(&f, 0..4000);
        let mut b = filled(&f, 0..4000);
        // Delete the top half of B: intersection drops to 2000.
        for e in 2000..4000u64 {
            b.delete(e);
        }
        let e = intersection(&a, &b, &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 2000.0).abs() / 2000.0;
        assert!(rel < 0.3, "estimate {}", e.value);
    }

    #[test]
    fn empty_input_gives_zero() {
        let f = family(32);
        let a = f.new_vector();
        let b = filled(&f, 0..100);
        let e = intersection(&a, &b, &EstimatorOptions::default()).unwrap();
        assert_eq!(e.witness_hits, 0);
    }
}
