//! The set-intersection estimator (`SetIntersectionEstimator`, §3.5).
//!
//! Identical structure to the difference estimator; the witness condition
//! becomes "the probed bucket is a singleton in *both* `A` and `B`" —
//! given a union-singleton bucket, both singletons necessarily hold the
//! same element, so it witnesses `A ∩ B`.

use super::{union_est, witness, Estimate, EstimatorOptions};
use crate::error::EstimateError;
use crate::family::SketchVector;
use crate::sketch::singleton_levels;

/// Estimate `|A ∩ B|`, deriving the union estimate internally.
pub fn intersection(
    a: &SketchVector,
    b: &SketchVector,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    opts.validate();
    let union_opts = EstimatorOptions {
        epsilon: opts.epsilon / 3.0,
        ..*opts
    };
    let u_hat = union_est::union(&[a, b], &union_opts)?.value;
    intersection_with_union(a, b, u_hat, opts)
}

/// Estimate `|A ∩ B|` scaling by a caller-supplied `û`.
pub fn intersection_with_union(
    a: &SketchVector,
    b: &SketchVector,
    u_hat: f64,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    opts.validate();
    let vectors = [a, b];
    let copies = witness::validate_vectors(&vectors)?;
    if u_hat == 0.0 {
        return Ok(Estimate {
            value: 0.0,
            method: super::EstimateMethod::TrivialEmpty,
            union_estimate: 0.0,
            valid_observations: 0,
            witness_hits: 0,
            copies,
        });
    }
    let counts = witness::collect(&vectors, u_hat, opts, |sketches, _| {
        // Witness of A ∩ B (§3.5): singleton in A and singleton in B.
        // analyze: allow(indexing) — binary estimator: `collect` passes one sketch per input vector
        singleton_levels(sketches[0]) & singleton_levels(sketches[1])
    });
    witness::finish(counts, u_hat, copies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::SketchFamily;

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
