//! Direct ratio estimators.
//!
//! The witness machinery natively estimates *ratios*: conditional on a
//! union-singleton bucket, the isolated element is uniform over `∪Aᵢ`, so
//! the witness fraction estimates `|E| / |∪Aᵢ|` with **no union-estimate
//! error at all**. When the quantity of interest is itself a ratio —
//! Jaccard similarity `|A∩B|/|A∪B|`, or containment `|A∩B|/|A|` — skipping
//! the `û` multiplication is strictly more accurate than dividing two
//! cardinality estimates.
//!
//! analyze: allow(indexing) — estimator kernel: per-copy/per-level indices are bounded by `witness::validate_vectors`' dimension check

use super::{witness, EstimatorOptions};
use crate::error::EstimateError;
use crate::family::SketchVector;
use crate::sketch::singleton_levels;
use serde::{Deserialize, Serialize};

/// A ratio estimate with its observation counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioEstimate {
    /// The estimated ratio in `[0, 1]` (may exceed 1 only for containment
    /// under sampling noise; clamped).
    pub ratio: f64,
    /// Valid union-singleton observations.
    pub valid_observations: usize,
    /// Numerator witness hits.
    pub numerator_hits: usize,
    /// Denominator witness hits (equals `valid_observations` for
    /// union-relative ratios like Jaccard).
    pub denominator_hits: usize,
}

/// Estimate the Jaccard coefficient `|A ∩ B| / |A ∪ B|`.
///
/// Each union-singleton bucket isolates a uniform element of `A ∪ B`; the
/// fraction of those lying in both streams is the Jaccard estimate. This
/// is the update-stream analogue of min-wise signature agreement — and
/// unlike MIPs it survives deletions.
pub fn jaccard(
    a: &SketchVector,
    b: &SketchVector,
    opts: &EstimatorOptions,
) -> Result<RatioEstimate, EstimateError> {
    opts.validate();
    let vectors = [a, b];
    witness::validate_vectors(&vectors)?;
    // Level selection needs some union scale for SingleBucket mode; use
    // the pooled union estimate (cheap) — AllLevels ignores it.
    let u_hat = super::union_est::union(&vectors, opts)?.value;
    let counts = witness::collect(&vectors, u_hat, opts, |sketches, _| {
        singleton_levels(sketches[0]) & singleton_levels(sketches[1])
    });
    if counts.valid == 0 {
        return Err(EstimateError::NoValidObservations);
    }
    Ok(RatioEstimate {
        ratio: counts.hits as f64 / counts.valid as f64,
        valid_observations: counts.valid,
        numerator_hits: counts.hits,
        denominator_hits: counts.valid,
    })
}

/// Estimate the containment `|A ∩ B| / |A|` (how much of `A` lies in
/// `B`): the ratio of "in both" witnesses to "in `A`" witnesses among the
/// union singletons.
pub fn containment(
    a: &SketchVector,
    b: &SketchVector,
    opts: &EstimatorOptions,
) -> Result<RatioEstimate, EstimateError> {
    opts.validate();
    let vectors = [a, b];
    witness::validate_vectors(&vectors)?;
    let u_hat = super::union_est::union(&vectors, opts)?.value;
    let mut in_both = 0usize;
    let mut in_a = 0usize;
    let counts = witness::collect(&vectors, u_hat, opts, |sketches, valid| {
        let a_has = singleton_levels(sketches[0]) & valid;
        in_a += a_has.count_ones() as usize;
        in_both += (a_has & singleton_levels(sketches[1])).count_ones() as usize;
        a_has // hit counter tracks |A|-membership; numerator kept aside
    });
    if in_a == 0 {
        return Err(EstimateError::NoValidObservations);
    }
    Ok(RatioEstimate {
        ratio: (in_both as f64 / in_a as f64).min(1.0),
        valid_observations: counts.valid,
        numerator_hits: in_both,
        denominator_hits: in_a,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::SketchFamily;

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(16).seed(31).build()
    }

    fn filled(f: &SketchFamily, range: std::ops::Range<u64>) -> SketchVector {
        let mut v = f.new_vector();
        for e in range {
            v.insert(e);
        }
        v
    }

    #[test]
    fn jaccard_tracks_truth() {
        let f = family(256);
        // |A∩B| = 2000, |A∪B| = 6000 → J = 1/3.
        let a = filled(&f, 0..4000);
        let b = filled(&f, 2000..6000);
        let j = jaccard(&a, &b, &EstimatorOptions::default()).unwrap();
        assert!((j.ratio - 1.0 / 3.0).abs() < 0.06, "jaccard {}", j.ratio);
        assert!(j.numerator_hits <= j.valid_observations);
        assert_eq!(j.denominator_hits, j.valid_observations);
    }

    #[test]
    fn jaccard_extremes() {
        let f = family(128);
        let a = filled(&f, 0..2000);
        let b = filled(&f, 0..2000);
        let j = jaccard(&a, &b, &EstimatorOptions::default()).unwrap();
        assert_eq!(j.ratio, 1.0);

        let c = filled(&f, 50_000..52_000);
        let j = jaccard(&a, &c, &EstimatorOptions::default()).unwrap();
        assert_eq!(j.ratio, 0.0);
    }

    #[test]
    fn containment_tracks_truth() {
        let f = family(256);
        // A = 0..4000, B = 3000..10000: |A∩B| = 1000 → containment 0.25.
        let a = filled(&f, 0..4000);
        let b = filled(&f, 3000..10_000);
        let c = containment(&a, &b, &EstimatorOptions::default()).unwrap();
        assert!((c.ratio - 0.25).abs() < 0.07, "containment {}", c.ratio);
        // Subset: A ⊆ B gives 1.
        let sup = filled(&f, 0..8000);
        let c = containment(&a, &sup, &EstimatorOptions::default()).unwrap();
        assert_eq!(c.ratio, 1.0);
    }

    #[test]
    fn containment_is_asymmetric() {
        let f = family(256);
        let small = filled(&f, 0..1000);
        let big = filled(&f, 0..8000);
        let c1 = containment(&small, &big, &EstimatorOptions::default()).unwrap();
        let c2 = containment(&big, &small, &EstimatorOptions::default()).unwrap();
        assert_eq!(c1.ratio, 1.0);
        assert!((c2.ratio - 0.125).abs() < 0.06, "reverse containment {}", c2.ratio);
    }

    #[test]
    fn empty_inputs_error() {
        let f = family(32);
        let a = f.new_vector();
        let b = f.new_vector();
        assert!(matches!(
            jaccard(&a, &b, &EstimatorOptions::default()),
            Err(EstimateError::NoValidObservations)
        ));
        assert!(matches!(
            containment(&a, &b, &EstimatorOptions::default()),
            Err(EstimateError::NoValidObservations)
        ));
    }

    #[test]
    fn jaccard_is_deletion_invariant() {
        let f = family(128);
        let a = filled(&f, 0..3000);
        let mut b = filled(&f, 1000..4000);
        let before = jaccard(&a, &b, &EstimatorOptions::default()).unwrap();
        // Insert + fully delete churn in B.
        for e in 90_000..95_000u64 {
            b.insert(e);
        }
        for e in 90_000..95_000u64 {
            b.delete(e);
        }
        let after = jaccard(&a, &b, &EstimatorOptions::default()).unwrap();
        assert_eq!(before, after);
    }
}
