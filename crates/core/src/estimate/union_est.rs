//! The set-union cardinality estimator (`SetUnionEstimator`, Figure 5),
//! generalized to any number of streams, plus the pooled refinement.
//!
//! The union estimator needs only first-level bucket *occupancy* — no
//! second-level signatures — which is why the paper notes union could run
//! on a plain extension of the FM structure. We read occupancy straight
//! off the 2-level sketches' summaries: one OR of level masks per copy.
//!
//! analyze: allow(indexing) — estimator kernel: per-copy/per-level indices are bounded by `witness::validate_vectors`' dimension check

use super::{Estimate, EstimatorOptions, UnionMode};
use crate::error::EstimateError;
use crate::family::SketchVector;
use crate::sketch::two_level::levels_of;

/// Estimate `|A₁ ∪ … ∪ A_k|` from the streams' sketch vectors.
///
/// All vectors must come from the same family. With `UnionMode::PaperLevel`
/// this is Figure 5 verbatim (the two-stream pseudocode extends to `k`
/// streams by OR-ing the emptiness probes, which is what the general
/// estimator of §4 needs).
pub fn union(vectors: &[&SketchVector], opts: &EstimatorOptions) -> Result<Estimate, EstimateError> {
    opts.validate();
    let (first, rest) = vectors
        .split_first()
        .ok_or_else(|| EstimateError::Incompatible("no sketch vectors supplied".into()))?;
    for v in rest {
        first.check_compatible(v)?;
    }
    let r = first.copies();
    let levels = first.family().config().levels;

    // Per-level counts of copies whose union bucket is non-empty.
    let mut counts = vec![0usize; levels as usize];
    for i in 0..r {
        let occupied = vectors
            .iter()
            .fold(0u64, |m, v| m | v.sketches()[i].occupied_levels());
        for level in levels_of(occupied) {
            counts[level as usize] += 1;
        }
    }

    let (value, level_used) = match opts.union_mode {
        UnionMode::PaperLevel => paper_level_estimate(&counts, r, opts.epsilon),
        UnionMode::Pooled => (pooled_estimate(&counts, r), 0),
    };

    Ok(Estimate {
        value,
        method: super::EstimateMethod::Union,
        union_estimate: value,
        valid_observations: r,
        witness_hits: counts.get(level_used).copied().unwrap_or(0),
        copies: r,
    })
}

/// Convenience: just the union value.
pub fn union_estimate_value(
    vectors: &[&SketchVector],
    opts: &EstimatorOptions,
) -> Result<f64, EstimateError> {
    union(vectors, opts).map(|e| e.value)
}

/// Figure 5: find the first level where the non-empty count drops to
/// `f = (1+ε)r/8`, then invert `p = 1 − (1 − 1/R)^u`.
pub(super) fn paper_level_estimate(counts: &[usize], r: usize, epsilon: f64) -> (f64, usize) {
    let f = (1.0 + epsilon) * r as f64 / 8.0;
    let mut index = 0usize;
    while index + 1 < counts.len() && counts[index] as f64 > f {
        index += 1;
    }
    (invert_occupancy(counts[index], r, index), index)
}

/// Solve `count/r = 1 − (1 − 1/R)^u` for `u` at level `index`
/// (`R = 2^{index+1}`), Lemma 3.2 justifying the direct substitution.
pub(super) fn invert_occupancy(count: usize, r: usize, index: usize) -> f64 {
    if count == 0 {
        return 0.0;
    }
    // A fully-saturated level carries no signal; clamp p̂ just below 1 so
    // the logarithm stays finite (the paper's loop avoids this case).
    let p_hat = (count as f64 / r as f64).min(1.0 - 0.5 / r as f64);
    let big_r = 2f64.powi(index as i32 + 1);
    (1.0 - p_hat).ln() / (1.0 - 1.0 / big_r).ln()
}

/// Inverse-variance pooling of the per-level inversions.
///
/// For level `j`, `Var(û_j) ≈ p_j / (r (1−p_j) ln²(1−1/R_j))` by the delta
/// method; weighting each level's estimate by `1/Var` combines every
/// usable level instead of discarding all but one. Levels with `count ∈
/// {0, r}` carry no invertible signal and are skipped.
pub(super) fn pooled_estimate(counts: &[usize], r: usize) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (j, &count) in counts.iter().enumerate() {
        if count == 0 || count == r {
            continue;
        }
        let p_hat = count as f64 / r as f64;
        let big_r = 2f64.powi(j as i32 + 1);
        let log_base = (1.0 - 1.0 / big_r).ln();
        let u_j = (1.0 - p_hat).ln() / log_base;
        let variance = p_hat / (r as f64 * (1.0 - p_hat) * log_base * log_base);
        if variance <= 0.0 || !variance.is_finite() {
            continue;
        }
        let w = 1.0 / variance;
        num += w * u_j;
        den += w;
    }
    if den == 0.0 {
        // Either everything is empty (true zero) or every level is
        // saturated (union ≫ representable range; report the best bound).
        if counts.iter().all(|&c| c == 0) {
            0.0
        } else {
            invert_occupancy(counts[counts.len() - 1], r, counts.len() - 1)
        }
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::SketchFamily;

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(4).seed(33).build()
    }

    fn filled(f: &SketchFamily, range: std::ops::Range<u64>) -> SketchVector {
        let mut v = f.new_vector();
        for e in range {
            v.insert(e);
        }
        v
    }

    #[test]
    fn empty_union_is_zero_both_modes() {
        let f = family(16);
        let a = f.new_vector();
        let b = f.new_vector();
        for mode in [UnionMode::PaperLevel, UnionMode::Pooled] {
            let opts = EstimatorOptions {
                union_mode: mode,
                ..Default::default()
            };
            let e = union(&[&a, &b], &opts).unwrap();
            assert_eq!(e.value, 0.0, "{mode:?}");
        }
    }

    #[test]
    fn no_vectors_is_an_error() {
        assert!(matches!(
            union(&[], &EstimatorOptions::default()),
            Err(EstimateError::Incompatible(_))
        ));
    }

    #[test]
    fn incompatible_vectors_rejected() {
        let a = family(8).new_vector();
        let b = SketchFamily::builder().copies(8).seed(999).build().new_vector();
        assert!(union(&[&a, &b], &EstimatorOptions::default()).is_err());
    }

    #[test]
    fn paper_mode_estimates_within_tolerance() {
        let f = family(256);
        let a = filled(&f, 0..6000);
        let b = filled(&f, 4000..10000);
        let opts = EstimatorOptions::paper();
        let e = union(&[&a, &b], &opts).unwrap();
        let rel = (e.value - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.25, "paper union estimate {} (rel {rel})", e.value);
    }

    #[test]
    fn pooled_mode_estimates_within_tolerance() {
        let f = family(256);
        let a = filled(&f, 0..6000);
        let b = filled(&f, 4000..10000);
        let e = union(&[&a, &b], &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.12, "pooled union estimate {} (rel {rel})", e.value);
    }

    #[test]
    fn single_stream_union_is_distinct_count() {
        let f = family(256);
        let a = filled(&f, 0..5000);
        let e = union(&[&a], &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 5000.0).abs() / 5000.0;
        assert!(rel < 0.15, "estimate {}", e.value);
    }

    #[test]
    fn deletions_do_not_bias_union() {
        let f = family(128);
        let mut a = filled(&f, 0..4000);
        // Churn: insert & fully delete 4000 extra elements.
        for e in 100_000..104_000u64 {
            a.insert(e);
        }
        for e in 100_000..104_000u64 {
            a.delete(e);
        }
        let clean = filled(&f, 0..4000);
        let opts = EstimatorOptions::default();
        let with_churn = union(&[&a], &opts).unwrap().value;
        let without = union(&[&clean], &opts).unwrap().value;
        assert_eq!(with_churn, without, "sketches must be identical");
    }

    #[test]
    fn small_cardinalities_are_recovered() {
        let f = family(512);
        for n in [1u64, 2, 5, 20] {
            let a = filled(&f, 0..n);
            let e = union(&[&a], &EstimatorOptions::default()).unwrap();
            assert!(
                (e.value - n as f64).abs() <= 1.0 + 0.5 * n as f64,
                "n={n}, estimate={}",
                e.value
            );
        }
    }

    #[test]
    fn three_stream_union() {
        let f = family(256);
        let a = filled(&f, 0..3000);
        let b = filled(&f, 2000..5000);
        let c = filled(&f, 4000..9000);
        let e = union(&[&a, &b, &c], &EstimatorOptions::default()).unwrap();
        let rel = (e.value - 9000.0).abs() / 9000.0;
        assert!(rel < 0.12, "estimate {}", e.value);
    }

    #[test]
    fn invert_occupancy_edges() {
        assert_eq!(invert_occupancy(0, 100, 3), 0.0);
        // count == r clamps rather than returning infinity.
        assert!(invert_occupancy(100, 100, 3).is_finite());
        // Monotone in count.
        let lo = invert_occupancy(10, 100, 3);
        let hi = invert_occupancy(20, 100, 3);
        assert!(hi > lo);
    }
}
