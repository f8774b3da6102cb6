//! Shared machinery for the witness-based estimators (§3.4, §3.5, §4).
//!
//! All three follow the same recipe: for each sketch copy, find first-level
//! buckets that are *singletons for the union* of the participating
//! streams; each such bucket isolates one uniformly-random element of
//! `∪Aᵢ`, and the fraction of those elements satisfying the witness
//! condition estimates `|E| / |∪Aᵢ|`.
//!
//! analyze: allow(indexing) — estimator kernel: callers pass non-empty, dimension-validated vector sets (see `validate_vectors`)

use super::{Estimate, EstimatorOptions, WitnessMode};
use crate::error::EstimateError;
use crate::family::SketchVector;
use crate::sketch::{singleton_union_levels, TwoLevelSketch};

/// Tally of witness observations across copies (and levels).
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct WitnessCounts {
    /// Buckets that were singletons for the union (valid 0/1 observations).
    pub valid: usize,
    /// Valid buckets whose singleton satisfied the witness condition.
    pub hits: usize,
}

/// The Figure-6 bucket index: `⌈log₂(β·û / (1−ε))⌉`, clamped to the
/// sketch's level range.
pub(super) fn witness_index(u_hat: f64, levels: u32, opts: &EstimatorOptions) -> u32 {
    let target = (opts.beta * u_hat.max(1.0)) / (1.0 - opts.epsilon);
    let index = target.log2().ceil();
    (index.max(0.0) as u32).min(levels - 1)
}

/// Scan buckets per `opts.witness_mode`, counting union-singletons and
/// witness hits, one sketch copy at a time and every level at once.
///
/// `witnesses(copy_sketches, valid)` returns the copy's witness levels as
/// a mask; `valid` holds the copy's union-singleton levels in scope, and
/// only witness levels among them count as hits. It is called only for
/// copies with at least one valid level.
pub(super) fn collect<F>(
    vectors: &[&SketchVector],
    u_hat: f64,
    opts: &EstimatorOptions,
    mut witnesses: F,
) -> WitnessCounts
where
    F: FnMut(&[&TwoLevelSketch], u64) -> u64,
{
    let r = vectors[0].copies();
    let levels = vectors[0].family().config().levels;
    let scope = match opts.witness_mode {
        WitnessMode::SingleBucket => 1u64 << witness_index(u_hat, levels, opts),
        WitnessMode::AllLevels => u64::MAX,
    };

    let mut counts = WitnessCounts::default();
    // Reused per-copy scratch buffer of sketch refs (no allocation per
    // copy).
    let mut copy_sketches: Vec<&TwoLevelSketch> = Vec::with_capacity(vectors.len());
    for i in 0..r {
        copy_sketches.clear();
        copy_sketches.extend(vectors.iter().map(|v| &v.sketches()[i]));
        let valid = singleton_union_levels(&copy_sketches, scope);
        if valid != 0 {
            counts.valid += valid.count_ones() as usize;
            counts.hits += (witnesses(&copy_sketches, valid) & valid).count_ones() as usize;
        }
    }
    counts
}

/// Assemble the final estimate `|Ê| = (hits / valid) · û`.
pub(super) fn finish(
    counts: WitnessCounts,
    u_hat: f64,
    copies: usize,
) -> Result<Estimate, EstimateError> {
    if counts.valid == 0 {
        return Err(EstimateError::NoValidObservations);
    }
    let p_hat = counts.hits as f64 / counts.valid as f64;
    Ok(Estimate {
        value: p_hat * u_hat,
        method: super::EstimateMethod::Witness,
        union_estimate: u_hat,
        valid_observations: counts.valid,
        witness_hits: counts.hits,
        copies,
    })
}

/// Check that all vectors share a family and return the copy count.
pub(super) fn validate_vectors(vectors: &[&SketchVector]) -> Result<usize, EstimateError> {
    let (first, rest) = vectors
        .split_first()
        .ok_or_else(|| EstimateError::Incompatible("no sketch vectors supplied".into()))?;
    for v in rest {
        first.check_compatible(v)?;
    }
    Ok(first.copies())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_index_tracks_union_size() {
        let opts = EstimatorOptions::default();
        // β=2, ε=0.05: target ≈ 2u/0.95. u=1000 → log2(2105) ≈ 11.04 → 12.
        assert_eq!(witness_index(1000.0, 64, &opts), 12);
        // Tiny unions clamp at level 2 (β·1/0.95 → ⌈log₂ 2.1⌉ = 2).
        assert_eq!(witness_index(0.0, 64, &opts), 2);
        // Huge unions clamp at the last level.
        assert_eq!(witness_index(1e30, 16, &opts), 15);
    }

    #[test]
    fn finish_errors_without_observations() {
        assert!(matches!(
            finish(WitnessCounts::default(), 100.0, 8),
            Err(EstimateError::NoValidObservations)
        ));
    }

    #[test]
    fn finish_scales_by_union() {
        let e = finish(WitnessCounts { valid: 50, hits: 10 }, 1000.0, 8).unwrap();
        assert_eq!(e.value, 200.0);
        assert_eq!(e.union_estimate, 1000.0);
        assert_eq!(e.valid_observations, 50);
        assert_eq!(e.witness_hits, 10);
        assert_eq!(e.copies, 8);
    }
}
