//! The witness estimator (§3.4, §3.5, §4), written once for every
//! expression and both sketch kinds.
//!
//! For each sketch copy, find first-level buckets that are *singletons for
//! the union* of the participating streams; each such bucket isolates one
//! uniformly-random element of `∪Aᵢ`, and the fraction of those elements
//! satisfying `B(E)` estimates `|E| / |∪Aᵢ|`. On a union-singleton bucket
//! every stream's bucket is empty or holds that one element, so `B(E)`
//! over bucket occupancy is Figure 6's difference test for `E = A − B` and
//! §3.5's intersection test for `E = A ∩ B`.
//!
//! analyze: allow(indexing) — estimator kernel: callers pass non-empty, dimension-validated vector sets (see `validate_vectors`)

use super::{Estimate, EstimatorOptions, WitnessMode};
use crate::error::EstimateError;
use crate::family::{SketchFamily, SketchVector};
use crate::sketch::{singleton_union_levels, Occupancy};
use setstream_expr::SetExpr;
use setstream_stream::StreamId;

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

/// Estimate `|E|` as `(hits / valid) · û` over the participating streams'
/// sketch copies (`streams[k].1[i]` is copy `i` of stream `k`, all from
/// one family with `levels` first-level buckets).
///
/// Buckets are scanned per `opts.witness_mode`, one copy at a time and
/// every level at once: the copy's union-singleton levels are the valid
/// observations, and those among them where `B(E)` holds over the
/// streams' occupied levels are the hits. `û = 0` answers exactly 0.
pub(super) fn estimate<S: Occupancy>(
    expr: &SetExpr,
    streams: &[(StreamId, &[S])],
    levels: u32,
    u_hat: f64,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    let copies = streams.first().map_or(0, |(_, s)| s.len());
    if u_hat == 0.0 {
        // Empty union ⇒ empty expression; no witness needed.
        return Ok(Estimate {
            value: 0.0,
            method: super::EstimateMethod::TrivialEmpty,
            union_estimate: 0.0,
            valid_observations: 0,
            witness_hits: 0,
            copies,
        });
    }
    let scope = match opts.witness_mode {
        WitnessMode::SingleBucket => 1u64 << witness_index(u_hat, levels, opts),
        WitnessMode::AllLevels => u64::MAX,
    };

    let mut counts = WitnessCounts::default();
    // Reused per-copy scratch buffer of sketch refs (no allocation per
    // copy).
    let mut copy: Vec<&S> = Vec::with_capacity(streams.len());
    for i in 0..copies {
        copy.clear();
        copy.extend(streams.iter().map(|(_, s)| &s[i]));
        let valid = singleton_union_levels(&copy, scope);
        if valid != 0 {
            // B(E) over every level of the copy at once: stream Aᵢ
            // "present" at a level iff its bucket there is non-empty.
            let witnesses = expr.eval_bits(&|sid| {
                streams
                    .iter()
                    .zip(&copy)
                    .find(|((id, _), _)| *id == sid)
                    .map_or(0, |(_, sk)| sk.occupied_levels())
            });
            counts.valid += valid.count_ones() as usize;
            counts.hits += (witnesses & valid).count_ones() as usize;
        }
    }
    finish(counts, u_hat, copies)
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

/// Check that all vectors share a family and return it.
pub(super) fn validate_vectors<'a>(
    vectors: &[&'a SketchVector],
) -> Result<&'a SketchFamily, EstimateError> {
    let (first, rest) = vectors
        .split_first()
        .ok_or_else(|| EstimateError::Incompatible("no sketch vectors supplied".into()))?;
    for v in rest {
        first.check_compatible(v)?;
    }
    Ok(first.family())
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
