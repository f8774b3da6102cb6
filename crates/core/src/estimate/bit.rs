//! Estimation over the compact insert-only bit sketches.
//!
//! §5.1 of the paper sizes its synopses assuming one *bit* per cell for
//! insert-only streams — 64× smaller than the `i64` counters deletions
//! require. This module provides an `r`-copy [`BitSketchVector`] and the
//! intersection estimator over it, so insert-only deployments can trade
//! the deletion capability for an 64× larger `r` at the same memory
//! budget (`ablation_memory` quantifies the win).
//!
//! The algorithms are identical to the counter versions — occupancy and
//! singleton signatures read the same cells — so for insert-only input a
//! bit estimate equals the counter estimate built with the same coins
//! (tested below).
//!
//! analyze: allow(indexing) — estimator kernel: per-copy/per-level indices are bounded by `witness::validate_vectors`' dimension check

use super::{union_est, witness, Estimate, EstimatorOptions, WitnessMode};
use crate::error::EstimateError;
use crate::family::SketchFamily;
use crate::sketch::BitSketch;
use serde::{Deserialize, Serialize};
use setstream_expr::SetExpr;
use setstream_stream::{Element, StreamId};

/// An `r`-copy bit-sketch synopsis of one insert-only stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitSketchVector {
    family: SketchFamily,
    sketches: Vec<BitSketch>,
}

impl BitSketchVector {
    /// Mint an empty bit synopsis with `family`'s coins (cell placement
    /// matches [`crate::SketchVector`]s of the same family exactly).
    pub fn new(family: SketchFamily) -> Self {
        let sketches = (0..family.copies())
            .map(|i| BitSketch::new(*family.config(), family.copy_seed(i)))
            .collect();
        BitSketchVector { family, sketches }
    }

    /// The family (coins) in use.
    pub fn family(&self) -> &SketchFamily {
        &self.family
    }

    /// The sketch copies.
    pub fn sketches(&self) -> &[BitSketch] {
        &self.sketches
    }

    /// Number of copies `r`.
    pub fn copies(&self) -> usize {
        self.sketches.len()
    }

    /// Record one occurrence of `e` in every copy.
    pub fn insert(&mut self, e: Element) {
        for s in &mut self.sketches {
            s.insert(e);
        }
    }

    /// Bitwise-OR merge with another site's synopsis of the same stream.
    pub fn merge_from(&mut self, other: &BitSketchVector) -> Result<(), EstimateError> {
        if self.family != other.family {
            return Err(EstimateError::Incompatible(
                "bit sketch vectors from different families".into(),
            ));
        }
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.merge_from(b)?;
        }
        Ok(())
    }

    /// Total storage of the packed cell grids, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.sketches.iter().map(BitSketch::storage_bytes).sum()
    }
}

fn validate(vectors: &[&BitSketchVector]) -> Result<usize, EstimateError> {
    let (first, rest) = vectors
        .split_first()
        .ok_or_else(|| EstimateError::Incompatible("no bit sketch vectors supplied".into()))?;
    for v in rest {
        if v.family != first.family {
            return Err(EstimateError::Incompatible(
                "bit sketch vectors from different families".into(),
            ));
        }
    }
    Ok(first.copies())
}

/// Set-union estimate over bit synopses (Figure 5 / pooled, per
/// `opts.union_mode`).
fn bit_union(
    vectors: &[&BitSketchVector],
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    opts.validate();
    let r = validate(vectors)?;
    let levels = vectors[0].family.config().levels;
    let mut counts = vec![0usize; levels as usize];
    for i in 0..r {
        for (level, slot) in counts.iter_mut().enumerate() {
            if vectors
                .iter()
                .any(|v| !v.sketches[i].is_level_empty(level as u32))
            {
                *slot += 1;
            }
        }
    }
    let (value, level_used) = match opts.union_mode {
        super::UnionMode::PaperLevel => union_est::paper_level_estimate(&counts, r, opts.epsilon),
        super::UnionMode::Pooled => (union_est::pooled_estimate(&counts, r), 0),
    };
    Ok(Estimate {
        value,
        method: super::EstimateMethod::BitSketch,
        union_estimate: value,
        valid_observations: r,
        witness_hits: counts.get(level_used).copied().unwrap_or(0),
        copies: r,
    })
}

/// Is the union of bucket `level` over all sketches a singleton? (Bit
/// variant of `singleton_union_bucket_many`.)
fn bit_singleton_union_many(sketches: &[&BitSketch], level: u32) -> bool {
    let Some(first) = sketches.first() else {
        return false;
    };
    if sketches.iter().all(|s| s.is_level_empty(level)) {
        return false;
    }
    for j in 0..first.config().second_level {
        let zero = sketches.iter().any(|s| s.cell(level, j, 0));
        let one = sketches.iter().any(|s| s.cell(level, j, 1));
        if zero && one {
            return false;
        }
    }
    true
}

/// General set-expression estimate over bit synopses (§4's algorithm on
/// the compact representation).
fn bit_expression(
    expr: &SetExpr,
    streams: &[(StreamId, &BitSketchVector)],
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    opts.validate();
    let mut participating: Vec<(StreamId, &BitSketchVector)> = Vec::new();
    for id in expr.streams() {
        let v = streams
            .iter()
            .find(|&&(sid, _)| sid == id)
            .map(|&(_, v)| v)
            .ok_or(EstimateError::MissingStream(id.0))?;
        participating.push((id, v));
    }
    let vectors: Vec<&BitSketchVector> = participating.iter().map(|&(_, v)| v).collect();
    let copies = validate(&vectors)?;
    let u_hat = bit_union(&vectors, opts)?.value;
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

    let levels = vectors[0].family.config().levels;
    let range: std::ops::Range<u32> = match opts.witness_mode {
        WitnessMode::SingleBucket => {
            let idx = witness::witness_index(u_hat, levels, opts);
            idx..idx + 1
        }
        WitnessMode::AllLevels => 0..levels,
    };
    let ids: Vec<StreamId> = participating.iter().map(|&(id, _)| id).collect();
    let mut valid = 0usize;
    let mut hits = 0usize;
    let mut copy_sketches: Vec<&BitSketch> = Vec::with_capacity(vectors.len());
    for i in 0..copies {
        copy_sketches.clear();
        copy_sketches.extend(vectors.iter().map(|v| &v.sketches[i]));
        for level in range.clone() {
            if bit_singleton_union_many(&copy_sketches, level) {
                valid += 1;
                let witness_hit = expr.eval_bool(&|sid| {
                    ids.iter()
                        .position(|&id| id == sid)
                        .is_some_and(|k| !copy_sketches[k].is_level_empty(level))
                });
                if witness_hit {
                    hits += 1;
                }
            }
        }
    }
    if valid == 0 {
        return Err(EstimateError::NoValidObservations);
    }
    Ok(Estimate {
        value: hits as f64 / valid as f64 * u_hat,
        method: super::EstimateMethod::BitSketch,
        union_estimate: u_hat,
        valid_observations: valid,
        witness_hits: hits,
        copies,
    })
}

/// `|A ∩ B|` over bit synopses.
pub fn bit_intersection(
    a: &BitSketchVector,
    b: &BitSketchVector,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    let expr = SetExpr::stream(0).intersect(SetExpr::stream(1));
    bit_expression(&expr, &[(StreamId(0), a), (StreamId(1), b)], opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::SketchVector;

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(16).seed(61).build()
    }

    fn pair(f: &SketchFamily) -> (BitSketchVector, BitSketchVector, SketchVector, SketchVector) {
        let mut ba = BitSketchVector::new(*f);
        let mut bb = BitSketchVector::new(*f);
        let mut ca = f.new_vector();
        let mut cb = f.new_vector();
        for e in 0..4000u64 {
            ba.insert(e);
            ca.insert(e);
        }
        for e in 2000..6000u64 {
            bb.insert(e);
            cb.insert(e);
        }
        (ba, bb, ca, cb)
    }

    #[test]
    fn bit_estimates_equal_counter_estimates_insert_only() {
        let f = family(128);
        let (ba, bb, ca, cb) = pair(&f);
        let opts = EstimatorOptions::default();

        let bu = bit_union(&[&ba, &bb], &opts).unwrap();
        let cu = super::super::union(&[&ca, &cb], &opts).unwrap();
        assert_eq!(bu.value, cu.value, "union");

        let bi = bit_intersection(&ba, &bb, &opts).unwrap();
        let ci = super::super::intersection(&ca, &cb, &opts).unwrap();
        assert_eq!(bi.value, ci.value, "intersection");
        assert_eq!(bi.valid_observations, ci.valid_observations);
        assert_eq!(bi.witness_hits, ci.witness_hits);
    }

    #[test]
    fn bit_vector_is_64x_smaller() {
        let f = family(64);
        let bits = BitSketchVector::new(f);
        assert_eq!(bits.storage_bytes() * 64, f.vector_bytes());
    }

    #[test]
    fn merge_matches_concatenated_stream() {
        let f = family(32);
        let mut a = BitSketchVector::new(f);
        let mut b = BitSketchVector::new(f);
        let mut both = BitSketchVector::new(f);
        for e in 0..500u64 {
            a.insert(e);
            both.insert(e);
        }
        for e in 300..900u64 {
            b.insert(e);
            both.insert(e);
        }
        a.merge_from(&b).unwrap();
        let opts = EstimatorOptions::default();
        assert_eq!(
            bit_union(&[&a], &opts).unwrap().value,
            bit_union(&[&both], &opts).unwrap().value
        );
    }

    #[test]
    fn incompatible_vectors_rejected() {
        let a = BitSketchVector::new(family(16));
        let mut other = family(16);
        other = SketchFamily::new(*other.config(), 16, 12345);
        let b = BitSketchVector::new(other);
        assert!(bit_union(&[&a, &b], &EstimatorOptions::default()).is_err());
        let mut a2 = a.clone();
        assert!(a2.merge_from(&b).is_err());
    }

    #[test]
    fn missing_stream_reported() {
        let f = family(16);
        let a = BitSketchVector::new(f);
        let expr: SetExpr = "A & B".parse().unwrap();
        assert!(matches!(
            bit_expression(&expr, &[(StreamId(0), &a)], &EstimatorOptions::default()),
            Err(EstimateError::MissingStream(1))
        ));
    }

    #[test]
    fn empty_bit_union_is_zero() {
        let f = family(16);
        let a = BitSketchVector::new(f);
        let e = bit_union(&[&a], &EstimatorOptions::default()).unwrap();
        assert_eq!(e.value, 0.0);
    }

    #[test]
    fn more_copies_at_equal_memory_beat_counters() {
        // Memory-normalized shootout at a modest scale: counters with
        // r = 8 (512 KiB) vs bits with r = 512 (same 512 KiB with the
        // default 64×32×2 grid). The bit variant should be dramatically
        // more accurate on insert-only data.
        let counter_family = family(8);
        let bit_family = family(512);
        let mut ca = counter_family.new_vector();
        let mut cb = counter_family.new_vector();
        let mut ba = BitSketchVector::new(bit_family);
        let mut bb = BitSketchVector::new(bit_family);
        for e in 0..4000u64 {
            ca.insert(e);
            ba.insert(e);
        }
        for e in 3000..7000u64 {
            cb.insert(e);
            bb.insert(e);
        }
        assert_eq!(
            counter_family.vector_bytes(),
            ba.storage_bytes(),
            "the comparison must be memory-normalized"
        );
        let opts = EstimatorOptions::default();
        let truth = 1000.0;
        let counter_err = (super::super::intersection(&ca, &cb, &opts).unwrap().value - truth)
            .abs()
            / truth;
        let bit_err =
            (bit_intersection(&ba, &bb, &opts).unwrap().value - truth).abs() / truth;
        assert!(
            bit_err < counter_err,
            "bits (err {bit_err:.3}) should beat counters (err {counter_err:.3}) at equal memory"
        );
    }
}
