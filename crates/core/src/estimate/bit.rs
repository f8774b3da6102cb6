//! Estimation over the compact insert-only bit sketches.
//!
//! §5.1 of the paper sizes its synopses assuming one *bit* per cell for
//! insert-only streams — 64× smaller than the `i64` counters deletions
//! require. This module provides an `r`-copy [`BitSketchVector`] and the
//! intersection estimator over it, so insert-only deployments can trade
//! the deletion capability for an 64× larger `r` at the same memory
//! budget (`ablation_memory` quantifies the win).
//!
//! The estimator is the counter one: the union count and the witness scan
//! read each bit sketch's [`crate::sketch::Occupancy`] view, which for
//! insert-only input equals the summary of the counter sketch built with
//! the same coins — so the estimates are equal too (tested below).

use super::{union_est, witness, Estimate, EstimatorOptions};
use crate::error::EstimateError;
use crate::family::SketchFamily;
use crate::sketch::BitSketch;
use setstream_stream::{Element, StreamId};

/// An `r`-copy bit-sketch synopsis of one insert-only stream. It has no
/// wire form: nothing ships one, and a decoder would have to check that
/// its sketches match its family.
#[derive(Debug, Clone)]
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
        self.check_compatible(other)?;
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.merge_from(b)?;
        }
        Ok(())
    }

    fn check_compatible(&self, other: &BitSketchVector) -> Result<(), EstimateError> {
        if self.family == other.family {
            Ok(())
        } else {
            Err(EstimateError::Incompatible(
                "bit sketch vectors from different families".into(),
            ))
        }
    }

    /// Total storage of the packed cell grids, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.sketches.iter().map(BitSketch::storage_bytes).sum()
    }
}

/// `|A ∩ B|` over bit synopses: the witness estimator on `A ∩ B`, with
/// the union estimate at `ε/3` like [`super::intersection`].
pub fn bit_intersection(
    a: &BitSketchVector,
    b: &BitSketchVector,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    opts.validate();
    a.check_compatible(b)?;
    let levels = a.family.config().levels;
    let u_hat =
        union_est::union_of(&[a.sketches(), b.sketches()], levels, &union_est::inner_options(opts))
            .value;
    let streams = [(StreamId(0), a.sketches()), (StreamId(1), b.sketches())];
    witness::estimate(&super::a_and_b(), &streams, levels, u_hat, opts)
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
        for opts in [EstimatorOptions::default(), EstimatorOptions::paper()] {
            let bi = bit_intersection(&ba, &bb, &opts).unwrap();
            let ci = super::super::intersection(&ca, &cb, &opts).unwrap();
            assert_eq!(bi.value.to_bits(), ci.value.to_bits(), "{opts:?}");
            assert_eq!(bi.union_estimate.to_bits(), ci.union_estimate.to_bits(), "{opts:?}");
            assert_eq!(bi.valid_observations, ci.valid_observations, "{opts:?}");
            assert_eq!(bi.witness_hits, ci.witness_hits, "{opts:?}");
            assert_eq!(bi.copies, ci.copies, "{opts:?}");
        }
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
            bit_intersection(&a, &a, &opts).unwrap(),
            bit_intersection(&both, &both, &opts).unwrap()
        );
    }

    #[test]
    fn incompatible_vectors_rejected() {
        let a = BitSketchVector::new(family(16));
        let mut other = family(16);
        other = SketchFamily::new(*other.config(), 16, 12345);
        let b = BitSketchVector::new(other);
        assert!(bit_intersection(&a, &b, &EstimatorOptions::default()).is_err());
        let mut a2 = a.clone();
        assert!(a2.merge_from(&b).is_err());
    }

    #[test]
    fn empty_bit_union_is_zero() {
        let f = family(16);
        let a = BitSketchVector::new(f);
        let e = bit_intersection(&a, &a, &EstimatorOptions::default()).unwrap();
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
