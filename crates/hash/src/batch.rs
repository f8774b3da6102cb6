//! Batch hashing kernels for high-throughput sketch maintenance.
//!
//! The scalar update path pays one virtual-ish call and one pointer chase
//! per second-level hash evaluation (`Vec<PairwiseHash>` → struct → field).
//! At the paper's `r = 512`, `s = 32` that is ~16k scattered hash calls per
//! stream item. The kernels here restructure that work:
//!
//! * [`PairwiseHashBank`] stores the coefficients of `s` pairwise
//!   functions as flat arrays (structure-of-arrays) and applies a whole
//!   group of updates to a counter row function by function — the
//!   coefficients stay resident in L1 and the inner loop has no dependent
//!   chain, so it saturates the multiplier.
//! * [`hash_many`] evaluates a first-level hash over a slice of elements.
//!   A single Carter–Wegman evaluation is a latency-bound Horner chain;
//!   hashing a batch exposes independent chains the CPU can overlap.

use crate::field;
use crate::pairwise::PairwiseHash;
use crate::simd;
use crate::Hash64;

/// Structure-of-arrays bank of pairwise hash functions
/// `hⱼ(x) = (aⱼ·x + bⱼ) mod p`, evaluated together.
///
/// The bit the bank applies for function `j` is identical to
/// `PairwiseHash::hash_bit` of the j-th source function: same
/// coefficients, same field arithmetic, so scalar and batched sketch
/// maintenance agree bit-for-bit. The kernels are the lane-parallel forms
/// in [`crate::simd`], which hold split pre-scaled copies of the
/// coefficients, derived from `(a, b)` at construction and proven (by the
/// simd module's tests and `tests/simd_equivalence.rs`) to evaluate the
/// identical bit.
#[derive(Debug, Clone)]
pub struct PairwiseHashBank {
    split: simd::ParityBank,
}

impl PairwiseHashBank {
    /// Build a bank from individual functions (flattening their
    /// coefficients into contiguous storage).
    pub fn from_functions(fns: &[PairwiseHash]) -> Self {
        let a: Vec<u64> = fns.iter().map(|h| h.coefficients().0).collect();
        let b: Vec<u64> = fns.iter().map(|h| h.coefficients().1).collect();
        PairwiseHashBank {
            split: simd::ParityBank::new(&a, &b),
        }
    }

    /// Number of hash functions in the bank.
    #[inline]
    pub fn len(&self) -> usize {
        self.split.len()
    }

    /// `true` if the bank holds no functions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group sketch-maintenance kernel: apply a whole batch of updates
    /// that all target the same counter row.
    ///
    /// For every function `j`, adds `deltas[i]` to `row[2j + bitⱼ(xrs[i])]`
    /// for all `i` — the same counter state as bumping one cell per
    /// function for each element in turn, but with the loop nest inverted:
    /// the outer loop walks functions, the inner loop streams the
    /// elements, so `(aⱼ, bⱼ)` and the accumulator live in registers and each counter cell is touched
    /// **once per group** instead of once per element. Because the two
    /// cells of a pair split the group's delta total (`cell₀ + cell₁ =
    /// Σdeltas`), a single branchless accumulator of the `bit = 1` mass
    /// suffices; the inner loop has no cross-iteration dependency beyond
    /// one add, so the out-of-order core overlaps the field multiplies.
    ///
    /// `xrs` must hold **canonical field representatives** (`< p`, i.e.
    /// already passed through [`field::reduce64`]) — hoisting the
    /// reduction out of the `s`-fold loop is the caller's half of the
    /// bargain.
    ///
    /// # Panics
    /// Panics if `row.len() != 2 * self.len()` or the element and delta
    /// slices disagree in length.
    #[inline]
    pub fn accumulate_group(&self, xrs: &[u64], deltas: &[i64], row: &mut [i64]) {
        assert_eq!(row.len(), 2 * self.len(), "row holds one cell pair per function");
        assert_eq!(xrs.len(), deltas.len(), "one delta per element");
        debug_assert!(xrs.iter().all(|&x| x < field::P));
        // Insert-only (or otherwise uniform-delta) groups are the common
        // stream shape; for them the inner loop only needs to *count*
        // odd-cell landings, dropping the per-element delta load and
        // mask-select from the hot loop. Mixed-delta groups take the
        // weighted kernel, which folds the sign into a branch-free mask —
        // the two differ by one vector op per lane, so deletions no
        // longer fall off a fast-path cliff.
        if let Some(&d0) = deltas.first() {
            if deltas.iter().all(|&d| d == d0) {
                simd::accumulate_uniform(&self.split, xrs, d0, row);
                return;
            }
        }
        let total: i64 = deltas.iter().sum();
        simd::accumulate_weighted(&self.split, xrs, deltas, total, row);
    }

    /// [`accumulate_group`] for a group whose every element carries the
    /// same `d0` — the insert-only stream shape. Callers that establish
    /// uniformity once per *chunk* (e.g. the core batch path) use this to
    /// skip both the per-group uniformity scan above and the delta
    /// scatter that feeds it. Bit-identical to `accumulate_group` with a
    /// constant delta slice.
    ///
    /// [`accumulate_group`]: PairwiseHashBank::accumulate_group
    ///
    /// # Panics
    /// Panics if `row.len() != 2 * self.len()`.
    #[inline]
    pub fn accumulate_group_uniform(&self, xrs: &[u64], d0: i64, row: &mut [i64]) {
        assert_eq!(row.len(), 2 * self.len(), "row holds one cell pair per function");
        debug_assert!(xrs.iter().all(|&x| x < field::P));
        if !xrs.is_empty() {
            simd::accumulate_uniform(&self.split, xrs, d0, row);
        }
    }
}

/// First-level batch kernel: `out[i] = h(xs[i])`.
///
/// The point is instruction-level parallelism: each polynomial evaluation
/// is a dependent multiply-add chain, but evaluations of *different*
/// elements are independent, so a straight loop over a slice lets the
/// out-of-order core overlap several chains.
///
/// # Panics
/// Panics if `out.len() != xs.len()`.
#[inline]
pub fn hash_many<H: Hash64 + ?Sized>(h: &H, xs: &[u64], out: &mut [u64]) {
    h.hash_slice(xs, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyHash, HashFamily};

    #[test]
    fn hash_many_matches_scalar() {
        let h = AnyHash::from_seed(HashFamily::KWise(8), 77);
        let xs: Vec<u64> = (0..333u64).map(|i| i.wrapping_mul(0x1234_5678_9abc)).collect();
        let mut out = vec![0u64; xs.len()];
        hash_many(&h, &xs, &mut out);
        for (&x, &o) in xs.iter().zip(out.iter()) {
            assert_eq!(o, h.hash(x));
        }
    }

    #[test]
    fn empty_bank_is_fine() {
        let bank = PairwiseHashBank::from_functions(&[]);
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        bank.accumulate_group(&[123], &[1], &mut []);
        bank.accumulate_group_uniform(&[123], 1, &mut []);
    }
}
