//! Batch hashing kernels for high-throughput sketch maintenance.
//!
//! The scalar update path pays one hash evaluation per second-level
//! function per copy: at the paper's `r = 512`, `s = 32` that is ~16k bit
//! evaluations per stream item. The kernels here restructure that work:
//!
//! * [`PairwiseHashBank`] holds the `s` second-level functions of one
//!   sketch copy as flat coefficient arrays (structure-of-arrays) and
//!   applies a whole group of updates to a counter row function by
//!   function. A bit is `parity(aⱼ & x) ⊕ bⱼ`, one AND and one POPCNT,
//!   so the inner loop is independent 64-bit lanes with no carried chain
//!   beyond one add.
//! * [`hash_many`] evaluates a first-level hash over a slice of elements.
//!   A single Carter–Wegman evaluation is a latency-bound Horner chain;
//!   hashing a batch exposes independent chains the CPU can overlap.

use crate::seed::SeedSequence;
use crate::simd;
use crate::Hash64;

/// Structure-of-arrays bank of `s` GF(2)-affine functions
/// `hⱼ(x) = parity(aⱼ & x) ⊕ bⱼ`, with `aⱼ` uniform over `{0,1}⁶⁴` and
/// `bⱼ` a uniform bit: the second-level functions of Lemma 3.1.
///
/// This is Carter and Wegman's H₃ class, and each function is exactly
/// pairwise independent over 64-bit elements: `hⱼ(x)` is a fair coin
/// through `bⱼ`, and for `x ≠ y` the difference
/// `hⱼ(x) ⊕ hⱼ(y) = parity(aⱼ & (x ⊕ y))` is a fair coin independent of
/// `bⱼ`, because `x ⊕ y` has a set bit. Elements are hashed raw: no
/// field reduction, so no two distinct `u64`s are identified.
///
/// Every kernel ([`Self::accumulate_group`], its uniform form, and
/// [`Self::bits`]) evaluates the same bits; `tests/simd_equivalence.rs`
/// pins them to a reference computed one bit at a time.
#[derive(Debug, Clone)]
pub struct PairwiseHashBank {
    /// `aⱼ`: the function's 64-bit mask.
    a: Box<[u64]>,
    /// `bⱼ ∈ {0, 1}`: the function's constant term.
    b: Box<[u64]>,
}

impl PairwiseHashBank {
    /// Draw `s` functions deterministically from `seed` — the stored
    /// coins: equal `(seed, s)` give equal banks on every machine.
    pub fn from_seed(seed: u64, s: usize) -> Self {
        let mut coins = SeedSequence::new(seed);
        let (a, b): (Vec<u64>, Vec<u64>) =
            (0..s).map(|_| (coins.next_seed(), coins.next_seed() >> 63)).unzip();
        PairwiseHashBank {
            a: a.into_boxed_slice(),
            b: b.into_boxed_slice(),
        }
    }

    /// Number of hash functions in the bank.
    #[inline]
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// `true` if the bank holds no functions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The coefficients `(aⱼ, bⱼ)` of every function in order, for tests
    /// and diagnostics.
    pub fn coefficients(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.a.iter().copied().zip(self.b.iter().copied())
    }

    /// The bits `hⱼ(x)` of every function in order: the cell of pair `j`
    /// an update of `x` lands in.
    #[inline]
    pub fn bits(&self, x: u64) -> impl Iterator<Item = usize> + '_ {
        self.coefficients()
            .map(move |(a, b)| ((a & x).count_ones() as usize & 1) ^ b as usize)
    }

    /// Group sketch-maintenance kernel: apply a whole batch of updates
    /// that all target the same counter row.
    ///
    /// For every function `j`, adds `deltas[i]` to `row[2j + hⱼ(xs[i])]`
    /// for all `i` — the same counter state as bumping one cell per
    /// function for each element in turn, but with the loop nest inverted:
    /// the outer loop walks functions, the inner loop streams the
    /// elements, so `aⱼ` and the accumulator live in registers and each
    /// counter cell is touched **once per group** instead of once per
    /// element. Because the two cells of a pair split the group's delta
    /// total (`cell₀ + cell₁ = Σdeltas`), a single branchless accumulator
    /// of the odd-parity mass suffices, and `bⱼ` only decides which cell
    /// receives it.
    ///
    /// # Panics
    /// Panics if `row.len() != 2 * self.len()` or the element and delta
    /// slices disagree in length.
    #[inline]
    pub fn accumulate_group(&self, xs: &[u64], deltas: &[i64], row: &mut [i64]) {
        assert_eq!(row.len(), 2 * self.len(), "row holds one cell pair per function");
        assert_eq!(xs.len(), deltas.len(), "one delta per element");
        // Insert-only (or otherwise uniform-delta) groups are the common
        // stream shape; for them the inner loop only needs to *count*
        // odd-parity elements, dropping the per-element delta load and
        // mask-select from the hot loop. Mixed-delta groups take the
        // weighted kernel, which folds the sign into a branch-free mask —
        // the two differ by one vector op per lane, so deletions no
        // longer fall off a fast-path cliff.
        if let Some(&d0) = deltas.first() {
            if deltas.iter().all(|&d| d == d0) {
                simd::affine_uniform(&self.a, &self.b, xs, d0, row);
                return;
            }
        }
        let total = deltas.iter().fold(0i64, |t, &d| t.wrapping_add(d));
        simd::affine_weighted(&self.a, &self.b, xs, deltas, total, row);
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
    pub fn accumulate_group_uniform(&self, xs: &[u64], d0: i64, row: &mut [i64]) {
        assert_eq!(row.len(), 2 * self.len(), "row holds one cell pair per function");
        if !xs.is_empty() {
            simd::affine_uniform(&self.a, &self.b, xs, d0, row);
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
    use crate::field;
    use crate::stats::chi_square_uniform;
    use crate::{AnyHash, HashFamily};

    #[test]
    fn bank_bits_are_pairwise_independent_over_draws() {
        // Lemma 3.1's requirement, across 40 000 seeds: for fixed x ≠ y
        // the four outcomes of (hⱼ(x), hⱼ(y)) are uniform — also for
        // pairs that differ only in the top bit, only in the lowest bit,
        // or by the field modulus 2⁶¹ − 1 (which the mod-p family, reducing
        // its input first, sent to the same cell).
        let x = 0x9e37_79b9_7f4a_7c15u64;
        for (x, y) in [(1, 2), (0, 1 << 63), (x, x ^ 1), (5, 5 + field::P)] {
            for j in [0, 7] {
                let mut cells = [0u64; 4];
                for seed in 0..40_000u64 {
                    let bank = PairwiseHashBank::from_seed(seed, 8);
                    let bit = |e| bank.bits(e).nth(j).unwrap();
                    cells[bit(x) * 2 + bit(y)] += 1;
                }
                assert!(chi_square_uniform(&cells), "({x}, {y}) j={j}: {cells:?}");
            }
        }
    }

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
        let bank = PairwiseHashBank::from_seed(9, 0);
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        bank.accumulate_group(&[123], &[1], &mut []);
        bank.accumulate_group_uniform(&[123], 1, &mut []);
    }
}
