//! Batch hashing kernels for high-throughput sketch maintenance.
//!
//! The scalar update path pays one hash evaluation per second-level
//! function per copy: at the paper's `r = 512`, `s = 32` that is ~16k bit
//! evaluations per stream item. The kernels here restructure that work:
//!
//! * [`SlicedChunk`] holds up to [`CHUNK`] updates **bit-sliced**: for
//!   every nibble position the elements use, the 16 XOR combinations of
//!   that nibble's four element bit-planes, and the deltas as bit-planes
//!   of their narrowest two's complement. It depends on the updates
//!   only, so one form serves every sketch copy and every shard.
//! * [`PairwiseHashBank`] holds the `s` second-level functions of one
//!   sketch copy as flat coefficient arrays and applies a sliced chunk to
//!   the copy's counter rows ([`PairwiseHashBank::apply_chunk`]): a
//!   function's parity over all 512 updates is one 512-bit mask, XORed
//!   together from one table row per nibble of `aⱼ`, and a level's odd
//!   mass is a few AND + POPCNT steps over it.
//! * [`hash_many`] evaluates a first-level hash over a slice of elements.
//!   A single Carter–Wegman evaluation is a latency-bound Horner chain;
//!   hashing a batch exposes independent chains the CPU can overlap.

use crate::seed::SeedSequence;
use crate::simd::{self, backend, Backend, SlicedChunk, CHUNK};
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
/// Every kernel ([`Self::accumulate`], [`Self::apply_chunk`] and
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

    /// One update against one counter row: for every function `j`, add
    /// `delta` to `row[2j + hⱼ(x)]`, with the functions in vector lanes.
    /// Cells wrap, like every sketch cell add.
    ///
    /// # Panics
    /// Panics if `row.len() != 2 * self.len()`.
    #[inline]
    pub fn accumulate(&self, x: u64, delta: i64, row: &mut [i64]) {
        assert_eq!(row.len(), 2 * self.len(), "row holds one cell pair per function");
        simd::affine_one(backend(), &self.a, &self.b, x, delta, row);
    }

    /// [`Self::accumulate`] on a given kernel tier, so equivalence tests
    /// can hold every [`Backend::runnable`] tier to the same cells.
    ///
    /// # Panics
    /// Panics if `row.len() != 2 * self.len()` or `tier` is not runnable.
    #[inline]
    pub fn accumulate_on(&self, tier: Backend, x: u64, delta: i64, row: &mut [i64]) {
        assert_eq!(row.len(), 2 * self.len(), "row holds one cell pair per function");
        assert!(tier.is_runnable(), "kernel tier runnable on this CPU");
        simd::affine_one(tier, &self.a, &self.b, x, delta, row);
    }

    /// Apply a sliced chunk to one sketch copy's counter rows: update `i`
    /// lands on level `ℓᵢ = bucket_of(hashes[i], levels)` and adds `δᵢ` to
    /// `rows[2s·ℓᵢ + 2j + hⱼ(xᵢ)]` for every function `j`, where `rows`
    /// is level-major with `2s` cells per level and `hashes` holds the
    /// copy's first-level hashes of the chunk's elements (entries past
    /// `chunk.len()` are ignored). Returns the set of levels written
    /// (bit `ℓ` for level `ℓ`).
    ///
    /// Levels holding many of the chunk's updates take the bit-sliced
    /// path: per function, the odd set `Wⱼ` from the chunk's tables, and
    /// per level `ℓ` the odd mass `δ(Wⱼ ∩ Lℓ)` from the delta planes; the
    /// mass goes to cell `(j, 1 ⊕ bⱼ)` and the level's total minus it to
    /// `(j, bⱼ)`. The few updates on deeper levels go through
    /// [`Self::accumulate`]'s function-lane kernel. Cell adds commute and
    /// wrap, so the rows end bit-identical to applying the updates one
    /// at a time.
    ///
    /// # Panics
    /// Panics if `levels` is not in `1..=64`, or if `rows` holds fewer
    /// than `levels` rows of `2s` cells.
    #[inline]
    pub fn apply_chunk(
        &self,
        chunk: &SlicedChunk,
        hashes: &[u64; CHUNK],
        levels: u32,
        rows: &mut [i64],
    ) -> u64 {
        self.apply_chunk_on(backend(), chunk, hashes, levels, rows)
    }

    /// [`Self::apply_chunk`] on a given kernel tier, so equivalence tests
    /// can hold every [`Backend::runnable`] tier to the same cells.
    ///
    /// # Panics
    /// As [`Self::apply_chunk`], and if `tier` is not runnable.
    #[inline]
    pub fn apply_chunk_on(
        &self,
        tier: Backend,
        chunk: &SlicedChunk,
        hashes: &[u64; CHUNK],
        levels: u32,
        rows: &mut [i64],
    ) -> u64 {
        assert!((1..=64).contains(&levels), "levels in 1..=64");
        assert!(
            rows.len() >= levels as usize * 2 * self.len(),
            "one row per level"
        );
        assert!(tier.is_runnable(), "kernel tier runnable on this CPU");
        simd::sliced_apply(tier, &self.a, &self.b, chunk, hashes, levels, rows)
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
        bank.accumulate(123, 1, &mut []);
        let mut chunk = Box::new(SlicedChunk::EMPTY);
        chunk.load([(123, 1), (7, -2)]);
        assert_eq!(bank.apply_chunk(&chunk, &[1; CHUNK], 4, &mut []), 1);
    }
}
