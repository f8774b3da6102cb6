//! Pairwise-independent linear hashing `h(x) = (a·x + b) mod p`.
//!
//! The classic Carter–Wegman family, and the weakest offered for the first
//! level (`HashFamily::Pairwise`; the independence ablation shows where it
//! starts to hurt). The second-level functions, which Lemma 3.1 asks
//! only to be pairwise independent, come from the cheaper GF(2)-affine
//! bank in [`crate::batch`] instead.

use crate::field;
#[cfg(test)]
use crate::field::P;
use crate::mix::splitmix64;
use crate::Hash64;

/// A hash function drawn uniformly from the family
/// `{ x ↦ (a·x + b) mod p : a ∈ [1,p), b ∈ [0,p) }` over `p = 2⁶¹ − 1`.
///
/// Inputs are first reduced mod `p`; the family is therefore defined on the
/// domain `[0, 2⁶¹−1)`, which comfortably contains the paper's `[M]` with
/// `M = 2³²`.
#[derive(Debug, Clone, Copy)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
}

impl PairwiseHash {
    /// Draw `(a, b)` deterministically from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let mut draw = move || {
            s = splitmix64(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
            s
        };
        // Rejection-free: reduce mod p gives negligible bias (2^64 / p ≈ 8
        // wraps); for a we additionally avoid 0 to keep the map non-constant.
        let a = {
            let v = field::reduce64(draw());
            if v == 0 {
                1
            } else {
                v
            }
        };
        let b = field::reduce64(draw());
        PairwiseHash { a, b }
    }

    /// The multiplier coefficient (for tests/diagnostics).
    pub fn coefficients(&self) -> (u64, u64) {
        (self.a, self.b)
    }
}

impl Hash64 for PairwiseHash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        field::mul_add(self.a, field::reduce64(x), self.b)
    }

    /// Batch evaluation as a degree-1 Horner chain through the
    /// lane-parallel kernel (`[a, b]` coefficients — identical canonical
    /// output to per-element [`Hash64::hash`]).
    #[inline]
    fn hash_slice(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "output sized to input");
        crate::simd::horner_many(&[self.a, self.b], xs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::chi_square_uniform;

    #[test]
    fn outputs_are_canonical_field_elements() {
        let h = PairwiseHash::from_seed(5);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < P);
        }
    }

    #[test]
    fn coefficients_valid() {
        for seed in 0..200 {
            let (a, b) = PairwiseHash::from_seed(seed).coefficients();
            assert!((1..P).contains(&a));
            assert!(b < P);
        }
    }

    #[test]
    fn empirical_pairwise_collision_rate() {
        // Over random function draws, Pr[h(x)=h(y)] for fixed x≠y must be
        // ≈ 1/p ≈ 0 at any observable scale — i.e. essentially never when
        // comparing full 61-bit outputs.
        let x = 123u64;
        let y = 456u64;
        let collisions = (0..20_000u64)
            .map(PairwiseHash::from_seed)
            .filter(|h| h.hash(x) == h.hash(y))
            .count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn empirical_bit_balance_over_draws() {
        // Pairwise independence of the output bit across function draws:
        // for fixed x, Pr[bit=1] ≈ 1/2; for fixed x≠y, the four (bit_x,
        // bit_y) combinations are ≈ uniform.
        let mut cells = [0u64; 4];
        for seed in 0..40_000u64 {
            let h = PairwiseHash::from_seed(seed);
            let bx = h.hash(1) & 1;
            let by = h.hash(2) & 1;
            cells[(bx * 2 + by) as usize] += 1;
        }
        assert!(
            chi_square_uniform(&cells),
            "bit pair not uniform: {cells:?}"
        );
    }

    #[test]
    fn bucket_distribution_is_geometric() {
        // LSB(h(x)) over many x should put ~1/2 of mass at 0, ~1/4 at 1, ...
        let h = PairwiseHash::from_seed(99);
        let n = 1 << 16;
        let mut counts = [0u64; 8];
        for x in 0..n as u64 {
            let l = crate::bit::lsb64(h.hash(x)).min(7);
            counts[l as usize] += 1;
        }
        for (l, &c) in counts.iter().enumerate().take(6) {
            let expected = n as f64 / 2f64.powi(l as i32 + 1);
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.1, "level {l}: count {c}, expected {expected}");
        }
    }
}
