//! `t`-wise independent polynomial hashing over GF(2⁶¹−1).
//!
//! A degree-`(t−1)` polynomial with uniformly random coefficients is a
//! `t`-wise independent function (Carter–Wegman / [3, 18] in the paper).
//! §3.6 shows the 2-level-sketch estimators only need
//! `t = Θ(log 1/ε)`-wise independence at the first level, at a storage cost
//! of `O(t · log M)` bits per sketch — this type is that seed.

use crate::field;
#[cfg(test)]
use crate::field::P;
use crate::mix::splitmix64;
use crate::Hash64;

/// A hash function drawn from the `t`-wise independent family of degree-
/// `(t−1)` polynomials over GF(2⁶¹−1), evaluated by Horner's rule.
#[derive(Debug, Clone)]
pub struct KWiseHash {
    /// Coefficients, highest degree first (`coeffs[0]·x^{t-1} + …`).
    coeffs: Box<[u64]>,
}

impl KWiseHash {
    /// Draw a `t`-wise independent function (`t ≥ 1`) from `seed`.
    ///
    /// `t = 1` gives a random constant, `t = 2` is the pairwise family.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn from_seed(t: usize, seed: u64) -> Self {
        assert!(t >= 1, "independence degree must be at least 1");
        let mut s = seed;
        let coeffs: Box<[u64]> = (0..t)
            .map(|_| {
                s = splitmix64(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
                field::reduce64(s)
            })
            .collect();
        KWiseHash { coeffs }
    }

    /// The independence degree `t` (number of coefficients).
    pub fn degree(&self) -> usize {
        self.coeffs.len()
    }
}

impl Hash64 for KWiseHash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        // Lazy Horner: intermediate accumulators stay partially reduced
        // (< 2⁶²); only the final value is canonicalized. Same output as
        // a canonical-every-step chain, minus `t` conditional
        // subtractions from the latency-bound dependency chain.
        let x = field::reduce64(x);
        let mut acc = 0u64;
        for &c in self.coeffs.iter() {
            acc = field::mul_add_lazy(acc, x, c);
        }
        field::reduce64(acc)
    }

    /// Batch evaluation rides the lane-parallel Horner kernel: same lazy
    /// `< 2⁶²` accumulator chain per element, `LANES` elements per step.
    #[inline]
    fn hash_slice(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "output sized to input");
        crate::simd::horner_many(&self.coeffs, xs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::chi_square_uniform;

    #[test]
    fn degree_one_is_constant() {
        let h = KWiseHash::from_seed(1, 3);
        let v = h.hash(0);
        for x in 1..100u64 {
            assert_eq!(h.hash(x), v);
        }
    }

    #[test]
    fn horner_matches_naive_evaluation() {
        let h = KWiseHash::from_seed(5, 42);
        let coeffs = h.coeffs.clone();
        for x in [0u64, 1, 2, 1 << 20, P - 1] {
            // naive: sum coeffs[i] * x^(t-1-i)
            let t = coeffs.len();
            let mut expect = 0u64;
            for (i, &c) in coeffs.iter().enumerate() {
                let term = field::mul(c, field::pow(x, (t - 1 - i) as u64));
                expect = field::add(expect, term);
            }
            assert_eq!(h.hash(x), expect, "x={x}");
        }
    }

    #[test]
    fn outputs_canonical() {
        let h = KWiseHash::from_seed(8, 1);
        for x in 0..5000u64 {
            assert!(h.hash(x) < P);
        }
    }

    #[test]
    fn distinct_seeds_distinct_functions() {
        let a = KWiseHash::from_seed(4, 10);
        let b = KWiseHash::from_seed(4, 11);
        assert!((0..100u64).any(|x| a.hash(x) != b.hash(x)));
    }

    #[test]
    fn four_wise_triple_balance() {
        // Crude 3-point independence probe (implied by 4-wise): across
        // function draws, the joint low bits of h(1),h(2),h(3) should be
        // uniform over 8 cells.
        let mut cells = [0u64; 8];
        for seed in 0..32_000u64 {
            let h = KWiseHash::from_seed(4, seed);
            let idx = (h.hash(1) & 1) * 4 + (h.hash(2) & 1) * 2 + (h.hash(3) & 1);
            cells[idx as usize] += 1;
        }
        assert!(chi_square_uniform(&cells), "triple bits skewed: {cells:?}");
    }

    #[test]
    #[should_panic(expected = "independence degree")]
    fn zero_degree_panics() {
        let _ = KWiseHash::from_seed(0, 0);
    }
}
