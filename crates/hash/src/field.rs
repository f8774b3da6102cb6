//! Arithmetic in the Mersenne-prime field GF(p) with `p = 2⁶¹ − 1`.
//!
//! Carter–Wegman universal hashing needs a prime larger than the input
//! domain; `2⁶¹ − 1` admits a branch-light reduction (fold the high bits back
//! onto the low bits) and leaves room to multiply two field elements inside a
//! `u128` without overflow, which is why it is the standard choice for
//! k-wise-independent hashing in streaming systems.

/// The field modulus, `2⁶¹ − 1` (a Mersenne prime).
pub const P: u64 = (1 << 61) - 1;

/// Reduce a 128-bit value modulo `P`.
///
/// Valid for any `x < 2¹²²`, which covers the product of two canonical field
/// elements. The result is canonical (`< P`).
#[inline]
pub fn reduce128(x: u128) -> u64 {
    // Fold the machine-word halves with weights 1 and 8 (2⁶⁴ ≡ 2³ mod P):
    // cheaper than base-2⁶¹ limb extraction, which needs cross-word
    // shifts. For x < 2¹²², hi < 2⁵⁸, so the sum stays below 2⁶².
    let lo = x as u64;
    let hi = (x >> 64) as u64;
    debug_assert!(hi < 1 << 58);
    reduce64((lo & P) + (lo >> 61) + (hi << 3))
}

/// Horner step `a·b + c` with *lazy* reduction: the result is congruent —
/// but not necessarily canonical — modulo `P`, and kept below `2⁶²`.
///
/// Accepts a partially-reduced accumulator `a < 2⁶²` (as produced by this
/// function) and canonical `b`, `c`. Skipping the conditional subtraction
/// shortens the dependent chain that dominates polynomial evaluation;
/// canonicalize the final accumulator with [`reduce64`] to recover exactly
/// the value of the canonical-every-step chain.
#[inline]
pub fn mul_add_lazy(a: u64, b: u64, c: u64) -> u64 {
    debug_assert!(a < 1 << 62 && b < P && c < P);
    let t = a as u128 * b as u128 + c as u128;
    // Four limbs of weight 1, 1, 8, 1: lo = l₀ + l₁·2⁶¹ with 2⁶¹ ≡ 1, and
    // hi·2⁶⁴ = (h₀ + h₁·2⁵⁸)·2⁶⁴ ≡ 8·h₀ + h₁ (2⁶⁴ ≡ 8, 2¹²² ≡ 1). Each
    // term is below 2⁶¹, so the sum stays below 2⁶² for any `a < 2⁶⁴`:
    // the partial reduction is self-stabilizing.
    let lo = t as u64;
    let hi = (t >> 64) as u64;
    (lo & P) + (lo >> 61) + ((hi << 3) & P) + (hi >> 58)
}

/// Reduce a `u64` modulo `P` to a canonical representative.
#[inline]
pub fn reduce64(x: u64) -> u64 {
    let folded = (x & P) + (x >> 61);
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// Field addition of canonical elements.
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let s = a + b; // < 2^62, no overflow
    if s >= P {
        s - P
    } else {
        s
    }
}

/// Field multiplication of canonical elements.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    reduce128(a as u128 * b as u128)
}

/// Fused multiply-add `a·b + c` in the field; the workhorse of Horner
/// polynomial evaluation.
#[inline]
pub fn mul_add(a: u64, b: u64, c: u64) -> u64 {
    debug_assert!(a < P && b < P && c < P);
    reduce128(a as u128 * b as u128 + c as u128)
}

/// Modular exponentiation `base^exp mod P` (square-and-multiply).
pub fn pow(base: u64, mut exp: u64) -> u64 {
    let mut base = reduce64(base);
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_identities() {
        assert_eq!(reduce128(0), 0);
        assert_eq!(reduce128(P as u128), 0);
        assert_eq!(reduce128((P as u128) + 1), 1);
        assert_eq!(reduce128(2 * (P as u128)), 0);
        assert_eq!(reduce64(P), 0);
        assert_eq!(reduce64(P - 1), P - 1);
        assert_eq!(reduce64(u64::MAX), u64::MAX % P);
    }

    #[test]
    fn reduce_matches_naive_modulo() {
        // Stress the folding logic against u128 `%` on structured values.
        for i in 0..2000u128 {
            let x = i * 0x9e37_79b9_7f4a_7c15u128 + i * i;
            assert_eq!(reduce128(x), (x % P as u128) as u64, "x={x}");
        }
        // Extremes of the valid input range.
        let max_prod = (P as u128 - 1) * (P as u128 - 1);
        assert_eq!(reduce128(max_prod), (max_prod % P as u128) as u64);
    }

    #[test]
    fn lazy_horner_matches_canonical_horner() {
        // A canonical chain and a lazy chain over the same coefficients
        // must produce the same final value once canonicalized.
        for seed in 0..300u64 {
            let x = reduce64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let coeffs = [reduce64(seed ^ 0xabcd), reduce64(!seed), 17u64, P - 1, 0];
            let mut canon = 0u64;
            let mut lazy = 0u64;
            for &c in &coeffs {
                canon = mul_add(canon, x, c);
                lazy = mul_add_lazy(lazy, x, c);
                assert!(lazy < 1 << 62);
            }
            assert_eq!(reduce64(lazy), canon, "seed={seed}");
        }
    }

    #[test]
    fn add_wraps_correctly() {
        assert_eq!(add(P - 1, 1), 0);
        assert_eq!(add(P - 1, 2), 1);
        assert_eq!(add(0, 0), 0);
        assert_eq!(add(123, 456), 579);
    }

    #[test]
    fn mul_small_and_inverse_like_cases() {
        assert_eq!(mul(0, 12345), 0);
        assert_eq!(mul(1, 12345), 12345);
        assert_eq!(mul(2, P - 1), P - 2); // 2(p-1) = 2p-2 ≡ p-2
        // Fermat: a^(p-1) ≡ 1 for a ≠ 0.
        for a in [2u64, 3, 65537, P - 2] {
            assert_eq!(pow(a, P - 1), 1, "a={a}");
        }
    }

    #[test]
    fn mul_add_consistency() {
        for a in [0u64, 1, 7, P - 1] {
            for b in [0u64, 5, P - 3] {
                for c in [0u64, 9, P - 1] {
                    assert_eq!(mul_add(a, b, c), add(mul(a, b), c));
                }
            }
        }
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(pow(0, 0), 1); // conventional 0^0 = 1
        assert_eq!(pow(5, 0), 1);
        assert_eq!(pow(5, 1), 5);
        assert_eq!(pow(5, 3), 125);
        assert_eq!(pow(P, 10), 0); // base ≡ 0
    }
}
