//! Hash-function families for streaming synopses.
//!
//! The 2-level hash sketches of Ganguly, Garofalakis & Rastogi (SIGMOD 2003)
//! need two kinds of randomizing hash functions:
//!
//! * **first-level** functions `h : [M] → [M^k]` that spread elements over a
//!   logarithmic range of buckets via the position of the least-significant
//!   set bit (`LSB(h(e))`). The paper's analysis (§3.6) shows that
//!   `t = Θ(log 1/ε)`-wise independence suffices; this crate provides
//!   pairwise, arbitrary `t`-wise (Carter–Wegman polynomials over the
//!   Mersenne field GF(2⁶¹−1)), tabulation, and 64-bit-mixer families so the
//!   independence assumption can be ablated.
//! * **second-level** functions `g : [M] → {0,1}` for which *pairwise*
//!   independence is enough (Lemma 3.1). [`PairwiseHashBank`] draws them
//!   from the GF(2)-affine family `g(x) = parity(a & x) ⊕ b` (Carter and
//!   Wegman's H₃), whose bit costs one AND and one POPCNT.
//!
//! Everything here is implemented from scratch — no external hashing crates —
//! and every family is reconstructible from a single `u64` seed, which is
//! exactly the "stored coins" required by the distributed-streams deployment
//! model: sites that share a seed share the hash functions and therefore
//! produce mergeable synopses.
//!
//! # Example
//!
//! ```
//! use setstream_hash::{Hash64, KWiseHash, SeedSequence};
//!
//! let mut seeds = SeedSequence::new(42);
//! let h = KWiseHash::from_seed(8, seeds.next_seed()); // 8-wise independent
//! let v = h.hash(12345);
//! assert_eq!(v, h.hash(12345)); // deterministic
//! ```

#![warn(missing_docs)]
// `unsafe` is denied everywhere except the SIMD dispatch module, which
// needs it to call `#[target_feature]` kernels behind a cached CPU check.
#![deny(unsafe_code)]

pub mod batch;
pub mod bit;
pub mod clock;
pub mod crc;
pub mod field;
pub mod kwise;
pub mod mix;
pub mod pairwise;
pub mod seed;
pub mod simd;
pub mod stats;
pub mod tabulation;

pub use batch::{hash_many, PairwiseHashBank};
pub use simd::{backend, positive_bits, prefetch, Backend, SlicedChunk, CHUNK};
pub use bit::{bucket_of, lsb64};
pub use crc::crc32;
pub use kwise::KWiseHash;
pub use mix::{splitmix64, MixHash};
pub use pairwise::PairwiseHash;
pub use seed::SeedSequence;
pub use tabulation::TabulationHash;

use serde::{Deserialize, Serialize};

/// A deterministic, seeded hash function from `u64` to `u64`.
///
/// Implementations promise that `hash` is a pure function of `(self, x)`:
/// two instances built from the same seed behave identically, which is the
/// property that makes sketches built on different sites mergeable.
pub trait Hash64 {
    /// Hash `x` to a 64-bit value.
    fn hash(&self, x: u64) -> u64;

    /// Hash a slice of inputs: `out[i] = hash(xs[i])`.
    ///
    /// The provided implementation is a plain loop; enum wrappers override
    /// it to dispatch once per slice instead of once per element.
    ///
    /// # Panics
    /// Panics if `out.len() != xs.len()`.
    #[inline]
    fn hash_slice(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "output sized to input");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.hash(x);
        }
    }
}

/// Identifies one of the available first-level hash families.
///
/// Used by the independence ablation (`ablation_independence`) and by sketch
/// (de)serialization: a sketch stores `(family, seed)` rather than the hash
/// function itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HashFamily {
    /// Pairwise-independent linear hash `(a·x + b) mod p`.
    Pairwise,
    /// `t`-wise independent polynomial hash of the given degree `t ≥ 2`.
    KWise(u32),
    /// Simple tabulation hashing (3-wise independent, near-uniform in
    /// practice).
    Tabulation,
    /// SplitMix64-style finalizer; models the paper's "ideal" fully random
    /// mapping.
    Mix,
}

/// A hash function from any of the supported families, dispatched by enum so
/// the hot update path avoids virtual calls.
#[derive(Debug, Clone)]
pub enum AnyHash {
    /// See [`PairwiseHash`].
    Pairwise(PairwiseHash),
    /// See [`KWiseHash`].
    KWise(KWiseHash),
    /// See [`TabulationHash`]. Boxed: the tables are 16 KiB.
    Tabulation(Box<TabulationHash>),
    /// See [`MixHash`].
    Mix(MixHash),
}

impl AnyHash {
    /// Instantiate `family` deterministically from `seed`.
    pub fn from_seed(family: HashFamily, seed: u64) -> Self {
        match family {
            HashFamily::Pairwise => AnyHash::Pairwise(PairwiseHash::from_seed(seed)),
            HashFamily::KWise(t) => AnyHash::KWise(KWiseHash::from_seed(t as usize, seed)),
            HashFamily::Tabulation => {
                AnyHash::Tabulation(Box::new(TabulationHash::from_seed(seed)))
            }
            HashFamily::Mix => AnyHash::Mix(MixHash::from_seed(seed)),
        }
    }

    /// The family this function was drawn from.
    pub fn family(&self) -> HashFamily {
        match self {
            AnyHash::Pairwise(_) => HashFamily::Pairwise,
            AnyHash::KWise(h) => HashFamily::KWise(h.degree() as u32),
            AnyHash::Tabulation(_) => HashFamily::Tabulation,
            AnyHash::Mix(_) => HashFamily::Mix,
        }
    }
}

impl Hash64 for AnyHash {
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        match self {
            AnyHash::Pairwise(h) => h.hash(x),
            AnyHash::KWise(h) => h.hash(x),
            AnyHash::Tabulation(h) => h.hash(x),
            AnyHash::Mix(h) => h.hash(x),
        }
    }

    #[inline]
    fn hash_slice(&self, xs: &[u64], out: &mut [u64]) {
        // One variant dispatch per slice; the inner loops monomorphize.
        match self {
            AnyHash::Pairwise(h) => h.hash_slice(xs, out),
            AnyHash::KWise(h) => h.hash_slice(xs, out),
            AnyHash::Tabulation(h) => h.hash_slice(xs, out),
            AnyHash::Mix(h) => h.hash_slice(xs, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_hash_matches_underlying_family() {
        let seed = 0xfeed_beef;
        let any = AnyHash::from_seed(HashFamily::Pairwise, seed);
        let direct = PairwiseHash::from_seed(seed);
        for x in [0u64, 1, 17, u32::MAX as u64, u64::MAX / 3] {
            assert_eq!(any.hash(x), direct.hash(x));
        }
        assert_eq!(any.family(), HashFamily::Pairwise);
    }

    #[test]
    fn all_families_construct_and_hash() {
        for family in [
            HashFamily::Pairwise,
            HashFamily::KWise(2),
            HashFamily::KWise(8),
            HashFamily::Tabulation,
            HashFamily::Mix,
        ] {
            let h = AnyHash::from_seed(family, 7);
            // Determinism and not-obviously-degenerate output.
            assert_eq!(h.hash(123), h.hash(123));
            let distinct: std::collections::HashSet<u64> =
                (0..64u64).map(|x| h.hash(x)).collect();
            assert!(distinct.len() > 60, "family {family:?} collides too much");
            assert_eq!(h.family(), family);
        }
    }

    #[test]
    fn hash_bit_is_zero_or_one() {
        // The low output bit takes exactly the values 0 and 1.
        let h = AnyHash::from_seed(HashFamily::KWise(4), 99);
        let bits: std::collections::HashSet<u64> = (0..1000).map(|x| h.hash(x) & 1).collect();
        assert_eq!(bits, [0, 1].into());
    }
}
