//! Shared coin-derivation: both sketch variants must place elements in the
//! same cells when built from the same `(config, seed)`, so the hash
//! construction lives in one place.

use crate::config::SketchConfig;
use setstream_hash::{AnyHash, PairwiseHashBank, SeedSequence};

const FIRST_LEVEL_SALT: u64 = 0x2d35_8dcc_aa6c_78a5;
const SECOND_LEVEL_SALT: u64 = 0x8bb8_4b93_962e_acc9;

/// First-level hash for a sketch with the given coins.
pub(crate) fn first_hash(config: &SketchConfig, seed: u64) -> AnyHash {
    AnyHash::from_seed(
        config.first_family,
        SeedSequence::seed_at(seed ^ FIRST_LEVEL_SALT, 0),
    )
}

/// The bank of `s` second-level functions for a sketch with the given
/// coins.
pub(crate) fn second_bank(config: &SketchConfig, seed: u64) -> PairwiseHashBank {
    PairwiseHashBank::from_seed(seed ^ SECOND_LEVEL_SALT, config.second_level as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use setstream_hash::Hash64;

    #[test]
    fn coins_are_deterministic_and_seed_sensitive() {
        let c = SketchConfig::default();
        let a = first_hash(&c, 1);
        let b = first_hash(&c, 1);
        let other = first_hash(&c, 2);
        assert_eq!(a.hash(42), b.hash(42));
        assert_ne!(a.hash(42), other.hash(42));
        let g1 = second_bank(&c, 1);
        let g2 = second_bank(&c, 1);
        let g3 = second_bank(&c, 2);
        assert_eq!(g1.len(), 32);
        assert!(g1.coefficients().eq(g2.coefficients()));
        assert!(g1.coefficients().ne(g3.coefficients()));
    }

    #[test]
    fn first_and_second_levels_use_distinct_coins() {
        // The first-level hash must not be correlated with g_0: its low
        // bit and g_0's bit part ways on some element.
        let c = SketchConfig::default();
        let h = first_hash(&c, 3);
        let g = second_bank(&c, 3);
        assert!((0..64u64).any(|x| Some((h.hash(x) & 1) as usize) != g.bits(x).next()));
    }
}
