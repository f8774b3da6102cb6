//! The compact insert-only bit variant of the 2-level hash sketch.
//!
//! §5.1 of the paper sizes synopses assuming "simple bits (instead of
//! counters) at each cell" for insert-only streams. This type is that
//! variant: the same `levels × s × 2` cell grid with one bit per cell
//! (64× smaller than `i64` counters). It supports the same property
//! checks but **cannot process deletions** — attempting one returns
//! [`EstimateError::DeletionUnsupported`], which is precisely the failure
//! mode that motivates counters.
//!
//! analyze: allow(indexing) — kernel module: level/bucket indices are bounded by the constructor-checked dimensions shared with the counter sketch

use crate::config::SketchConfig;
use crate::error::EstimateError;
use serde::{Deserialize, Serialize};
use super::coins;
use setstream_hash::{bucket_of, AnyHash, Hash64, PairwiseHashBank};
use setstream_stream::Element;

/// Insert-only 2-level hash sketch with one bit per cell.
///
/// Built from the same `(config, seed)` coins as [`super::TwoLevelSketch`],
/// so a bit sketch and a counter sketch with equal coins place every
/// element in the same cells (tested in this module).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "BitRepr", into = "BitRepr")]
pub struct BitSketch {
    config: SketchConfig,
    seed: u64,
    first: AnyHash,
    second: PairwiseHashBank,
    /// Packed bits, cell order identical to the counter sketch.
    words: Box<[u64]>,
}

impl BitSketch {
    /// Build an empty bit sketch for `(config, seed)`.
    pub fn new(config: SketchConfig, seed: u64) -> Self {
        config.validate();
        let first = coins::first_hash(&config, seed);
        let second = coins::second_bank(&config, seed);
        let n_bits = config.n_counters();
        BitSketch {
            config,
            seed,
            first,
            second,
            words: vec![0u64; n_bits.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Shape of this sketch.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Coin this sketch was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Value of cell `(level, j, bit)` — `true` if any element has hit it.
    #[inline]
    pub fn cell(&self, level: u32, j: u32, bit: usize) -> bool {
        let idx = bit_index(&self.config, level, j, bit);
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// `true` if no element has mapped to `level`.
    #[inline]
    pub fn is_level_empty(&self, level: u32) -> bool {
        !self.cell(level, 0, 0) && !self.cell(level, 0, 1)
    }

    /// First-level bucket `e` maps to.
    #[inline]
    pub fn bucket_of(&self, e: Element) -> u32 {
        bucket_of(self.first.hash(e), self.config.levels)
    }

    /// Insert one occurrence of `e`. (Multiplicity is irrelevant for bits.)
    pub fn insert(&mut self, e: Element) {
        let level = self.bucket_of(e);
        for (j, bit) in self.second.bits(e).enumerate() {
            let idx = bit_index(&self.config, level, j as u32, bit);
            self.words[idx / 64] |= 1u64 << (idx % 64);
        }
    }

    /// Apply a net change — only positive deltas are representable.
    pub fn update(&mut self, e: Element, delta: i64) -> Result<(), EstimateError> {
        if delta < 0 {
            return Err(EstimateError::DeletionUnsupported);
        }
        if delta > 0 {
            self.insert(e);
        }
        Ok(())
    }

    /// Singleton check with bit semantics: the bucket is non-empty and no
    /// second-level pair has both cells set. Same guarantees as
    /// [`super::singleton_bucket`] *for insert-only streams*.
    pub fn singleton_bucket(&self, level: u32) -> bool {
        if self.is_level_empty(level) {
            return false;
        }
        for j in 0..self.config.second_level {
            if self.cell(level, j, 0) && self.cell(level, j, 1) {
                return false;
            }
        }
        true
    }

    /// Bitwise-OR merge: the sketch of the concatenated streams.
    pub fn merge_from(&mut self, other: &BitSketch) -> Result<(), EstimateError> {
        if self.config != other.config || self.seed != other.seed {
            return Err(EstimateError::Incompatible(
                "bit sketches differ in config or seed".into(),
            ));
        }
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
        Ok(())
    }

    /// Storage in bytes of the packed cell grid — contrast with
    /// [`SketchConfig::counter_bytes`].
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Bit position of cell `(level, j, b)`: the counter sketch's cell order.
#[inline]
fn bit_index(config: &SketchConfig, level: u32, j: u32, b: usize) -> usize {
    ((level * config.second_level + j) as usize) << 1 | b
}

#[derive(Serialize, Deserialize)]
struct BitRepr {
    config: SketchConfig,
    seed: u64,
    words: Vec<u64>,
}

impl From<BitRepr> for BitSketch {
    fn from(r: BitRepr) -> Self {
        let mut s = BitSketch::new(r.config, r.seed);
        assert_eq!(r.words.len(), s.words.len(), "corrupt bit-sketch payload");
        s.words = r.words.into_boxed_slice();
        s
    }
}

impl From<BitSketch> for BitRepr {
    fn from(s: BitSketch) -> Self {
        BitRepr {
            config: s.config,
            seed: s.seed,
            words: s.words.into_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{singleton_bucket, TwoLevelSketch};

    fn config() -> SketchConfig {
        SketchConfig {
            levels: 16,
            second_level: 16,
            ..Default::default()
        }
    }

    #[test]
    fn bit_and_counter_sketch_share_cell_layout() {
        let mut bits = BitSketch::new(config(), 5);
        let mut counters = TwoLevelSketch::new(config(), 5);
        for e in 0..2_000u64 {
            bits.insert(e);
            counters.insert(e);
        }
        for level in 0..16 {
            assert_eq!(bits.bucket_of(777), counters.bucket_of(777));
            for j in 0..16 {
                for b in 0..2 {
                    assert_eq!(
                        bits.cell(level, j, b),
                        counters.cell(level, j, b) > 0,
                        "cell ({level},{j},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn singleton_check_agrees_with_counter_sketch_insert_only() {
        let mut bits = BitSketch::new(config(), 9);
        let mut counters = TwoLevelSketch::new(config(), 9);
        for e in [3u64, 17, 99, 12345] {
            bits.insert(e);
            counters.insert(e);
            for level in 0..16 {
                assert_eq!(
                    bits.singleton_bucket(level),
                    singleton_bucket(&counters, level),
                    "after {e}, level {level}"
                );
            }
        }
    }

    #[test]
    fn deletions_are_rejected() {
        let mut bits = BitSketch::new(config(), 1);
        assert_eq!(
            bits.update(5, -1),
            Err(EstimateError::DeletionUnsupported)
        );
        assert!(bits.update(5, 2).is_ok());
        assert!(bits.update(5, 0).is_ok());
    }

    #[test]
    fn merge_is_bitwise_or() {
        let mut a = BitSketch::new(config(), 2);
        let mut b = BitSketch::new(config(), 2);
        let mut both = BitSketch::new(config(), 2);
        for e in 0..100u64 {
            a.insert(e);
            both.insert(e);
        }
        for e in 50..150u64 {
            b.insert(e);
            both.insert(e);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.words, both.words);
    }

    #[test]
    fn merge_rejects_mismatched_coins() {
        let mut a = BitSketch::new(config(), 2);
        let b = BitSketch::new(config(), 3);
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn storage_is_64x_smaller_than_counters() {
        let c = config();
        let bits = BitSketch::new(c, 0);
        assert_eq!(bits.storage_bytes() * 64, c.counter_bytes());
    }
}
