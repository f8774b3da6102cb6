//! The compact insert-only bit variant of the 2-level hash sketch.
//!
//! §5.1 of the paper sizes synopses assuming "simple bits (instead of
//! counters) at each cell" for insert-only streams. This type is that
//! variant: the same `levels × s × 2` cell grid with one bit per cell
//! (64× smaller than `i64` counters). Its [`Occupancy`] view reads the
//! packed bits, so the property checks and estimators run on it
//! unchanged, but it **cannot process deletions** — attempting one returns
//! [`EstimateError::DeletionUnsupported`], which is precisely the failure
//! mode that motivates counters.
//!
//! analyze: allow(indexing) — kernel module: level/bucket indices are bounded by the constructor-checked dimensions shared with the counter sketch

use crate::config::SketchConfig;
use crate::error::EstimateError;
use serde::{Deserialize, Serialize};
use super::checks::Occupancy;
use super::coins;
use super::two_level::{sign_width, EVEN_BITS};
use setstream_hash::{bucket_of, AnyHash, Hash64, PairwiseHashBank};
use setstream_stream::Element;

/// Insert-only 2-level hash sketch with one bit per cell.
///
/// Built from the same `(config, seed)` coins as [`super::TwoLevelSketch`],
/// so a bit sketch and a counter sketch with equal coins place every
/// element in the same cells (tested in this module). Decoding refuses a
/// payload with an impossible shape or the wrong number of words.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "BitRepr", into = "BitRepr")]
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

/// The levels of `0..levels` for which `test` holds, as a mask.
fn levels_where(levels: u32, test: impl Fn(u32) -> bool) -> u64 {
    (0..levels).filter(|&l| test(l)).fold(0, |m, l| m | 1 << l)
}

/// Reads the packed grid: a level's `2s` bits start at bit `2s·level`,
/// so its sign words are that window cut into 64-bit words.
impl Occupancy for BitSketch {
    fn occupied_levels(&self) -> u64 {
        levels_where(self.config.levels, |l| !self.is_level_empty(l))
    }

    fn multi_levels(&self) -> u64 {
        levels_where(self.config.levels, |l| {
            (0..self.sign_width()).any(|w| {
                let x = self.sign_word(l, w);
                x & x >> 1 & EVEN_BITS != 0
            })
        })
    }

    fn sign_width(&self) -> usize {
        sign_width(&self.config)
    }

    fn sign_word(&self, level: u32, w: usize) -> u64 {
        let row = 2 * self.config.second_level as usize;
        let Some(len) = row.checked_sub(64 * w).filter(|&len| len > 0) else {
            return 0;
        };
        let start = bit_index(&self.config, level, 0, 0) + 64 * w;
        let (word, shift) = (start / 64, start % 64);
        let low = self.words.get(word).map_or(0, |&x| x >> shift);
        let high = match shift {
            0 => 0,
            _ => self.words.get(word + 1).map_or(0, |&x| x << (64 - shift)),
        };
        (low | high) & (u64::MAX >> 64usize.saturating_sub(len))
    }
}

impl TryFrom<BitRepr> for BitSketch {
    type Error = EstimateError;

    fn try_from(r: BitRepr) -> Result<Self, EstimateError> {
        r.config.check().map_err(EstimateError::Corrupt)?;
        let mut s = BitSketch::new(r.config, r.seed);
        if r.words.len() != s.words.len() {
            return Err(EstimateError::Corrupt(format!(
                "bit sketch holds {} words, its shape needs {}",
                r.words.len(),
                s.words.len()
            )));
        }
        s.words = r.words.into_boxed_slice();
        Ok(s)
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
    use crate::sketch::{singleton_bucket, singleton_levels, TwoLevelSketch};
    use setstream_hash::HashFamily;

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
                    singleton_bucket(&bits, level),
                    singleton_bucket(&counters, level),
                    "after {e}, level {level}"
                );
            }
        }
    }

    #[test]
    fn occupancy_view_matches_counter_summary() {
        // Rows of 2s bits that end mid-word, fill words exactly, or
        // straddle two or more.
        for s in [1u32, 2, 16, 31, 32, 33, 64, 100] {
            let config = SketchConfig {
                levels: 16,
                second_level: s,
                first_family: HashFamily::KWise(8),
            };
            let mut bits = BitSketch::new(config, 17);
            let mut counters = TwoLevelSketch::new(config, 17);
            // A lone element on an empty level gives the view a singleton
            // to show beside the crowded low levels.
            let lone = (10_000u64..)
                .find(|&e| counters.is_level_empty(counters.bucket_of(e)))
                .expect("some level stays empty");
            for e in (0..2_000u64).chain([lone]) {
                bits.insert(e);
                counters.insert(e);
            }
            assert_eq!(bits.occupied_levels(), counters.occupied_levels(), "s={s}");
            assert_eq!(bits.multi_levels(), counters.multi_levels(), "s={s}");
            assert_ne!(counters.multi_levels(), 0, "s={s}: some level must be a multi");
            assert_ne!(singleton_levels(&counters), 0, "s={s}: some level must be a singleton");
            assert_eq!(bits.sign_width(), counters.sign_words(0).len(), "s={s}");
            for level in 0..config.levels {
                let words: Vec<u64> =
                    (0..bits.sign_width()).map(|w| bits.sign_word(level, w)).collect();
                assert_eq!(words, counters.sign_words(level), "s={s}, level {level}");
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
