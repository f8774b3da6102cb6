//! The counter-based 2-level hash sketch.
//!
//! analyze: allow(indexing) — kernel module: every bucket/counter index is derived from the constructor-checked (levels, second_level) dimensions or reduced mod the table size before use

use crate::config::SketchConfig;
use crate::error::EstimateError;
use serde::de::{self, DeserializeSeed, SeqAccess, Visitor};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use super::checks::Occupancy;
use super::coins;
use setstream_hash::{
    bucket_of, hash_many, positive_bits, prefetch, AnyHash, Hash64, PairwiseHashBank,
    SlicedChunk, CHUNK,
};
use setstream_stream::{Element, Update};

/// The `b = 0` bit of every cell pair in a sign word (bits `2j`, `2j+1`
/// hold function `j`'s two cells, so pairs never straddle a word).
pub(crate) const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

/// The set bits of a level mask, in ascending order.
pub(crate) fn levels_of(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let level = (mask != 0).then(|| mask.trailing_zeros())?;
        mask &= mask - 1;
        Some(level)
    })
}

/// One 2-level hash sketch: conceptually a `levels × s × 2` array of
/// element counters (Figure 3 of the paper).
///
/// Maintenance per update `⟨e, ±v⟩` (§3.1): for each second-level function
/// `gⱼ`, add `±v` to `X[LSB(h(e)), j, gⱼ(e)]`. Since cell updates commute,
/// the sketch is *identical* to one built from any reordering of the
/// updates — and deletions cancel insertions exactly, so deleted items
/// leave no trace.
///
/// Construction is deterministic in `(config, seed)`: the first-level hash
/// and all `s` second-level hashes are derived from `seed` ("stored
/// coins"), so two sketches with equal `(config, seed)` are comparable and
/// mergeable even when built on different machines.
///
/// The serde form is `config | seed | counter block | total`: the hash
/// functions are rebuilt from the coins on decode, and the counters travel
/// as a sparse *counter block* ([`Self::counter_block`]) holding only the
/// levels that have a nonzero cell.
///
/// Beside the counters every sketch keeps an **occupancy summary**: the
/// only facts about a bucket the estimators use. Per level `ℓ` it holds
/// whether the emptiness probe fires ([`Self::occupied_levels`]), whether
/// some `gⱼ` has both cells positive ([`Self::multi_levels`]), whether
/// any cell is nonzero ([`Self::row_mask`]), and which cells are positive
/// ([`Self::sign_words`]). Every write refreshes the rows it touched, so
/// the summary always equals what the cells say; it is derived state and
/// never serialized.
#[derive(Debug, Clone)]
pub struct TwoLevelSketch {
    config: SketchConfig,
    seed: u64,
    first: AnyHash,
    /// The `s` second-level functions, coefficients stored contiguously
    /// (structure-of-arrays), applied by the bank's function-lane and
    /// bit-sliced chunk kernels.
    second: PairwiseHashBank,
    /// Row-major `[level][j][bit]` counters.
    counters: Box<[i64]>,
    /// Total net count over all cells of one second-level function —
    /// maintained for O(1) emptiness checks.
    total: i64,
    /// Bit `ℓ`: `X[ℓ,0,0] + X[ℓ,0,1] ≠ 0` (wrapping).
    occupied: u64,
    /// Bit `ℓ`: some `j` has `X[ℓ,j,0] > 0` and `X[ℓ,j,1] > 0`.
    multi: u64,
    /// Bit `ℓ`: level `ℓ` holds a nonzero cell.
    rows: u64,
    /// `⌈s/32⌉` words per level, level-major: bit `2j + b` of a level's
    /// words is set iff `X[ℓ,j,b] > 0`.
    signs: Box<[u64]>,
}

impl TwoLevelSketch {
    /// Build an empty sketch for `(config, seed)`.
    ///
    /// # Panics
    /// Panics if `config` is invalid (see [`SketchConfig::validate`]).
    pub fn new(config: SketchConfig, seed: u64) -> Self {
        config.validate();
        let first = coins::first_hash(&config, seed);
        let second = coins::second_bank(&config, seed);
        let sign_words = config.levels as usize * sign_width(&config);
        TwoLevelSketch {
            config,
            seed,
            first,
            second,
            counters: vec![0i64; config.n_counters()].into_boxed_slice(),
            total: 0,
            occupied: 0,
            multi: 0,
            rows: 0,
            signs: vec![0u64; sign_words].into_boxed_slice(),
        }
    }

    /// This sketch's shape.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// The coin this sketch was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of first-level buckets.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.config.levels
    }

    /// Number of second-level functions `s`.
    #[inline]
    pub fn second_level(&self) -> u32 {
        self.config.second_level
    }

    /// Start of the `2·s` contiguous counters of first-level bucket
    /// `level` — the single definition of the row-major layout; every
    /// counter access (scalar, batch, serde validation) goes through this
    /// or [`Self::cell_index`].
    #[inline]
    fn row_base(&self, level: u32) -> usize {
        debug_assert!(level < self.config.levels);
        (level * self.config.second_level) as usize * 2
    }

    #[inline]
    fn cell_index(&self, level: u32, j: u32, b: usize) -> usize {
        debug_assert!(j < self.config.second_level);
        debug_assert!(b < 2);
        self.row_base(level) + ((j as usize) << 1 | b)
    }

    /// Counter `X[level, j, bit]` (the paper indexes `j` from 1; we use 0).
    #[inline]
    pub fn cell(&self, level: u32, j: u32, bit: usize) -> i64 {
        self.counters[self.cell_index(level, j, bit)]
    }

    /// Net number of elements (with multiplicity) in first-level bucket
    /// `level` — the paper's emptiness probe `X[i,1,0] + X[i,1,1]`
    /// (wrapping, so hostile cells cannot make it panic).
    #[inline]
    pub fn level_total(&self, level: u32) -> i64 {
        self.cell(level, 0, 0).wrapping_add(self.cell(level, 0, 1))
    }

    /// `true` if no element (net) maps to `level`.
    #[inline]
    pub fn is_level_empty(&self, level: u32) -> bool {
        self.occupied >> level & 1 == 0
    }

    /// The levels whose emptiness probe fires ([`Self::level_total`]
    /// `≠ 0`), bit `ℓ` for level `ℓ`.
    #[inline]
    pub fn occupied_levels(&self) -> u64 {
        self.occupied
    }

    /// The levels where some second-level function has both cells
    /// positive, so the bucket holds at least two distinct elements.
    #[inline]
    pub fn multi_levels(&self) -> u64 {
        self.multi
    }

    /// The levels holding at least one nonzero cell — the row mask of
    /// [`Self::counter_block`].
    #[inline]
    pub fn row_mask(&self) -> u64 {
        self.rows
    }

    /// The `⌈s/32⌉` sign words of `level`: bit `2j + b` of the
    /// little-endian concatenation is set iff `X[level, j, b] > 0`.
    #[inline]
    pub fn sign_words(&self, level: u32) -> &[u64] {
        let width = sign_width(&self.config);
        &self.signs[level as usize * width..][..width]
    }

    /// Recompute the summary of every level in `levels` from its cells.
    fn refresh_rows(&mut self, levels: u64) {
        for level in levels_of(levels) {
            let base = self.row_base(level);
            let row = &self.counters[base..base + 2 * self.config.second_level as usize];
            let width = sign_width(&self.config);
            let words = &mut self.signs[level as usize * width..][..width];
            let nonzero = positive_bits(row, words);
            self.set_multi(level);
            self.set_level(level, nonzero);
        }
    }

    /// Set `level`'s `multi` bit from its sign words.
    #[inline]
    fn set_multi(&mut self, level: u32) {
        let multi = self
            .sign_words(level)
            .iter()
            .any(|&w| w & w >> 1 & EVEN_BITS != 0);
        self.multi = self.multi & !(1 << level) | u64::from(multi) << level;
    }

    /// Set `level`'s `occupied` bit from its emptiness probe and its row
    /// bit to `nonzero`.
    #[inline]
    fn set_level(&mut self, level: u32, nonzero: bool) {
        let occupied = self.level_total(level) != 0;
        let keep = !(1u64 << level);
        self.occupied = self.occupied & keep | u64::from(occupied) << level;
        self.rows = self.rows & keep | u64::from(nonzero) << level;
    }

    /// `true` if the whole sketch is (net) empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total net count over the summarized multi-set.
    pub fn total_count(&self) -> i64 {
        self.total
    }

    /// First-level bucket element `e` maps to.
    #[inline]
    pub fn bucket_of(&self, e: Element) -> u32 {
        bucket_of(self.first.hash(e), self.config.levels)
    }

    /// Apply a net frequency change of `delta` to element `e`.
    ///
    /// One first-level hash, then the bank's function-lane kernel (all
    /// `s` bits and counter bumps, lane-parallel across the functions) —
    /// `O(s)` with no allocation, and the same kernel the batch path uses
    /// for updates on sparsely filled levels, so the cells are
    /// bit-for-bit those of routing the update through
    /// [`Self::update_batch`]. The written row's summary is then
    /// refreshed.
    pub fn update(&mut self, e: Element, delta: i64) {
        let level = self.bucket_of(e);
        let base = self.row_base(level);
        let s = self.config.second_level as usize;
        // Fetch the row's sign words now, so that a cache miss on them
        // overlaps the kernel instead of stalling the refresh's store.
        prefetch(&self.sign_words(level)[0]);
        let row = &mut self.counters[base..base + 2 * s];
        self.second.accumulate(e, delta, row);
        self.total = self.total.wrapping_add(delta);
        self.refresh_rows(1 << level);
    }

    /// Apply a slice of updates (stream ids are ignored, as in
    /// [`Self::process`]).
    ///
    /// Same cell arithmetic as [`Self::update`], restructured for
    /// throughput: each chunk of [`CHUNK`] updates is bit-sliced into a
    /// [`SlicedChunk`] on the stack and applied by the bank's chunk kernel
    /// ([`PairwiseHashBank::apply_chunk`]), whose work per level follows
    /// how many of the chunk's updates the level holds, and the summary
    /// of every touched row is refreshed once at the end. Because cell
    /// increments commute, the counters are bit-for-bit identical to
    /// applying the updates one at a time, in any order. Batches under 32
    /// updates go one at a time: slicing them costs more than it saves
    /// for a single copy.
    ///
    /// The whole path is allocation-free.
    pub fn update_batch(&mut self, updates: &[Update]) {
        if updates.len() < 32 {
            for u in updates {
                self.update(u.element, u.delta);
            }
            return;
        }
        let mut chunk = SlicedChunk::EMPTY;
        let mut hashes = [0u64; CHUNK];
        let mut touched = 0u64;
        for part in updates.chunks(CHUNK) {
            chunk.load(part.iter().map(|u| (u.element, u.delta)));
            touched |= self.apply_chunk(&chunk, &mut hashes);
        }
        self.refresh_rows(touched);
    }

    /// Apply already-sliced chunks — the form
    /// [`crate::SketchVector::update_batch`] shares across every copy —
    /// then refresh the summary of each touched row once. `hashes` is
    /// scratch for the chunks' first-level hashes, which the caller
    /// allocates once for all its copies. Bit-for-bit identical to
    /// [`Self::update_batch`] over the same updates.
    pub(crate) fn apply_chunks(&mut self, chunks: &[SlicedChunk], hashes: &mut [u64; CHUNK]) {
        let mut touched = 0u64;
        for chunk in chunks {
            touched |= self.apply_chunk(chunk, hashes);
        }
        self.refresh_rows(touched);
    }

    /// One chunk against this copy: the first-level hashes of its
    /// elements evaluated together into the first `chunk.len()` words of
    /// `hashes` ([`hash_many`], exposing instruction-level parallelism
    /// across the latency-bound Horner chains), then the bank's chunk
    /// kernel ([`PairwiseHashBank::apply_chunk`]) writes every row the
    /// chunk lands on; it reads no hash past the chunk's end, so the
    /// scratch is never cleared. The chunk's net delta is folded into
    /// `total` once. Returns the levels it wrote, whose summary the
    /// caller refreshes once the whole batch is in.
    fn apply_chunk(&mut self, chunk: &SlicedChunk, hashes: &mut [u64; CHUNK]) -> u64 {
        hash_many(&self.first, chunk.elems(), &mut hashes[..chunk.len()]);
        let touched =
            self.second
                .apply_chunk(chunk, hashes, self.config.levels, &mut self.counters);
        self.total = self.total.wrapping_add(chunk.delta_sum());
        touched
    }

    /// Insert one copy of `e`.
    #[inline]
    pub fn insert(&mut self, e: Element) {
        self.update(e, 1);
    }

    /// Delete one copy of `e`.
    #[inline]
    pub fn delete(&mut self, e: Element) {
        self.update(e, -1);
    }

    /// Route an update tuple into the sketch (the stream id is the
    /// caller's concern — a sketch summarizes a single multi-set).
    #[inline]
    pub fn process(&mut self, u: &Update) {
        self.update(u.element, u.delta);
    }

    /// `true` if `other` was built with the same coins and shape, i.e. the
    /// two synopses can be compared cell-by-cell or merged.
    pub fn compatible(&self, other: &TwoLevelSketch) -> bool {
        self.config == other.config && self.seed == other.seed
    }

    /// Ensure compatibility, with a descriptive error otherwise.
    pub fn check_compatible(&self, other: &TwoLevelSketch) -> Result<(), EstimateError> {
        if self.config != other.config {
            return Err(EstimateError::Incompatible(format!(
                "config mismatch: {:?} vs {:?}",
                self.config, other.config
            )));
        }
        if self.seed != other.seed {
            return Err(EstimateError::Incompatible(format!(
                "seed mismatch: {:#x} vs {:#x}",
                self.seed, other.seed
            )));
        }
        Ok(())
    }

    /// Merge `other` into `self` cell-by-cell.
    ///
    /// Because the sketch transform is linear in the update stream, the
    /// result is exactly the sketch of the concatenated streams — the
    /// operation that makes the distributed stored-coins model work.
    pub fn merge_from(&mut self, other: &TwoLevelSketch) -> Result<(), EstimateError> {
        self.combine(other, i64::wrapping_add)
    }

    /// Non-destructive merge.
    pub fn merged(&self, other: &TwoLevelSketch) -> Result<TwoLevelSketch, EstimateError> {
        let mut out = self.clone();
        out.merge_from(other)?;
        Ok(out)
    }

    /// Subtract `other` from `self` cell-by-cell — the inverse of
    /// [`Self::merge_from`]. Linearity makes the result exactly the
    /// sketch of the updates in `self`'s stream that are *not* in
    /// `other`'s, which is what epoch-delta shipping needs: a delta frame
    /// carries `current − last_acknowledged`.
    pub fn subtract_from(&mut self, other: &TwoLevelSketch) -> Result<(), EstimateError> {
        self.combine(other, i64::wrapping_sub)
    }

    /// Fold `other`'s cells into `self`'s with `op`, row-sparse: only the
    /// rows `other` holds nonzero cells in can change, so only those are
    /// visited and refreshed. Wrapping arithmetic: cells decoded from
    /// hostile bytes must not be able to trigger overflow panics.
    fn combine(
        &mut self,
        other: &TwoLevelSketch,
        op: fn(i64, i64) -> i64,
    ) -> Result<(), EstimateError> {
        self.check_compatible(other)?;
        let width = 2 * self.config.second_level as usize;
        for level in levels_of(other.rows) {
            let base = self.row_base(level);
            let theirs = &other.counters[base..base + width];
            for (c, &o) in self.counters[base..base + width].iter_mut().zip(theirs) {
                *c = op(*c, o);
            }
        }
        self.total = op(self.total, other.total);
        self.refresh_rows(other.rows);
        Ok(())
    }

    /// `true` if every cell is exactly zero. Stricter than
    /// [`Self::is_empty`], which only checks the net total: a sketch of
    /// `+x, -y` has total 0 but non-null cells.
    pub fn is_null(&self) -> bool {
        self.total == 0 && self.rows == 0
    }

    /// Raw counter slice (row-major `[level][j][bit]`); used by the
    /// property checks.
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// The counters as a sparse **counter block** — the form every
    /// serialized sketch (delta frames, snapshots, checkpoints) carries.
    ///
    /// ```text
    /// row_mask:u64 (LE) | row … row
    /// ```
    ///
    /// Bit `ℓ` of `row_mask` is set iff level `ℓ` holds a nonzero cell;
    /// each set level, in ascending order, follows as its `2·s` cells
    /// (`[j][bit]` order) encoded as zigzag LEB128 varints. The
    /// first-level hash is geometric, so only about `log₂ n` of the
    /// levels are ever occupied: an epoch delta is a few hundred bytes
    /// per sketch instead of `levels · s · 16`.
    pub fn counter_block(&self) -> Vec<u8> {
        let width = 2 * self.config.second_level as usize;
        let mut out = Vec::with_capacity(8 + self.rows.count_ones() as usize * width * 2);
        out.extend_from_slice(&self.rows.to_le_bytes());
        for level in levels_of(self.rows) {
            let base = self.row_base(level);
            for &cell in &self.counters[base..base + width] {
                write_varint(&mut out, zigzag(cell));
            }
        }
        out
    }

    /// Rebuild a sketch from its coins, a [`Self::counter_block`] and the
    /// stored total, rejecting inconsistent input instead of panicking —
    /// a corrupt network frame must surface as a decode error, not kill
    /// the coordinator. Every rejection is [`EstimateError::Corrupt`]:
    ///
    /// * an impossible shape ([`SketchConfig::check`]) — refused before
    ///   anything is allocated;
    /// * a block shorter than its 8-byte row mask, or a mask bit at or
    ///   beyond `levels`;
    /// * a truncated varint, one longer than 10 bytes, one overflowing 64
    ///   bits, or an overlong one (a zero final group);
    /// * a level flagged in the mask whose cells are all zero, or bytes
    ///   left after the last row;
    /// * a `total` that differs from the sum of the `j = 0` cells.
    ///
    /// The checks make the encoding canonical: a block this accepts is
    /// exactly the [`Self::counter_block`] of the sketch it returns.
    pub fn from_counter_block(
        config: SketchConfig,
        seed: u64,
        block: &[u8],
        total: i64,
    ) -> Result<Self, EstimateError> {
        config.check().map_err(EstimateError::Corrupt)?;
        let (mask, mut input) = match block.get(..8).map(<[u8; 8]>::try_from) {
            Some(Ok(head)) => (u64::from_le_bytes(head), block.get(8..).unwrap_or_default()),
            _ => {
                return Err(EstimateError::Corrupt(format!(
                    "counter block of {} bytes has no row mask",
                    block.len()
                )))
            }
        };
        if config.levels < 64 && mask >> config.levels != 0 {
            return Err(EstimateError::Corrupt(format!(
                "row mask {mask:#x} flags a level beyond the {} levels",
                config.levels
            )));
        }
        let mut sketch = TwoLevelSketch::new(config, seed);
        let width = 2 * config.second_level as usize;
        for (level, row) in sketch.counters.chunks_exact_mut(width).enumerate() {
            if mask >> level & 1 == 0 {
                continue;
            }
            let mut occupied = false;
            for cell in row {
                let raw = read_varint(&mut input)?;
                occupied |= raw != 0;
                *cell = unzigzag(raw);
            }
            if !occupied {
                return Err(EstimateError::Corrupt(format!(
                    "row mask flags level {level} but its cells are all zero"
                )));
            }
        }
        if !input.is_empty() {
            return Err(EstimateError::Corrupt(format!(
                "{} trailing bytes after the counter block's last row",
                input.len()
            )));
        }
        // Every update adds its delta to exactly one `j = 0` cell, so the
        // j = 0 cells must sum to the stored total (wrapping arithmetic:
        // adversarial payloads must not be able to trigger overflow
        // panics either).
        let j0_sum = sketch
            .counters
            .chunks_exact(width)
            .map(|row| row[0].wrapping_add(row[1]))
            .fold(0i64, i64::wrapping_add);
        if j0_sum != total {
            return Err(EstimateError::Corrupt(format!(
                "total {total} does not match counters (j=0 cells sum to {j0_sum})"
            )));
        }
        sketch.total = total;
        sketch.refresh_rows(mask);
        Ok(sketch)
    }
}

impl Occupancy for TwoLevelSketch {
    #[inline]
    fn occupied_levels(&self) -> u64 {
        self.occupied
    }

    #[inline]
    fn multi_levels(&self) -> u64 {
        self.multi
    }

    #[inline]
    fn sign_width(&self) -> usize {
        sign_width(&self.config)
    }

    #[inline]
    fn sign_word(&self, level: u32, w: usize) -> u64 {
        self.sign_words(level).get(w).copied().unwrap_or(0)
    }
}

/// Sign words per level: one bit per cell, `2·s` bits.
#[inline]
pub(crate) fn sign_width(config: &SketchConfig) -> usize {
    (config.second_level as usize).div_ceil(32)
}

/// Zigzag-map a signed cell so small magnitudes of either sign encode in
/// few varint bytes.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Append `v` as an LEB128 varint (7 bits per byte, low groups first).
#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint off the front of `input`: at most 10 bytes,
/// the tenth carrying only the top bit of a `u64`.
#[inline]
fn read_varint(input: &mut &[u8]) -> Result<u64, EstimateError> {
    let mut value = 0u64;
    for group in 0..10 {
        let Some((&byte, rest)) = input.split_first() else {
            return Err(EstimateError::Corrupt(
                "truncated varint in counter block".into(),
            ));
        };
        *input = rest;
        if group == 9 && byte > 1 {
            return Err(EstimateError::Corrupt(if byte & 0x80 != 0 {
                "varint longer than 10 bytes in counter block".into()
            } else {
                "varint overflows 64 bits in counter block".into()
            }));
        }
        if byte == 0 && group > 0 {
            return Err(EstimateError::Corrupt(
                "overlong varint in counter block".into(),
            ));
        }
        value |= u64::from(byte & 0x7f) << (7 * group);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    // The tenth byte either ended the varint or was rejected above.
    Err(EstimateError::Corrupt(
        "varint longer than 10 bytes in counter block".into(),
    ))
}

const FIELDS: &[&str] = &["config", "seed", "counters", "total"];

/// Serializes by borrowing: coins, the sparse counter block, and the
/// total. The hash functions never travel — they are rebuilt from the
/// coins on decode.
impl Serialize for TwoLevelSketch {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut out = serializer.serialize_struct("TwoLevelSketch", FIELDS.len())?;
        out.serialize_field("config", &self.config)?;
        out.serialize_field("seed", &self.seed)?;
        let block = self.counter_block();
        out.serialize_field("counters", &Block(&block))?;
        out.serialize_field("total", &self.total)?;
        out.end()
    }
}

impl<'de> Deserialize<'de> for TwoLevelSketch {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        SketchSeed { shape: None }.deserialize(deserializer)
    }
}

/// A counter block as serde bytes, borrowed from the input on decode so
/// nothing is copied before the cells land.
struct Block<'a>(&'a [u8]);

impl Serialize for Block<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

impl<'de> Deserialize<'de> for Block<'de> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BytesVisitor;
        impl<'de> Visitor<'de> for BytesVisitor {
            type Value = Block<'de>;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("a counter block")
            }
            fn visit_borrowed_bytes<E: de::Error>(self, v: &'de [u8]) -> Result<Block<'de>, E> {
                Ok(Block(v))
            }
        }
        deserializer.deserialize_bytes(BytesVisitor)
    }
}

/// Decodes one sketch. With `shape` set, the sketch must have exactly
/// that config, checked before its counters are allocated: a
/// [`crate::SketchVector`] passes its family's shape, so what decoding a
/// vector may allocate stays bounded by its checked family header.
pub(crate) struct SketchSeed {
    pub(crate) shape: Option<SketchConfig>,
}

impl<'de> DeserializeSeed<'de> for SketchSeed {
    type Value = TwoLevelSketch;

    fn deserialize<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<TwoLevelSketch, D::Error> {
        deserializer.deserialize_struct("TwoLevelSketch", FIELDS, self)
    }
}

impl<'de> Visitor<'de> for SketchSeed {
    type Value = TwoLevelSketch;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a 2-level hash sketch")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<TwoLevelSketch, A::Error> {
        let missing = |at| <A::Error as de::Error>::invalid_length(at, "a 2-level hash sketch");
        let config: SketchConfig = seq.next_element()?.ok_or_else(|| missing(0))?;
        if self.shape.is_some_and(|shape| shape != config) {
            return Err(de::Error::custom(EstimateError::Corrupt(format!(
                "sketch shape {config:?} differs from its vector's family"
            ))));
        }
        let seed: u64 = seq.next_element()?.ok_or_else(|| missing(1))?;
        let block: Block<'de> = seq.next_element()?.ok_or_else(|| missing(2))?;
        let total: i64 = seq.next_element()?.ok_or_else(|| missing(3))?;
        TwoLevelSketch::from_counter_block(config, seed, block.0, total).map_err(de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setstream_stream::StreamId;

    fn small() -> TwoLevelSketch {
        TwoLevelSketch::new(
            SketchConfig {
                levels: 16,
                second_level: 8,
                ..Default::default()
            },
            7,
        )
    }

    #[test]
    fn new_sketch_is_empty() {
        let s = small();
        assert!(s.is_empty());
        assert_eq!(s.total_count(), 0);
        for l in 0..16 {
            assert!(s.is_level_empty(l));
        }
    }

    #[test]
    fn insert_touches_exactly_one_cell_per_second_function() {
        let mut s = small();
        s.insert(123);
        let level = s.bucket_of(123);
        for j in 0..8 {
            assert_eq!(s.cell(level, j, 0) + s.cell(level, j, 1), 1, "j={j}");
        }
        // All other levels stay empty.
        for l in 0..16 {
            if l != level {
                assert!(s.is_level_empty(l), "level {l}");
            }
        }
        assert_eq!(s.total_count(), 1);
    }

    #[test]
    fn delete_exactly_cancels_insert() {
        let empty = small();
        let mut s = small();
        for e in 0..100u64 {
            s.insert(e);
        }
        for e in 0..100u64 {
            s.delete(e);
        }
        assert_eq!(s.counters(), empty.counters());
        assert!(s.is_empty());
    }

    #[test]
    fn deletion_imperviousness_stream_equality() {
        // Sketch(inserts ∪ churn) == Sketch(inserts): the §3.1 claim.
        let mut with_churn = small();
        let mut without = small();
        for e in 0..500u64 {
            with_churn.insert(e);
            without.insert(e);
        }
        // Churn: 300 extra elements inserted then fully deleted,
        // interleaved with double-inserts that are half-deleted.
        for e in 10_000..10_300u64 {
            with_churn.update(e, 3);
        }
        for e in 0..500u64 {
            with_churn.insert(e); // second copy
        }
        for e in 10_000..10_300u64 {
            with_churn.update(e, -3);
        }
        for e in 0..500u64 {
            with_churn.delete(e); // remove the second copy
        }
        assert_eq!(with_churn.counters(), without.counters());
        assert_eq!(with_churn.total_count(), without.total_count());
    }

    #[test]
    fn update_order_is_irrelevant() {
        let mut fwd = small();
        let mut rev = small();
        let updates: Vec<(u64, i64)> =
            (0..200).map(|i| (i * 17 % 97, if i % 3 == 0 { 2 } else { 1 })).collect();
        for &(e, d) in &updates {
            fwd.update(e, d);
        }
        for &(e, d) in updates.iter().rev() {
            rev.update(e, d);
        }
        assert_eq!(fwd.counters(), rev.counters());
    }

    #[test]
    fn same_seed_same_mapping_different_seed_different() {
        let a = small();
        let b = small();
        assert!(a.compatible(&b));
        for e in [1u64, 99, 12345] {
            assert_eq!(a.bucket_of(e), b.bucket_of(e));
        }
        let c = TwoLevelSketch::new(*a.config(), 8);
        assert!(!a.compatible(&c));
        assert!(a.check_compatible(&c).is_err());
        assert!((0..200u64).any(|e| a.bucket_of(e) != c.bucket_of(e)));
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mut left = small();
        let mut right = small();
        let mut both = small();
        for e in 0..300u64 {
            left.insert(e);
            both.insert(e);
        }
        for e in 200..500u64 {
            right.insert(e);
            both.insert(e);
        }
        let merged = left.merged(&right).unwrap();
        assert_eq!(merged.counters(), both.counters());
        assert_eq!(merged.total_count(), both.total_count());
    }

    #[test]
    fn merge_rejects_incompatible() {
        let a = small();
        let mut b = TwoLevelSketch::new(*a.config(), 1234);
        b.insert(5);
        assert!(matches!(
            a.merged(&b),
            Err(EstimateError::Incompatible(_))
        ));
        let c = TwoLevelSketch::new(
            SketchConfig {
                levels: 8,
                second_level: 8,
                ..Default::default()
            },
            7,
        );
        assert!(a.merged(&c).is_err());
    }

    #[test]
    fn process_routes_updates() {
        let mut s = small();
        s.process(&Update::insert(StreamId(0), 42, 5));
        assert_eq!(s.total_count(), 5);
        s.process(&Update::delete(StreamId(0), 42, 5));
        assert!(s.is_empty());
    }

    #[test]
    fn update_batch_matches_sequential_bit_for_bit() {
        let updates: Vec<Update> = (0..1000u64)
            .map(|i| Update {
                stream: StreamId(0),
                element: i.wrapping_mul(0x9e37_79b9) % 4096,
                delta: if i % 7 == 0 { -1 } else { 1 + (i % 3) as i64 },
            })
            .collect();
        let mut scalar = small();
        for u in &updates {
            scalar.update(u.element, u.delta);
        }
        let mut batched = small();
        batched.update_batch(&updates);
        assert_eq!(scalar.counters(), batched.counters());
        assert_eq!(scalar.total_count(), batched.total_count());

        // Arbitrary re-chunking agrees too (linearity).
        let mut split = small();
        let (a, b) = updates.split_at(137);
        split.update_batch(a);
        split.update_batch(b);
        assert_eq!(scalar.counters(), split.counters());
    }

    #[test]
    fn tiny_batches_take_the_scalar_path_and_agree() {
        let mut scalar = small();
        let mut batched = small();
        let updates: Vec<Update> =
            (0..5u64).map(|e| Update::insert(StreamId(0), e * 31, 2)).collect();
        for u in &updates {
            scalar.process(u);
        }
        batched.update_batch(&updates);
        assert_eq!(scalar.counters(), batched.counters());
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_panicking() {
        let mut s = small();
        for e in 0..100u64 {
            s.insert(e);
        }
        let (config, seed, total) = (*s.config(), s.seed(), s.total_count());
        let block = s.counter_block();
        // A faithful block round-trips.
        let back = TwoLevelSketch::from_counter_block(config, seed, &block, total).unwrap();
        assert_eq!(back.counters(), s.counters());
        let corrupt =
            |block: &[u8], total| TwoLevelSketch::from_counter_block(config, seed, block, total);

        // A short block: the last varint is cut.
        assert!(matches!(
            corrupt(&block[..block.len() - 1], total),
            Err(EstimateError::Corrupt(_))
        ));
        // Total inconsistent with the j = 0 cells.
        assert!(matches!(
            corrupt(&block, total + 1),
            Err(EstimateError::Corrupt(_))
        ));
        // Impossible shape must not panic either.
        let bad_shape = SketchConfig {
            levels: 200,
            ..config
        };
        assert!(matches!(
            TwoLevelSketch::from_counter_block(bad_shape, seed, &block, total),
            Err(EstimateError::Corrupt(_))
        ));
    }

    #[test]
    fn counter_block_holds_only_occupied_levels() {
        let empty = small();
        assert_eq!(empty.counter_block(), 0u64.to_le_bytes());
        let mut s = small();
        s.insert(123);
        let level = s.bucket_of(123);
        let block = s.counter_block();
        assert_eq!(block[..8], (1u64 << level).to_le_bytes());
        // One row of 2·s cells: s ones and s zeros, one byte each.
        assert_eq!(block.len(), 8 + 16);
        // Negative cells survive the zigzag mapping.
        s.update(99, -5);
        let back =
            TwoLevelSketch::from_counter_block(*s.config(), s.seed(), &s.counter_block(), -4)
                .unwrap();
        assert_eq!(back.counters(), s.counters());
    }

    #[test]
    fn field_aliases_land_in_different_cells() {
        // The first-level k-wise hash reduces its input mod 2⁶¹ − 1, so e
        // and e + p share a bucket; the second level hashes the raw 64-bit
        // element, and for this seed some gⱼ tells the two apart.
        let config = SketchConfig::default();
        for e in [0u64, 1, 5, 12_345] {
            let twin = e + setstream_hash::field::P;
            let mut one = TwoLevelSketch::new(config, 7);
            let mut other = TwoLevelSketch::new(config, 7);
            one.insert(e);
            other.insert(twin);
            assert_eq!(one.bucket_of(e), other.bucket_of(twin), "e={e}");
            assert_ne!(one.counters(), other.counters(), "e={e}");
        }
    }

    #[test]
    fn level_distribution_is_geometric() {
        let mut s = TwoLevelSketch::new(SketchConfig::default(), 99);
        let n = 1 << 15;
        for e in 0..n as u64 {
            s.insert(e);
        }
        // Level 0 should hold ≈ n/2, level 1 ≈ n/4, ...
        for l in 0..5u32 {
            let got = s.level_total(l) as f64;
            let expect = n as f64 / 2f64.powi(l as i32 + 1);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.15, "level {l}: {got} vs {expect}");
        }
    }
}
