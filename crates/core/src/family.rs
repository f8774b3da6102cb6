//! Families of independent sketch copies with shared coins.
//!
//! Every estimator in the paper averages over `r` independent 2-level hash
//! sketches, where copy `i` uses the *same* hash functions across all
//! streams (so their buckets are comparable) but *independent* functions
//! across copies. A [`SketchFamily`] captures that discipline: it owns the
//! master coin; [`SketchFamily::new_vector`] mints an `r`-copy synopsis
//! ([`SketchVector`]) for one stream, copy `i` seeded with the family's
//! i-th coin.

use crate::config::SketchConfig;
use crate::error::EstimateError;
use crate::sketch::two_level::SketchSeed;
use crate::sketch::TwoLevelSketch;
use serde::de::{self, DeserializeSeed, SeqAccess, Visitor};
use serde::{Deserialize, Deserializer, Serialize};
use setstream_hash::SeedSequence;
use setstream_hash::{SlicedChunk, CHUNK};
use setstream_stream::{Element, Update};
use std::fmt;

/// Instrumentation record returned by [`SketchVector::update_batch`].
///
/// `fast_path_updates` counts updates that arrived in uniform-delta
/// chunks (all deltas of a [`CHUNK`]-update chunk equal — the insert-only
/// shape). No kernel path keys on them. A chunk's cost per copy follows
/// how its updates fall on levels: a populous level is bit-sliced, at
/// one popcount round per function and bit of the deltas' narrowest
/// two's complement, equal or not, and a sparse one costs a few
/// instructions per update and function. So the count describes the
/// workload, not a code path; it is kept because the engine's
/// `setstream_engine_ingest_fastpath_updates_total` counter and the
/// benchmarks' `fastpath_ratio` read it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Updates applied by this call.
    pub updates: usize,
    /// Updates that arrived in a uniform-delta chunk.
    pub fast_path_updates: usize,
}

impl IngestStats {
    /// Chunk-by-chunk accounting for a batch, on the [`CHUNK`]-sized
    /// chunk boundaries of the ingest loop.
    fn for_batch(updates: &[Update]) -> Self {
        let mut fast = 0usize;
        for chunk in updates.chunks(CHUNK) {
            if chunk.windows(2).all(|w| matches!(w, [a, b] if a.delta == b.delta)) {
                fast += chunk.len();
            }
        }
        IngestStats {
            updates: updates.len(),
            fast_path_updates: fast,
        }
    }

    /// Accumulate another batch's stats into this one.
    pub fn absorb(&mut self, other: IngestStats) {
        self.updates += other.updates;
        self.fast_path_updates += other.fast_path_updates;
    }
}

/// Updates [`SketchVector::update_batch`] bit-slices at once: eight
/// chunks, about 224 KiB of sliced form. Every copy applies a window
/// before the next copy starts, so a copy's rows stay cache-resident
/// across it.
pub const WINDOW: usize = 8 * CHUNK;

/// Most counter cells (`r · levels · s · 2`) a decoded [`SketchVector`]
/// may hold: 2²⁴, or 128 MiB of cells, eight times a paper-scale
/// synopsis (r = 512, s = 32). A counter block encodes an empty copy in
/// a few bytes, so without this bound a short payload could declare a
/// family whose vector makes the decoder allocate gigabytes.
pub const MAX_VECTOR_CELLS: usize = 1 << 24;

/// The shared-coins recipe for a collection of comparable stream synopses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchFamily {
    config: SketchConfig,
    copies: usize,
    master_seed: u64,
}

impl SketchFamily {
    /// Family with explicit shape, copy count `r`, and master seed.
    pub fn new(config: SketchConfig, copies: usize, master_seed: u64) -> Self {
        config.validate();
        assert!(copies >= 1, "need at least one sketch copy");
        SketchFamily {
            config,
            copies,
            master_seed,
        }
    }

    /// Start building a family with defaults (`r = 256`, paper shape).
    pub fn builder() -> SketchFamilyBuilder {
        SketchFamilyBuilder::default()
    }

    /// Shape of each sketch copy.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Number of independent copies `r`.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Master seed (the stored coin shared by all sites).
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The coin for copy `i`.
    pub fn copy_seed(&self, i: usize) -> u64 {
        SeedSequence::seed_at(self.master_seed, i as u64)
    }

    /// Mint an empty `r`-copy synopsis for one stream.
    pub fn new_vector(&self) -> SketchVector {
        let sketches = (0..self.copies)
            .map(|i| TwoLevelSketch::new(self.config, self.copy_seed(i)))
            .collect();
        SketchVector {
            family: *self,
            sketches,
        }
    }

    /// Total counter storage of one vector, in bytes.
    pub fn vector_bytes(&self) -> usize {
        self.copies * self.config.counter_bytes()
    }

    /// Check a family header read from untrusted input, without
    /// panicking: a valid shape, at least one copy, and at most
    /// [`MAX_VECTOR_CELLS`] counter cells per vector.
    pub fn check(&self) -> Result<(), String> {
        self.config.check()?;
        if self.copies == 0 {
            return Err("need at least one sketch copy".to_string());
        }
        match self.copies.checked_mul(self.config.n_counters()) {
            Some(cells) if cells <= MAX_VECTOR_CELLS => Ok(()),
            _ => Err(format!(
                "{} copies of {} counters exceed {MAX_VECTOR_CELLS} cells per vector",
                self.copies,
                self.config.n_counters()
            )),
        }
    }
}

/// Fluent construction of a [`SketchFamily`].
#[derive(Debug, Clone)]
pub struct SketchFamilyBuilder {
    config: SketchConfig,
    copies: usize,
    seed: u64,
}

impl Default for SketchFamilyBuilder {
    fn default() -> Self {
        SketchFamilyBuilder {
            config: SketchConfig::default(),
            copies: 256,
            seed: 0x5e15_7ead_c0ff_ee00,
        }
    }
}

impl SketchFamilyBuilder {
    /// Number of independent sketch copies `r`.
    pub fn copies(mut self, r: usize) -> Self {
        self.copies = r;
        self
    }

    /// Number of second-level hash functions `s`.
    pub fn second_level(mut self, s: u32) -> Self {
        self.config.second_level = s;
        self
    }

    /// Number of first-level buckets.
    pub fn levels(mut self, levels: u32) -> Self {
        self.config.levels = levels;
        self
    }

    /// First-level hash family (for the independence ablation).
    pub fn first_family(mut self, family: setstream_hash::HashFamily) -> Self {
        self.config.first_family = family;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Full config override.
    pub fn config(mut self, config: SketchConfig) -> Self {
        self.config = config;
        self
    }

    /// Finalize.
    pub fn build(self) -> SketchFamily {
        SketchFamily::new(self.config, self.copies, self.seed)
    }
}

/// An `r`-copy 2-level hash sketch synopsis of a single update stream.
///
/// This is "the synopsis" in Figure 1: one per stream, maintained online,
/// combined at query time by the estimators in [`crate::estimate`].
#[derive(Debug, Clone, Serialize)]
pub struct SketchVector {
    family: SketchFamily,
    sketches: Vec<TwoLevelSketch>,
}

impl SketchVector {
    /// The family this vector belongs to.
    pub fn family(&self) -> &SketchFamily {
        &self.family
    }

    /// The `r` sketch copies.
    pub fn sketches(&self) -> &[TwoLevelSketch] {
        &self.sketches
    }

    /// Number of copies `r`.
    pub fn copies(&self) -> usize {
        self.sketches.len()
    }

    /// Apply a net frequency change to every copy — `O(r · s)` hashing.
    pub fn update(&mut self, e: Element, delta: i64) {
        for sk in &mut self.sketches {
            sk.update(e, delta);
        }
    }

    /// Apply a slice of updates to every copy (stream ids are ignored, as
    /// in [`Self::process`]).
    ///
    /// Each window of [`WINDOW`] updates is bit-sliced once, one
    /// [`SlicedChunk`] per [`CHUNK`] updates, and every copy reads the
    /// same sliced chunks, so the per-copy work is the first-level hash
    /// (into one scratch buffer all copies share) and the bank's chunk
    /// kernel, whose work on each level follows the level's population:
    /// a short batch pays for its updates, not for a whole chunk. Within
    /// a window the loop is **copy-major**: each copy consumes the whole
    /// window before the next copy is touched, so one copy's rows and
    /// hash coefficients stay cache-resident across it, where an
    /// element-major walk over
    /// all `r` copies per update would cycle a ~16 MiB working set at
    /// `r = 512`. Counter increments commute, so the result is
    /// bit-for-bit identical to per-update [`Self::update`] calls; the
    /// window bounds the sliced form a long batch holds at once.
    ///
    /// Returns [`IngestStats`] for instrumentation: how many updates were
    /// applied and how many arrived in uniform-delta chunks.
    pub fn update_batch(&mut self, updates: &[Update]) -> IngestStats {
        let mut hashes = [0u64; CHUNK];
        for window in updates.chunks(WINDOW) {
            let chunks: Vec<SlicedChunk> = window
                .chunks(CHUNK)
                .map(|part| {
                    let mut chunk = SlicedChunk::EMPTY;
                    chunk.load(part.iter().map(|u| (u.element, u.delta)));
                    chunk
                })
                .collect();
            for sk in &mut self.sketches {
                sk.apply_chunks(&chunks, &mut hashes);
            }
        }
        IngestStats::for_batch(updates)
    }

    /// Insert one copy of `e`.
    pub fn insert(&mut self, e: Element) {
        self.update(e, 1);
    }

    /// Delete one copy of `e`.
    pub fn delete(&mut self, e: Element) {
        self.update(e, -1);
    }

    /// Route an update tuple into the synopsis.
    pub fn process(&mut self, u: &Update) {
        self.update(u.element, u.delta);
    }

    /// `true` if `other` uses the same family (same coins, shape, `r`).
    pub fn compatible(&self, other: &SketchVector) -> bool {
        self.family == other.family
    }

    /// Ensure compatibility with a descriptive error.
    pub fn check_compatible(&self, other: &SketchVector) -> Result<(), EstimateError> {
        if self.compatible(other) {
            Ok(())
        } else {
            Err(EstimateError::Incompatible(format!(
                "sketch vectors from different families: {:?} vs {:?}",
                self.family, other.family
            )))
        }
    }

    /// Merge another site's synopsis of the *same* stream (distributed
    /// model): cell-wise addition per copy.
    pub fn merge_from(&mut self, other: &SketchVector) -> Result<(), EstimateError> {
        self.check_compatible(other)?;
        for (mine, theirs) in self.sketches.iter_mut().zip(other.sketches.iter()) {
            mine.merge_from(theirs)?;
        }
        Ok(())
    }

    /// Subtract another synopsis of the *same* stream cell-wise — the
    /// inverse of [`Self::merge_from`]. Used to retract a site's previous
    /// cumulative contribution before installing a fresh snapshot, and to
    /// compute epoch deltas.
    pub fn subtract_from(&mut self, other: &SketchVector) -> Result<(), EstimateError> {
        self.check_compatible(other)?;
        for (mine, theirs) in self.sketches.iter_mut().zip(other.sketches.iter()) {
            mine.subtract_from(theirs)?;
        }
        Ok(())
    }

    /// The counter-wise difference `self − baseline`: by linearity,
    /// exactly the synopsis of the updates applied since `baseline` was
    /// captured. This is what a site ships as an epoch **delta frame**.
    pub fn delta_since(&self, baseline: &SketchVector) -> Result<SketchVector, EstimateError> {
        let mut delta = self.clone();
        delta.subtract_from(baseline)?;
        Ok(delta)
    }

    /// `true` if every cell of every copy is exactly zero (no update ever
    /// touched it, or every update was exactly cancelled). Stricter than
    /// [`Self::is_empty`]: a stream that saw `+x, -y` in one epoch is
    /// net-empty but not null, and its delta must still ship.
    pub fn is_null(&self) -> bool {
        self.sketches.iter().all(TwoLevelSketch::is_null)
    }

    /// `true` if every copy is (net) empty.
    pub fn is_empty(&self) -> bool {
        self.sketches.iter().all(TwoLevelSketch::is_empty)
    }

    /// A synopsis over copies `start..start+len` (same coins). Used by
    /// the median-of-groups booster; groups at the same offsets of two
    /// vectors are mutually compatible.
    pub(crate) fn subrange(&self, start: usize, len: usize) -> SketchVector {
        assert!(len >= 1 && start + len <= self.sketches.len(), "bad subrange");
        SketchVector {
            // Distinct master seed per offset so cross-offset groups are
            // flagged incompatible; same (seed, offset) pairs still align.
            family: SketchFamily::new(
                *self.family.config(),
                len,
                self.family.master_seed() ^ (start as u64).rotate_left(17),
            ),
            // analyze: allow(indexing) — bounds asserted at the top of `subrange`
            sketches: self.sketches[start..start + len].to_vec(),
        }
    }

    /// A synopsis consisting of the first `r` copies of this one.
    ///
    /// Copies use independent coins, so a prefix is itself a valid
    /// (smaller) synopsis of the same stream — experiment harnesses build
    /// once at the largest `r` and evaluate every smaller `r` for free.
    ///
    /// # Panics
    /// Panics if `r` is zero or exceeds the available copies.
    pub fn truncated(&self, r: usize) -> SketchVector {
        assert!(r >= 1 && r <= self.sketches.len(), "bad prefix length {r}");
        SketchVector {
            family: SketchFamily::new(*self.family.config(), r, self.family.master_seed()),
            // analyze: allow(indexing) — `r <= self.sketches.len()` asserted above
            sketches: self.sketches[..r].to_vec(),
        }
    }
}

/// Decodes the `{family, sketches}` layout the derived `Serialize`
/// writes. The family header must pass [`SketchFamily::check`], and every
/// copy must have its shape, checked before that copy's counters are
/// allocated, so a payload can make a decoder allocate at most
/// [`MAX_VECTOR_CELLS`] cells, however few bytes it carries.
impl<'de> Deserialize<'de> for SketchVector {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_struct("SketchVector", &["family", "sketches"], VectorVisitor)
    }
}

struct VectorVisitor;

impl<'de> Visitor<'de> for VectorVisitor {
    type Value = SketchVector;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a sketch vector")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<SketchVector, A::Error> {
        let missing = |at| <A::Error as de::Error>::invalid_length(at, "a sketch vector");
        let family: SketchFamily = seq.next_element()?.ok_or_else(|| missing(0))?;
        family
            .check()
            .map_err(|why| de::Error::custom(EstimateError::Corrupt(why)))?;
        let sketches = seq
            .next_element_seed(Copies(family))?
            .ok_or_else(|| missing(1))?;
        Ok(SketchVector { family, sketches })
    }
}

/// The `sketches` of a vector whose family header passed
/// [`SketchFamily::check`]: exactly `copies` sketches of its shape.
struct Copies(SketchFamily);

impl<'de> DeserializeSeed<'de> for Copies {
    type Value = Vec<TwoLevelSketch>;

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        deserializer.deserialize_seq(self)
    }
}

impl<'de> Visitor<'de> for Copies {
    type Value = Vec<TwoLevelSketch>;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("the family's sketch copies")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
        let family = self.0;
        let miscount = |n: usize| {
            <A::Error as de::Error>::custom(EstimateError::Corrupt(format!(
                "vector carries {n} sketches, its family has {} copies",
                family.copies
            )))
        };
        if let Some(n) = seq.size_hint().filter(|&n| n != family.copies) {
            return Err(miscount(n));
        }
        // Capacity follows what actually arrives, not what the header claims.
        let mut sketches = Vec::with_capacity(family.copies.min(1024));
        while sketches.len() < family.copies {
            let shape = Some(family.config);
            match seq.next_element_seed(SketchSeed { shape })? {
                Some(sketch) => sketches.push(sketch),
                None => return Err(miscount(sketches.len())),
            }
        }
        Ok(sketches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(8)
            .levels(16)
            .second_level(8)
            .seed(11)
            .build()
    }

    #[test]
    fn copies_use_independent_coins() {
        let f = family();
        let v = f.new_vector();
        let seeds: std::collections::HashSet<u64> =
            v.sketches().iter().map(|s| s.seed()).collect();
        assert_eq!(seeds.len(), 8, "every copy must get its own coin");
    }

    #[test]
    fn vectors_of_same_family_are_compatible_and_aligned() {
        let f = family();
        let a = f.new_vector();
        let b = f.new_vector();
        assert!(a.compatible(&b));
        for (x, y) in a.sketches().iter().zip(b.sketches()) {
            assert!(x.compatible(y));
        }
    }

    #[test]
    fn different_master_seeds_are_incompatible() {
        let a = SketchFamily::builder().seed(1).copies(4).build().new_vector();
        let b = SketchFamily::builder().seed(2).copies(4).build().new_vector();
        assert!(!a.compatible(&b));
        assert!(a.check_compatible(&b).is_err());
    }

    #[test]
    fn update_fans_out_to_all_copies() {
        let mut v = family().new_vector();
        v.insert(42);
        for s in v.sketches() {
            assert_eq!(s.total_count(), 1);
        }
        v.delete(42);
        assert!(v.is_empty());
    }

    #[test]
    fn vector_batch_matches_sequential() {
        use setstream_stream::StreamId;
        let f = family();
        let updates: Vec<Update> = (0..500u64)
            .map(|i| Update {
                stream: StreamId(0),
                element: i * 13 % 997,
                delta: if i % 5 == 0 { -1 } else { 2 },
            })
            .collect();
        let mut scalar = f.new_vector();
        for u in &updates {
            scalar.process(u);
        }
        let mut batched = f.new_vector();
        batched.update_batch(&updates);
        for (a, b) in scalar.sketches().iter().zip(batched.sketches()) {
            assert_eq!(a.counters(), b.counters());
            assert_eq!(a.total_count(), b.total_count());
        }
    }

    #[test]
    fn merge_equals_union_stream() {
        let f = family();
        let mut site1 = f.new_vector();
        let mut site2 = f.new_vector();
        let mut all = f.new_vector();
        for e in 0..100u64 {
            site1.insert(e);
            all.insert(e);
        }
        for e in 100..250u64 {
            site2.insert(e);
            all.insert(e);
        }
        site1.merge_from(&site2).unwrap();
        for (m, a) in site1.sketches().iter().zip(all.sketches()) {
            assert_eq!(m.counters(), a.counters());
        }
    }

    #[test]
    fn delta_since_is_exactly_the_new_traffic() {
        let f = family();
        let mut live = f.new_vector();
        for e in 0..200u64 {
            live.insert(e);
        }
        let baseline = live.clone();
        // Epoch traffic: some inserts, one deletion of old data.
        let mut epoch_only = f.new_vector();
        for e in 200..320u64 {
            live.insert(e);
            epoch_only.insert(e);
        }
        live.delete(5);
        epoch_only.delete(5);

        let delta = live.delta_since(&baseline).unwrap();
        for (d, w) in delta.sketches().iter().zip(epoch_only.sketches()) {
            assert_eq!(d.counters(), w.counters());
        }
        // Replaying the delta onto the baseline reproduces the live state.
        let mut replay = baseline.clone();
        replay.merge_from(&delta).unwrap();
        for (r, l) in replay.sketches().iter().zip(live.sketches()) {
            assert_eq!(r.counters(), l.counters());
        }
    }

    #[test]
    fn null_detects_cancelled_but_touched_epochs() {
        let f = family();
        let mut v = f.new_vector();
        assert!(v.is_null() && v.is_empty());
        v.insert(7);
        v.delete(9);
        // Net-zero count, but cells were touched: empty yet not null.
        assert!(!v.is_null());
        let delta = v.delta_since(&v.clone()).unwrap();
        assert!(delta.is_null(), "self-delta must be all-zero");
    }

    #[test]
    fn subtract_rejects_incompatible_vectors() {
        let mut a = family().new_vector();
        let b = SketchFamily::builder().copies(8).seed(999).build().new_vector();
        assert!(a.subtract_from(&b).is_err());
    }

    #[test]
    fn builder_applies_every_knob() {
        let f = SketchFamily::builder()
            .copies(3)
            .levels(32)
            .second_level(5)
            .seed(77)
            .first_family(setstream_hash::HashFamily::Mix)
            .build();
        assert_eq!(f.copies(), 3);
        assert_eq!(f.config().levels, 32);
        assert_eq!(f.config().second_level, 5);
        assert_eq!(f.master_seed(), 77);
        assert_eq!(f.config().first_family, setstream_hash::HashFamily::Mix);
        assert_eq!(f.vector_bytes(), 3 * 32 * 5 * 2 * 8);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_copies_rejected() {
        let _ = SketchFamily::new(SketchConfig::default(), 0, 1);
    }

    #[test]
    fn truncated_prefix_matches_fresh_small_vector() {
        let big = SketchFamily::builder().copies(8).levels(16).second_level(4).seed(3).build();
        let small = SketchFamily::builder().copies(3).levels(16).second_level(4).seed(3).build();
        let mut v_big = big.new_vector();
        let mut v_small = small.new_vector();
        for e in 0..500u64 {
            v_big.insert(e);
            v_small.insert(e);
        }
        let prefix = v_big.truncated(3);
        assert!(prefix.compatible(&v_small));
        for (p, s) in prefix.sketches().iter().zip(v_small.sketches()) {
            assert_eq!(p.counters(), s.counters());
        }
    }

    #[test]
    #[should_panic(expected = "bad prefix")]
    fn truncated_rejects_oversize() {
        let v = family().new_vector();
        let _ = v.truncated(9);
    }
}
