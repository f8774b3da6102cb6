//! Seeded input generation. Everything a run feeds the system is made
//! here, before the first timer starts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use setstream_expr::SetExpr;
use setstream_stream::gen::{interleave, UpdateBuilder, VennSpec};
use setstream_stream::{StreamId, StreamSet, Update};
use std::sync::Arc;

/// The generator of a run's operation stream (arrival order, which
/// query, which streams are hot): `--seed` mixed with a per-workload
/// salt, so workloads draw unrelated inputs from one seed.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(setstream_hash::splitmix64(seed ^ salt.rotate_left(32)))
}

/// The generator of a workload's fixed part: its dataset, expressions
/// and sketch coins, the same for every seed. One run has one sketch
/// family, so accuracy and per-call cost measured over seed-drawn data
/// and coins would differ from seed to seed by far more than any bound
/// (about 40% between quartiles); with the dataset fixed, the seed still
/// varies what reaches the system and when.
pub fn dataset_rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(setstream_hash::splitmix64(0x5e7b_e4c4 ^ salt))
}

/// A §5.1 Venn dataset over `n` streams with every non-empty cell equally
/// likely, turned into one update sequence per stream by `builder`
/// (each sequence is legal on its own).
pub fn venn_streams(
    n: usize,
    union: usize,
    builder: &UpdateBuilder,
    rng: &mut StdRng,
) -> Vec<Vec<Update>> {
    let cell = 1.0 / ((1u64 << n) - 1) as f64;
    let cells: Vec<(u32, f64)> = (1u32..1 << n).map(|mask| (mask, cell)).collect();
    let data = VennSpec::from_cells(n, &cells).generate(union, rng);
    (0..n)
        .map(|i| builder.build(StreamId(i as u32), &data.stream_elements(i), rng))
        .collect()
}

/// Per-stream sequences merged into one arrival order drawn from `rng`.
pub fn arrivals(streams: &[Vec<Update>], rng: &mut StdRng) -> Vec<Update> {
    interleave(streams.to_vec(), rng)
}

/// An update sequence replayed cyclically. One pass is legal on its own,
/// and a repeated pass inserts each element before deleting it again, so
/// every prefix of the cycle is legal too.
#[derive(Debug, Clone)]
pub struct Feed {
    updates: Arc<[Update]>,
    pos: usize,
}

impl Feed {
    /// A feed over `updates`.
    ///
    /// # Panics
    /// Panics on an empty sequence, which could never fill a batch.
    pub fn new(updates: Vec<Update>) -> Self {
        assert!(!updates.is_empty(), "a feed needs updates");
        Feed {
            updates: updates.into(),
            pos: 0,
        }
    }

    /// Length of one pass.
    pub fn pass_len(&self) -> usize {
        self.updates.len()
    }

    /// The next `n` updates, wrapping around at the end of a pass.
    pub fn take(&mut self, n: usize) -> Vec<Update> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let end = (self.pos + n - out.len()).min(self.updates.len());
            out.extend_from_slice(&self.updates[self.pos..end]);
            self.pos = if end == self.updates.len() { 0 } else { end };
        }
        out
    }
}

/// Ground truth: every update the system was handed, replayed into exact
/// multisets, until the last unit that samples accuracy.
#[derive(Debug, Default)]
pub struct Exact {
    streams: StreamSet,
}

impl Exact {
    /// Apply updates; `false` if one was illegal (a generator bug).
    pub fn apply(&mut self, updates: &[Update]) -> bool {
        self.streams.apply_all(updates).is_ok()
    }

    /// Exact `|E|` and `|∪ of E's streams|`.
    pub fn truth(&self, expr: &SetExpr) -> (usize, usize) {
        (
            setstream_expr::eval::exact_cardinality(expr, &self.streams),
            setstream_expr::eval::exact_union_cardinality(expr, &self.streams),
        )
    }
}

/// `count` random expressions over `streams` streams with 2 to 5
/// operators, seeded from `rng`.
pub fn random_exprs(count: usize, streams: u32, rng: &mut StdRng) -> Vec<SetExpr> {
    use rand::Rng;
    (0..count)
        .map(|i| setstream_expr::random_expr(rng.gen(), streams, 2 + i % 4))
        .collect()
}
