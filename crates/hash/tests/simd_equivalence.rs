//! SIMD ≡ reference equivalence, property-tested through the public API.
//!
//! The lane kernels behind [`PairwiseHashBank::apply_chunk`] (the
//! bit-sliced chunk kernel), [`PairwiseHashBank::accumulate`] (the
//! function-lane kernel), [`setstream_hash::positive_bits`] and the
//! `hash_slice` overrides must be **bit-identical** to per-element
//! references computed without them (`accumulate_row` below, which
//! derives every second-level bit one element bit at a time / `c > 0` /
//! `Hash64::hash`), for every input shape: arbitrary bank widths, chunk
//! lengths, element widths and level counts, and deltas from unit churn
//! to the `i64` extremes. The bank kernels are checked on every tier
//! this build compiled and this CPU runs ([`Backend::runnable`]), not only
//! on the one the dispatch picks.
//!
//! The same suite runs in all three backend configurations: the default
//! build dispatches to the widest kernel the CPU has, the
//! `SETSTREAM_FORCE_SCALAR=1` environment pins the portable LANES=1
//! instantiation at runtime, and `--no-default-features` compiles the
//! vector paths out entirely (scripts/tier1.sh exercises all three).

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_hash::field;
use setstream_hash::{
    bucket_of, hash_many, Backend, Hash64, KWiseHash, PairwiseHash, PairwiseHashBank,
};
use setstream_hash::{SlicedChunk, CHUNK};

/// The second-level bit of `x` under `(a, b)`, one element bit at a time:
/// `b ⊕ (⊕ᵢ aᵢ ∧ xᵢ)`.
fn reference_bit(a: u64, b: u64, x: u64) -> usize {
    let mut bit = b;
    for i in 0..64 {
        bit ^= (a >> i) & (x >> i) & 1;
    }
    bit as usize
}

/// The scalar reference the kernels are pinned to: for every function
/// `j`, add `delta` to `row[2j + hⱼ(x)]`, with the bit computed by
/// [`reference_bit`] from the function's own coefficients. Cells wrap,
/// like every sketch cell add, since the deltas reach the `i64` extremes.
fn accumulate_row(bank: &PairwiseHashBank, x: u64, delta: i64, row: &mut [i64]) {
    assert_eq!(
        row.len(),
        2 * bank.len(),
        "row holds one cell pair per function"
    );
    for (pair, (a, b)) in row.chunks_exact_mut(2).zip(bank.coefficients()) {
        let cell = &mut pair[reference_bit(a, b, x)];
        *cell = cell.wrapping_add(delta);
    }
}

#[test]
fn accumulate_row_bumps_the_scalar_cells() {
    for s in [1usize, 8, 32, 33] {
        let bank = PairwiseHashBank::from_seed(11, s);
        let mut row = vec![0i64; 2 * s];
        let mut expect = vec![0i64; 2 * s];
        for (i, x) in [0u64, 3, 999, u64::MAX, 0x1234_5678]
            .into_iter()
            .enumerate()
        {
            let delta = (i as i64 + 1) * if i % 2 == 0 { 1 } else { -1 };
            accumulate_row(&bank, x, delta, &mut row);
            for (j, bit) in bank.bits(x).enumerate() {
                expect[2 * j + bit] += delta;
            }
            assert_eq!(row, expect, "s={s} x={x}");
        }
    }
}

/// The reference for a whole chunk: every update applied one at a time
/// with [`accumulate_row`] to its level's row of a level-major block.
fn reference_rows(
    bank: &PairwiseHashBank,
    pairs: &[(u64, i64)],
    hashes: &[u64; CHUNK],
    levels: u32,
) -> Vec<i64> {
    let width = 2 * bank.len();
    let mut rows = vec![0i64; levels as usize * width];
    for (&(x, d), &h) in pairs.iter().zip(hashes) {
        let at = bucket_of(h, levels) as usize * width;
        accumulate_row(bank, x, d, &mut rows[at..at + width]);
    }
    rows
}

/// Every runnable tier's chunk kernel against the reference, and the
/// set of levels it reports writing.
fn check_chunk(bank: &PairwiseHashBank, pairs: &[(u64, i64)], hashes: &[u64; CHUNK], levels: u32) {
    let mut chunk = Box::new(SlicedChunk::EMPTY);
    chunk.load(pairs.iter().copied());
    let want = reference_rows(bank, pairs, hashes, levels);
    let written = hashes[..pairs.len()]
        .iter()
        .fold(0u64, |acc, &h| acc | 1 << bucket_of(h, levels));
    for tier in Backend::runnable() {
        let mut rows = vec![0i64; want.len()];
        let got = bank.apply_chunk_on(tier, &chunk, hashes, levels, &mut rows);
        assert_eq!(
            rows,
            want,
            "tier {tier:?}, s={}, n={}",
            bank.len(),
            pairs.len()
        );
        assert_eq!(got, written, "tier {tier:?}");
    }
}

/// Hashes whose levels cover every dense level, the deep ones, and 0
/// (the top level), with garbage past `n`.
fn hashes_for(seed: u64, n: usize) -> [u64; CHUNK] {
    let mut out = [0u64; CHUNK];
    let mut state = seed;
    for (i, h) in out.iter_mut().enumerate() {
        state = setstream_hash::splitmix64(state);
        *h = match i % 97 {
            0 if i < n => 0,
            1 if i < n => 1 << 40,
            _ => state,
        };
    }
    out
}

#[test]
fn apply_chunk_matches_per_element_rows() {
    for s in [1usize, 8, 32, 33] {
        let bank = PairwiseHashBank::from_seed(13, s);
        for n in [0usize, 1, 2, 7, 64, 300, 512] {
            let elems: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e37) ^ 0xabc)
                .collect();
            // Small mixed deltas (several planes), unit churn (one plane)
            // and uniform deltas must all match per-element application.
            let mixed: Vec<i64> = (0..n as i64).map(|i| (i % 5) - 2).collect();
            let churn: Vec<i64> = (0..n as i64)
                .map(|i| if i % 3 == 0 { -1 } else { 1 })
                .collect();
            let uniform = vec![-3i64; n];
            for deltas in [&mixed, &churn, &uniform] {
                let pairs: Vec<(u64, i64)> =
                    elems.iter().copied().zip(deltas.iter().copied()).collect();
                for levels in [1u32, 4, 16, 64] {
                    check_chunk(&bank, &pairs, &hashes_for(n as u64, n), levels);
                }
            }
        }
    }
}

#[test]
fn accumulate_matches_the_row_reference_on_every_tier() {
    for s in [1usize, 8, 15, 16, 17, 32, 33] {
        let bank = PairwiseHashBank::from_seed(29, s);
        for (x, d) in [
            (0u64, 1i64),
            (u64::MAX, -1),
            (0x1234_5678, i64::MIN),
            (7, i64::MAX),
        ] {
            let mut want = vec![5i64; 2 * s];
            accumulate_row(&bank, x, d, &mut want);
            for tier in Backend::runnable() {
                let mut row = vec![5i64; 2 * s];
                bank.accumulate_on(tier, x, d, &mut row);
                assert_eq!(row, want, "tier {tier:?} s={s} x={x}");
            }
        }
    }
}

proptest! {
    /// The dispatched positivity bitmap ≡ a per-cell `c > 0` test, for row
    /// lengths straddling every word and lane boundary and cells of any
    /// sign and size.
    #[test]
    fn positive_bits_match_per_cell_sign(
        cells in vec(
            prop_oneof![-2i64..3, any::<i64>(), Just(i64::MIN), Just(i64::MAX)],
            0..300,
        ),
    ) {
        let mut packed = vec![!0u64; cells.len().div_ceil(64)];
        let nonzero = setstream_hash::positive_bits(&cells, &mut packed);
        prop_assert_eq!(nonzero, cells.iter().any(|&c| c != 0));
        for (i, &c) in cells.iter().enumerate() {
            prop_assert_eq!(packed[i / 64] >> (i % 64) & 1 == 1, c > 0, "cell {} = {}", i, c);
        }
        if cells.len() % 64 != 0 {
            let last = packed[packed.len() - 1];
            prop_assert_eq!(last >> (cells.len() % 64), 0, "tail word has stray bits");
        }
    }

    /// The chunk kernel ≡ per-element `accumulate_row`, across
    /// insert-only, churn, delete-heavy and full-range deltas, elements
    /// of every width, any level count, and chunk lengths that leave
    /// every possible lane and word remainder.
    #[test]
    fn apply_chunk_matches_row_loop(
        seed in any::<u64>(),
        s in 1usize..40,
        elems in vec(prop_oneof![0u64..8, 0u64..1 << 17, any::<u64>()], 1..CHUNK + 1),
        // 0 = insert-only, 1 = ~10% deletes, 2 = delete-heavy (~90%),
        // 3 = any i64.
        mix in 0u8..4,
        levels in 1u32..65,
    ) {
        let bank = PairwiseHashBank::from_seed(seed, s);
        let mut state = seed;
        let pairs: Vec<(u64, i64)> = elems
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                state = setstream_hash::splitmix64(state);
                let d = match mix {
                    0 => 1,
                    1 if i % 10 == 9 => -1,
                    1 => 1,
                    2 if i % 10 == 0 => 1,
                    2 => -1,
                    _ => state as i64,
                };
                (e, d)
            })
            .collect();
        check_chunk(&bank, &pairs, &hashes_for(seed, pairs.len()), levels);
    }

    /// The lane-parallel Horner chain behind `hash_slice` ≡ per-element
    /// `hash`, for both the degree-1 pairwise family and higher-degree
    /// k-wise polynomials, at lengths covering odd remainders.
    #[test]
    fn hash_slice_matches_per_element(
        seed in any::<u64>(),
        degree in 2usize..9,
        xs in vec(any::<u64>(), 0..50),
    ) {
        let pw = PairwiseHash::from_seed(seed);
        let kw = KWiseHash::from_seed(degree, seed);
        let mut got = vec![0u64; xs.len()];
        pw.hash_slice(&xs, &mut got);
        for (&x, &o) in xs.iter().zip(&got) {
            prop_assert_eq!(o, pw.hash(x));
        }
        kw.hash_slice(&xs, &mut got);
        for (&x, &o) in xs.iter().zip(&got) {
            prop_assert_eq!(o, kw.hash(x));
        }
        // hash_many routes through the same override.
        hash_many(&kw, &xs, &mut got);
        for (&x, &o) in xs.iter().zip(&got) {
            prop_assert_eq!(o, kw.hash(x));
        }
    }
}

/// Edge elements the random strategy rarely lands on: 0, all ones, every
/// single-bit word, and pairs `(e, e + 2⁶¹ − 1)` that a field-reducing
/// family would identify. The chunk kernel must match the reference on
/// every tier, for deltas of one and of many planes.
#[test]
fn apply_chunk_field_edges() {
    let mut elems: Vec<u64> = vec![0, u64::MAX];
    elems.extend((0..64).map(|i| 1u64 << i));
    for e in [0u64, 1, 2, 5, 12_345, 1 << 61, field::P] {
        elems.extend([e, e + field::P]);
    }
    for deltas in [[3i64, -2], [1, -1], [i64::MIN, i64::MAX]] {
        let pairs: Vec<(u64, i64)> = elems
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, deltas[i % 2]))
            .collect();
        for s in [1usize, 7, 16, 17, 32] {
            let bank = PairwiseHashBank::from_seed(0xdead_beef ^ s as u64, s);
            check_chunk(&bank, &pairs, &hashes_for(s as u64, pairs.len()), 64);
        }
    }
}
