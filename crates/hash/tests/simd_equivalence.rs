//! SIMD ≡ reference equivalence, property-tested through the public API.
//!
//! The dispatched lane kernels behind [`PairwiseHashBank::accumulate_group`],
//! [`setstream_hash::positive_bits`] and the `hash_slice` overrides must
//! be **bit-identical** to per-element references computed without them
//! (`accumulate_row` below, which derives every second-level bit one
//! element bit at a time / `c > 0` / `Hash64::hash`), for every input
//! shape: arbitrary bank widths and batch lengths (including odd lane
//! remainders), insert-only, mixed, and delete-heavy deltas.
//!
//! The same suite runs in all three backend configurations: the default
//! build dispatches to the widest kernel the CPU has, the
//! `SETSTREAM_FORCE_SCALAR=1` environment pins the portable LANES=1
//! instantiation at runtime, and `--no-default-features` compiles the
//! vector paths out entirely (scripts/tier1.sh exercises all three).

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_hash::field;
use setstream_hash::{hash_many, Hash64, KWiseHash, PairwiseHash, PairwiseHashBank};

/// The second-level bit of `x` under `(a, b)`, one element bit at a time:
/// `b ⊕ (⊕ᵢ aᵢ ∧ xᵢ)`.
fn reference_bit(a: u64, b: u64, x: u64) -> usize {
    let mut bit = b;
    for i in 0..64 {
        bit ^= (a >> i) & (x >> i) & 1;
    }
    bit as usize
}

/// The scalar reference the grouped kernels are pinned to: for every
/// function `j`, add `delta` to `row[2j + hⱼ(x)]`, with the bit computed
/// by [`reference_bit`] from the function's own coefficients.
fn accumulate_row(bank: &PairwiseHashBank, x: u64, delta: i64, row: &mut [i64]) {
    assert_eq!(
        row.len(),
        2 * bank.len(),
        "row holds one cell pair per function"
    );
    for (pair, (a, b)) in row.chunks_exact_mut(2).zip(bank.coefficients()) {
        pair[reference_bit(a, b, x)] += delta;
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

#[test]
fn accumulate_group_matches_per_element_rows() {
    for s in [1usize, 8, 32, 33] {
        let bank = PairwiseHashBank::from_seed(13, s);
        for n in [0usize, 1, 2, 7, 64] {
            let elems: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e37) ^ 0xabc)
                .collect();
            // Mixed deltas (general path) and uniform deltas (count-only
            // fast path) must both match per-element application.
            let mixed: Vec<i64> = (0..n as i64).map(|i| (i % 5) - 2).collect();
            let uniform = vec![-3i64; n];
            for deltas in [&mixed, &uniform] {
                let mut grouped = vec![0i64; 2 * s];
                bank.accumulate_group(&elems, deltas, &mut grouped);
                let mut scalar = vec![0i64; 2 * s];
                for (&e, &d) in elems.iter().zip(deltas.iter()) {
                    accumulate_row(&bank, e, d, &mut scalar);
                }
                assert_eq!(grouped, scalar, "s={s} n={n}");
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

    /// Grouped accumulation ≡ per-element `accumulate_row`, across
    /// insert-only (uniform +1), mixed, and delete-heavy delta mixes and
    /// group lengths that leave every possible lane remainder.
    #[test]
    fn accumulate_group_matches_row_loop(
        seed in any::<u64>(),
        s in 1usize..40,
        elems in vec(any::<u64>(), 1..70),
        // 0 = insert-only, 1 = ~10% deletes, 2 = delete-heavy (~90%).
        mix in 0u8..3,
    ) {
        let bank = PairwiseHashBank::from_seed(seed, s);
        let deltas: Vec<i64> = elems
            .iter()
            .enumerate()
            .map(|(i, _)| match mix {
                0 => 1,
                1 if i % 10 == 9 => -1,
                1 => 1,
                _ if i % 10 == 0 => 1,
                _ => -1,
            })
            .collect();

        let mut grouped = vec![0i64; 2 * s];
        bank.accumulate_group(&elems, &deltas, &mut grouped);

        let mut reference = vec![0i64; 2 * s];
        for (&e, &d) in elems.iter().zip(&deltas) {
            accumulate_row(&bank, e, d, &mut reference);
        }
        prop_assert_eq!(grouped, reference);
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
/// family would identify. Both kernel forms must match the reference.
#[test]
fn accumulate_group_field_edges() {
    let mut elems: Vec<u64> = vec![0, u64::MAX];
    elems.extend((0..64).map(|i| 1u64 << i));
    for e in [0u64, 1, 2, 5, 12_345, 1 << 61, field::P] {
        elems.extend([e, e + field::P]);
    }
    let deltas: Vec<i64> = (0..elems.len())
        .map(|i| if i % 2 == 0 { 3 } else { -2 })
        .collect();
    for s in [1usize, 7, 16, 17, 32] {
        let bank = PairwiseHashBank::from_seed(0xdead_beef ^ s as u64, s);
        let mut grouped = vec![0i64; 2 * s];
        bank.accumulate_group(&elems, &deltas, &mut grouped);
        let mut uniform = vec![0i64; 2 * s];
        bank.accumulate_group_uniform(&elems, 4, &mut uniform);
        let mut reference = vec![0i64; 2 * s];
        let mut reference_uniform = vec![0i64; 2 * s];
        for (&e, &d) in elems.iter().zip(&deltas) {
            accumulate_row(&bank, e, d, &mut reference);
            accumulate_row(&bank, e, 4, &mut reference_uniform);
        }
        assert_eq!(grouped, reference, "s={s}");
        assert_eq!(uniform, reference_uniform, "s={s}");
    }
}
