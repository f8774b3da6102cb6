//! SIMD ≡ scalar equivalence, property-tested through the public API.
//!
//! The dispatched lane kernels behind [`PairwiseHashBank::hash_bits_into`],
//! [`PairwiseHashBank::accumulate_group`], [`setstream_hash::positive_bits`]
//! and the `hash_slice` overrides must be **bit-identical** to the
//! per-element scalar references that predate them (`for_each_bit` /
//! `accumulate_row` / `c > 0` / `Hash64::hash`), for
//! every input shape: arbitrary bank widths and batch lengths (including
//! odd lane remainders), insert-only, mixed, and delete-heavy deltas.
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

fn bank(seed: u64, s: usize) -> PairwiseHashBank {
    let fns: Vec<PairwiseHash> = (0..s as u64)
        .map(|j| PairwiseHash::from_seed(seed ^ (j.wrapping_mul(0x9e37_79b9))))
        .collect();
    PairwiseHashBank::from_functions(&fns)
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

    /// Packed bit extraction ≡ the callback-driven scalar path, for bank
    /// widths straddling every word and lane boundary.
    #[test]
    fn hash_bits_match_for_each_bit(
        seed in any::<u64>(),
        s in 1usize..130,
        xs in vec(any::<u64>(), 1..40),
    ) {
        let bank = bank(seed, s);
        let mut packed = vec![0u64; bank.words()];
        let mut reference = vec![0usize; s];
        for &x in &xs {
            bank.hash_bits_into(x, &mut packed);
            bank.for_each_bit(x, |j, bit| reference[j] = bit);
            for (j, &bit) in reference.iter().enumerate() {
                let got = ((packed[j / 64] >> (j % 64)) & 1) as usize;
                prop_assert_eq!(got, bit, "function {} on input {}", j, x);
            }
            // No stray bits above the bank width.
            if s % 64 != 0 {
                let last = packed[bank.words() - 1];
                prop_assert_eq!(last >> (s % 64), 0, "tail word has stray bits");
            }
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
        let bank = bank(seed, s);
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
        let xrs: Vec<u64> = elems.iter().map(|&e| field::reduce64(e)).collect();

        let mut grouped = vec![0i64; 2 * s];
        bank.accumulate_group(&xrs, &deltas, &mut grouped);

        let mut reference = vec![0i64; 2 * s];
        for (&e, &d) in elems.iter().zip(&deltas) {
            bank.accumulate_row(e, d, &mut reference);
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

/// Field-edge elements (0, 1, P−1, P, P+1, 2⁶¹, u64::MAX, …) hit the
/// reduction seams the random strategy rarely lands on.
#[test]
fn accumulate_group_field_edges() {
    const P: u64 = (1 << 61) - 1;
    let elems: Vec<u64> = vec![
        0,
        1,
        2,
        P - 1,
        P,
        P + 1,
        1 << 61,
        (1 << 62) + 12345,
        u64::MAX - 1,
        u64::MAX,
        0x9e37_79b9_7f4a_7c15,
    ];
    let deltas: Vec<i64> = elems.iter().enumerate().map(|(i, _)| if i % 2 == 0 { 3 } else { -2 }).collect();
    let xrs: Vec<u64> = elems.iter().map(|&e| field::reduce64(e)).collect();
    for s in [1usize, 7, 16, 17, 32] {
        let bank = bank(0xdead_beef ^ s as u64, s);
        let mut grouped = vec![0i64; 2 * s];
        bank.accumulate_group(&xrs, &deltas, &mut grouped);
        let mut reference = vec![0i64; 2 * s];
        for (&e, &d) in elems.iter().zip(&deltas) {
            bank.accumulate_row(e, d, &mut reference);
        }
        assert_eq!(grouped, reference, "s={s}");
    }
}
