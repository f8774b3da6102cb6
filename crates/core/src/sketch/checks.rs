//! Elementary property checks over first-level buckets (Figure 4 of the
//! paper).
//!
//! Each check inspects the `s` second-level counter pairs of a bucket and
//! draws a probabilistic conclusion about its *distinct-element* content.
//! By Lemma 3.1 every check errs with probability at most `2^{-s}`
//! (pairwise independence of each `gⱼ` plus independence across `j`).
//!
//! Because legal update streams keep every element's net frequency
//! non-negative, each counter is the sum of non-negative per-element
//! contributions: a cell is positive **iff** some element with positive net
//! frequency hashes to it — exactly the predicate the paper's pseudocode
//! tests.
//!
//! The checks read the sketch's occupancy summary (see
//! [`TwoLevelSketch`]) rather than its cells: a bucket is a singleton when
//! its emptiness probe fires and no `gⱼ` has both cells positive, and two
//! buckets hold the same singleton when their sign words agree. The
//! `*_levels` forms answer a check for every level at once, as a mask.

use super::two_level::{levels_of, TwoLevelSketch, EVEN_BITS};

/// The levels whose bucket is a non-empty singleton:
/// [`singleton_bucket`] for every level at once.
#[inline]
pub fn singleton_levels(x: &TwoLevelSketch) -> u64 {
    x.occupied_levels() & !x.multi_levels()
}

/// `SingletonBucket(𝒳, i)`: does first-level bucket `level` contain
/// exactly one distinct element (with positive net frequency)?
///
/// Returns `false` for an empty bucket. May wrongly report `true` for a
/// multi-element bucket with probability `≤ 2^{-s}` (all second-level
/// functions agree on every pair of its elements); never errs on true
/// singletons or empty buckets.
pub fn singleton_bucket(x: &TwoLevelSketch, level: u32) -> bool {
    singleton_levels(x) >> level & 1 == 1
}

/// `IdenticalSingletonBucket(𝒳_A, 𝒳_B, i)`: are both buckets singletons
/// holding the *same* value?
///
/// The sketches must share coins (same first/second-level hash functions);
/// callers uphold this via [`TwoLevelSketch::compatible`].
pub fn identical_singleton_bucket(a: &TwoLevelSketch, b: &TwoLevelSketch, level: u32) -> bool {
    debug_assert!(a.compatible(b), "checks require sketches with shared coins");
    // The singleton's value determines which of the two cells is positive
    // for every gⱼ: equal sign words mean equal occupancy signatures.
    singleton_bucket(a, level)
        && singleton_bucket(b, level)
        && a.sign_words(level) == b.sign_words(level)
}

/// `SingletonUnionBucket(𝒳_A, 𝒳_B, i)`: does the *union* of the two
/// buckets contain exactly one distinct value? (One singleton + one empty,
/// or two identical singletons.)
pub fn singleton_union_bucket(a: &TwoLevelSketch, b: &TwoLevelSketch, level: u32) -> bool {
    debug_assert!(a.compatible(b), "checks require sketches with shared coins");
    if singleton_bucket(a, level) && b.is_level_empty(level) {
        return true;
    }
    if singleton_bucket(b, level) && a.is_level_empty(level) {
        return true;
    }
    identical_singleton_bucket(a, b, level)
}

/// n-ary generalization used by the §4 expression estimator: is the union
/// of bucket `level` over *all* sketches a singleton?
///
/// Equivalent to running [`singleton_bucket`] on the merged sketch (legal
/// streams ⇒ summed cells are positive iff any operand's cell is), without
/// materializing the merge.
pub fn singleton_union_bucket_many(sketches: &[&TwoLevelSketch], level: u32) -> bool {
    singleton_union_levels(sketches, 1 << level) != 0
}

/// Among the `candidates` levels, those whose bucket is a singleton for the
/// union of all `sketches`: [`singleton_union_bucket_many`] for many
/// levels at once.
///
/// A level qualifies when some sketch's emptiness probe fires there and,
/// with the sketches' sign words OR-ed together, no `gⱼ` has both cells
/// positive. A sketch with a multi-element bucket already fails that test,
/// so only levels outside every sketch's [`TwoLevelSketch::multi_levels`]
/// have their sign words read.
pub fn singleton_union_levels(sketches: &[&TwoLevelSketch], candidates: u64) -> u64 {
    debug_assert!(sketches.iter().zip(sketches.iter().skip(1)).all(|(a, b)| a.compatible(b)));
    let (occupied, multi) = sketches.iter().fold((0u64, 0u64), |(o, m), s| {
        (o | s.occupied_levels(), m | s.multi_levels())
    });
    let mut levels = occupied & !multi & candidates;
    if sketches.len() > 1 {
        for level in levels_of(levels) {
            if !one_cell_per_function(sketches, level) {
                levels &= !(1 << level);
            }
        }
    }
    levels
}

/// With the sketches' sign words of `level` OR-ed together, does every
/// second-level function have at most one positive cell?
fn one_cell_per_function(sketches: &[&TwoLevelSketch], level: u32) -> bool {
    let width = sketches.first().map_or(0, |s| s.sign_words(level).len());
    (0..width).all(|w| {
        let p = sketches
            .iter()
            .filter_map(|s| s.sign_words(level).get(w))
            .fold(0, |p, &x| p | x);
        p & p >> 1 & EVEN_BITS == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchConfig;

    fn sketch() -> TwoLevelSketch {
        TwoLevelSketch::new(
            SketchConfig {
                levels: 4, // few levels → elements pile into few buckets
                second_level: 32,
                ..Default::default()
            },
            21,
        )
    }

    /// Find an element hashing to the given level.
    fn element_at_level(s: &TwoLevelSketch, level: u32, avoid: &[u64]) -> u64 {
        (0..100_000u64)
            .find(|e| s.bucket_of(*e) == level && !avoid.contains(e))
            .expect("no element found for level")
    }

    #[test]
    fn empty_bucket_is_not_singleton() {
        let s = sketch();
        for l in 0..4 {
            assert!(!singleton_bucket(&s, l));
        }
    }

    #[test]
    fn single_element_is_singleton_any_multiplicity() {
        let mut s = sketch();
        let e = element_at_level(&s, 2, &[]);
        s.update(e, 5);
        assert!(singleton_bucket(&s, 2));
    }

    #[test]
    fn two_distinct_elements_are_detected() {
        let mut s = sketch();
        let e1 = element_at_level(&s, 1, &[]);
        let e2 = element_at_level(&s, 1, &[e1]);
        s.insert(e1);
        s.insert(e2);
        // With s = 32 the failure probability is 2^-32.
        assert!(!singleton_bucket(&s, 1));
    }

    #[test]
    fn deletion_restores_singleton() {
        let mut s = sketch();
        let e1 = element_at_level(&s, 0, &[]);
        let e2 = element_at_level(&s, 0, &[e1]);
        s.insert(e1);
        s.insert(e2);
        assert!(!singleton_bucket(&s, 0));
        s.delete(e2);
        assert!(singleton_bucket(&s, 0));
    }

    #[test]
    fn identical_singleton_positive_and_negative() {
        let base = sketch();
        let e1 = element_at_level(&base, 3, &[]);
        let e2 = element_at_level(&base, 3, &[e1]);

        let mut a = base.clone();
        let mut b = base.clone();
        a.insert(e1);
        b.insert(e1);
        assert!(identical_singleton_bucket(&a, &b, 3));
        assert!(singleton_union_bucket(&a, &b, 3));

        let mut c = base.clone();
        c.insert(e2);
        assert!(!identical_singleton_bucket(&a, &c, 3));
        assert!(!singleton_union_bucket(&a, &c, 3));
    }

    #[test]
    fn singleton_union_with_one_empty_side() {
        let base = sketch();
        let e = element_at_level(&base, 2, &[]);
        let mut a = base.clone();
        a.insert(e);
        let b = base.clone();
        assert!(singleton_union_bucket(&a, &b, 2));
        assert!(singleton_union_bucket(&b, &a, 2));
        // Both empty → not a singleton.
        assert!(!singleton_union_bucket(&base, &base.clone(), 2));
    }

    #[test]
    fn many_way_union_matches_merged_singleton_check() {
        let base = sketch();
        let e1 = element_at_level(&base, 1, &[]);
        let e2 = element_at_level(&base, 1, &[e1]);
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        a.insert(e1);
        b.insert(e1);

        assert!(singleton_union_bucket_many(&[&a, &b, &c], 1));
        let merged = a.merged(&b).unwrap().merged(&c).unwrap();
        assert!(singleton_bucket(&merged, 1));

        c.insert(e2);
        assert!(!singleton_union_bucket_many(&[&a, &b, &c], 1));
        let merged = a.merged(&b).unwrap().merged(&c).unwrap();
        assert!(!singleton_bucket(&merged, 1));
    }

    #[test]
    fn many_way_union_binary_case_agrees_with_paper_procedure() {
        let base = sketch();
        // Exhaustively compare the two formulations over several contents.
        let e1 = element_at_level(&base, 0, &[]);
        let e2 = element_at_level(&base, 0, &[e1]);
        let contents: &[(&[u64], &[u64])] = &[
            (&[], &[]),
            (&[e1], &[]),
            (&[], &[e2]),
            (&[e1], &[e1]),
            (&[e1], &[e2]),
            (&[e1, e2], &[]),
            (&[e1, e2], &[e1]),
        ];
        for (ca, cb) in contents {
            let mut a = base.clone();
            let mut b = base.clone();
            for &e in *ca {
                a.insert(e);
            }
            for &e in *cb {
                b.insert(e);
            }
            assert_eq!(
                singleton_union_bucket(&a, &b, 0),
                singleton_union_bucket_many(&[&a, &b], 0),
                "contents {ca:?} / {cb:?}"
            );
        }
    }

    #[test]
    fn empty_sketch_list_is_not_singleton() {
        assert!(!singleton_union_bucket_many(&[], 0));
    }
}
