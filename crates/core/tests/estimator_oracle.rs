//! The summary-based estimators against the cell-scanning ones they
//! replaced.
//!
//! `reference` below is the estimator code as it read every counter cell
//! on each call: emptiness from `X[ℓ,0,0] + X[ℓ,0,1]`, singletons from a
//! per-`j` walk of both cells, B(E) evaluated level by level. The library
//! now answers from each sketch's occupancy summary. Both must return
//! identical estimates — the same valid and hit counts and the same `f64`
//! bits — under every option preset and at second-level widths that give
//! one, two and three sign words per level.

use setstream_core::estimate::{self, RatioEstimate};
use setstream_core::{
    Estimate, EstimateError, EstimatorOptions, SketchFamily, SketchVector, UnionMode, WitnessMode,
};
use setstream_expr::SetExpr;
use setstream_stream::StreamId;

mod reference {
    use super::*;
    use setstream_core::{EstimateMethod, TwoLevelSketch};

    fn is_level_empty(x: &TwoLevelSketch, level: u32) -> bool {
        x.cell(level, 0, 0).wrapping_add(x.cell(level, 0, 1)) == 0
    }

    fn singleton_bucket(x: &TwoLevelSketch, level: u32) -> bool {
        if is_level_empty(x, level) {
            return false;
        }
        (0..x.second_level()).all(|j| !(x.cell(level, j, 0) > 0 && x.cell(level, j, 1) > 0))
    }

    fn singleton_union_bucket_many(sketches: &[&TwoLevelSketch], level: u32) -> bool {
        if sketches.iter().all(|s| is_level_empty(s, level)) {
            return false;
        }
        (0..sketches[0].second_level()).all(|j| {
            let zero = sketches.iter().any(|s| s.cell(level, j, 0) > 0);
            let one = sketches.iter().any(|s| s.cell(level, j, 1) > 0);
            !(zero && one)
        })
    }

    fn invert_occupancy(count: usize, r: usize, index: usize) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let p_hat = (count as f64 / r as f64).min(1.0 - 0.5 / r as f64);
        let big_r = 2f64.powi(index as i32 + 1);
        (1.0 - p_hat).ln() / (1.0 - 1.0 / big_r).ln()
    }

    fn paper_level_estimate(counts: &[usize], r: usize, epsilon: f64) -> (f64, usize) {
        let f = (1.0 + epsilon) * r as f64 / 8.0;
        let mut index = 0usize;
        while index + 1 < counts.len() && counts[index] as f64 > f {
            index += 1;
        }
        (invert_occupancy(counts[index], r, index), index)
    }

    fn pooled_estimate(counts: &[usize], r: usize) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (j, &count) in counts.iter().enumerate() {
            if count == 0 || count == r {
                continue;
            }
            let p_hat = count as f64 / r as f64;
            let big_r = 2f64.powi(j as i32 + 1);
            let log_base = (1.0 - 1.0 / big_r).ln();
            let u_j = (1.0 - p_hat).ln() / log_base;
            let variance = p_hat / (r as f64 * (1.0 - p_hat) * log_base * log_base);
            if variance <= 0.0 || !variance.is_finite() {
                continue;
            }
            let w = 1.0 / variance;
            num += w * u_j;
            den += w;
        }
        if den == 0.0 {
            if counts.iter().all(|&c| c == 0) {
                0.0
            } else {
                invert_occupancy(counts[counts.len() - 1], r, counts.len() - 1)
            }
        } else {
            num / den
        }
    }

    pub fn union(vectors: &[&SketchVector], opts: &EstimatorOptions) -> Estimate {
        let r = vectors[0].copies();
        let levels = vectors[0].family().config().levels;
        let mut counts = vec![0usize; levels as usize];
        for i in 0..r {
            for (level, slot) in counts.iter_mut().enumerate() {
                if vectors.iter().any(|v| !is_level_empty(&v.sketches()[i], level as u32)) {
                    *slot += 1;
                }
            }
        }
        let (value, level_used) = match opts.union_mode {
            UnionMode::PaperLevel => paper_level_estimate(&counts, r, opts.epsilon),
            UnionMode::Pooled => (pooled_estimate(&counts, r), 0),
        };
        Estimate {
            value,
            method: EstimateMethod::Union,
            union_estimate: value,
            valid_observations: r,
            witness_hits: counts.get(level_used).copied().unwrap_or(0),
            copies: r,
        }
    }

    fn witness_index(u_hat: f64, levels: u32, opts: &EstimatorOptions) -> u32 {
        let target = (opts.beta * u_hat.max(1.0)) / (1.0 - opts.epsilon);
        (target.log2().ceil().max(0.0) as u32).min(levels - 1)
    }

    /// `(valid, hits)` over the buckets in scope.
    fn collect(
        vectors: &[&SketchVector],
        u_hat: f64,
        opts: &EstimatorOptions,
        mut is_witness: impl FnMut(&[&TwoLevelSketch], u32) -> bool,
    ) -> (usize, usize) {
        let levels = vectors[0].family().config().levels;
        let range = match opts.witness_mode {
            WitnessMode::SingleBucket => {
                let idx = witness_index(u_hat, levels, opts);
                idx..idx + 1
            }
            WitnessMode::AllLevels => 0..levels,
        };
        let (mut valid, mut hits) = (0, 0);
        for i in 0..vectors[0].copies() {
            let copy: Vec<&TwoLevelSketch> = vectors.iter().map(|v| &v.sketches()[i]).collect();
            for level in range.clone() {
                if singleton_union_bucket_many(&copy, level) {
                    valid += 1;
                    if is_witness(&copy, level) {
                        hits += 1;
                    }
                }
            }
        }
        (valid, hits)
    }

    fn trivial(copies: usize) -> Estimate {
        Estimate {
            value: 0.0,
            method: EstimateMethod::TrivialEmpty,
            union_estimate: 0.0,
            valid_observations: 0,
            witness_hits: 0,
            copies,
        }
    }

    fn witness_estimate(
        vectors: &[&SketchVector],
        opts: &EstimatorOptions,
        is_witness: impl FnMut(&[&TwoLevelSketch], u32) -> bool,
    ) -> Result<Estimate, EstimateError> {
        let union_opts = EstimatorOptions {
            epsilon: opts.epsilon / 3.0,
            ..*opts
        };
        let u_hat = union(vectors, &union_opts).value;
        let copies = vectors[0].copies();
        if u_hat == 0.0 {
            return Ok(trivial(copies));
        }
        let (valid, hits) = collect(vectors, u_hat, opts, is_witness);
        if valid == 0 {
            return Err(EstimateError::NoValidObservations);
        }
        Ok(Estimate {
            value: hits as f64 / valid as f64 * u_hat,
            method: EstimateMethod::Witness,
            union_estimate: u_hat,
            valid_observations: valid,
            witness_hits: hits,
            copies,
        })
    }

    pub fn difference(
        a: &SketchVector,
        b: &SketchVector,
        opts: &EstimatorOptions,
    ) -> Result<Estimate, EstimateError> {
        witness_estimate(&[a, b], opts, |s, level| {
            singleton_bucket(s[0], level) && is_level_empty(s[1], level)
        })
    }

    pub fn intersection(
        a: &SketchVector,
        b: &SketchVector,
        opts: &EstimatorOptions,
    ) -> Result<Estimate, EstimateError> {
        witness_estimate(&[a, b], opts, |s, level| {
            singleton_bucket(s[0], level) && singleton_bucket(s[1], level)
        })
    }

    fn present(ids: &[StreamId], copy: &[&TwoLevelSketch], level: u32, sid: StreamId) -> bool {
        ids.iter()
            .position(|&id| id == sid)
            .is_some_and(|k| !is_level_empty(copy[k], level))
    }

    pub fn expression(
        expr: &SetExpr,
        streams: &[(StreamId, &SketchVector)],
        opts: &EstimatorOptions,
    ) -> Result<Estimate, EstimateError> {
        let ids = expr.streams();
        let vectors: Vec<&SketchVector> = ids
            .iter()
            .map(|id| streams.iter().find(|(sid, _)| sid == id).unwrap().1)
            .collect();
        witness_estimate(&vectors, opts, |copy, level| {
            expr.eval_bool(&|sid| present(&ids, copy, level, sid))
        })
    }

    pub fn multi_expression(
        exprs: &[SetExpr],
        streams: &[(StreamId, &SketchVector)],
        opts: &EstimatorOptions,
    ) -> Result<Vec<Estimate>, EstimateError> {
        let ids: Vec<StreamId> = streams.iter().map(|&(id, _)| id).collect();
        let vectors: Vec<&SketchVector> = streams.iter().map(|&(_, v)| v).collect();
        let union_opts = EstimatorOptions {
            epsilon: opts.epsilon / 3.0,
            ..*opts
        };
        let u_hat = union(&vectors, &union_opts).value;
        let copies = vectors[0].copies();
        if u_hat == 0.0 {
            return Ok(exprs.iter().map(|_| trivial(copies)).collect());
        }
        let mut hits = vec![0usize; exprs.len()];
        let (valid, _) = collect(&vectors, u_hat, opts, |copy, level| {
            for (expr, h) in exprs.iter().zip(&mut hits) {
                if expr.eval_bool(&|sid| present(&ids, copy, level, sid)) {
                    *h += 1;
                }
            }
            false
        });
        if valid == 0 {
            return Err(EstimateError::NoValidObservations);
        }
        Ok(hits
            .into_iter()
            .map(|h| Estimate {
                value: h as f64 / valid as f64 * u_hat,
                method: EstimateMethod::MultiWitness,
                union_estimate: u_hat,
                valid_observations: valid,
                witness_hits: h,
                copies,
            })
            .collect())
    }

    pub fn jaccard(
        a: &SketchVector,
        b: &SketchVector,
        opts: &EstimatorOptions,
    ) -> Result<RatioEstimate, EstimateError> {
        let u_hat = union(&[a, b], opts).value;
        let (valid, hits) = collect(&[a, b], u_hat, opts, |s, level| {
            singleton_bucket(s[0], level) && singleton_bucket(s[1], level)
        });
        if valid == 0 {
            return Err(EstimateError::NoValidObservations);
        }
        Ok(RatioEstimate {
            ratio: hits as f64 / valid as f64,
            valid_observations: valid,
            numerator_hits: hits,
            denominator_hits: valid,
        })
    }

    pub fn containment(
        a: &SketchVector,
        b: &SketchVector,
        opts: &EstimatorOptions,
    ) -> Result<RatioEstimate, EstimateError> {
        let u_hat = union(&[a, b], opts).value;
        let (mut in_a, mut in_both) = (0usize, 0usize);
        let (valid, _) = collect(&[a, b], u_hat, opts, |s, level| {
            let a_has = singleton_bucket(s[0], level);
            if a_has {
                in_a += 1;
                in_both += usize::from(singleton_bucket(s[1], level));
            }
            a_has
        });
        if in_a == 0 {
            return Err(EstimateError::NoValidObservations);
        }
        Ok(RatioEstimate {
            ratio: (in_both as f64 / in_a as f64).min(1.0),
            valid_observations: valid,
            numerator_hits: in_both,
            denominator_hits: in_a,
        })
    }
}

/// Field-by-field equality with `f64`s compared by their bits.
fn assert_same(
    fast: &Result<Estimate, EstimateError>,
    slow: &Result<Estimate, EstimateError>,
    what: &str,
) {
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            let values = format!("{what}: value {} vs {}", f.value, s.value);
            assert_eq!(f.value.to_bits(), s.value.to_bits(), "{values}");
            assert_eq!(f.union_estimate.to_bits(), s.union_estimate.to_bits(), "{what}: û");
            assert_eq!(
                (f.method, f.valid_observations, f.witness_hits, f.copies),
                (s.method, s.valid_observations, s.witness_hits, s.copies),
                "{what}"
            );
        }
        _ => assert_eq!(fast, slow, "{what}"),
    }
}

fn assert_same_ratio(
    fast: &Result<RatioEstimate, EstimateError>,
    slow: &Result<RatioEstimate, EstimateError>,
    what: &str,
) {
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            assert_eq!(f.ratio.to_bits(), s.ratio.to_bits(), "{what}: ratio");
            assert_eq!(f, s, "{what}");
        }
        _ => assert_eq!(fast, slow, "{what}"),
    }
}

/// The option presets, plus the two mixed combinations.
fn option_sets() -> Vec<(&'static str, EstimatorOptions)> {
    let mixed = |witness_mode, union_mode| EstimatorOptions {
        witness_mode,
        union_mode,
        ..EstimatorOptions::default()
    };
    vec![
        ("default", EstimatorOptions::default()),
        ("paper", EstimatorOptions::paper()),
        ("single+pooled", mixed(WitnessMode::SingleBucket, UnionMode::Pooled)),
        ("all+paper", mixed(WitnessMode::AllLevels, UnionMode::PaperLevel)),
    ]
}

fn filled(family: &SketchFamily, range: std::ops::Range<u64>, churn: u64) -> SketchVector {
    let mut v = family.new_vector();
    let updates: Vec<setstream_stream::Update> = range
        .map(|e| setstream_stream::Update::insert(StreamId(0), e, 1 + (e % 3) as u32))
        .collect();
    v.update_batch(&updates);
    // Churn: inserted then deleted again, so it must leave no trace.
    for e in 1_000_000..1_000_000 + churn {
        v.insert(e);
    }
    for e in 1_000_000..1_000_000 + churn {
        v.delete(e);
    }
    v
}

/// Streams A, B, C with overlaps, small D (sparse buckets), and a delta
/// E = A − B with negative cells.
fn streams(s: u32) -> Vec<SketchVector> {
    let family = SketchFamily::builder()
        .copies(40)
        .second_level(s)
        .seed(0xfeed ^ u64::from(s))
        .build();
    let a = filled(&family, 0..3000, 200);
    let b = filled(&family, 2000..4500, 0);
    let c = filled(&family, 1000..2600, 50);
    let d = filled(&family, 2990..3010, 0);
    let e = a.delta_since(&b).unwrap();
    vec![a, b, c, d, e]
}

const WIDTHS: [u32; 6] = [1, 8, 32, 33, 64, 65];

const EXPRS: [&str; 8] = [
    "A - B",
    "A & B",
    "(A | B) - C",
    "A & B & C",
    "C - (A & B)",
    "(A - C) | (D & B)",
    "D - A",
    "(A | E) - D",
];

#[test]
fn binary_estimators_match_the_cell_scan() {
    for s in WIDTHS {
        let v = streams(s);
        for (name, opts) in option_sets() {
            for (x, y) in [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0), (0, 4), (4, 1), (3, 3)] {
                let (a, b) = (&v[x], &v[y]);
                let what = format!("s={s} {name} ({x},{y})");
                assert_same(
                    &estimate::union(&[a, b], &opts),
                    &Ok(reference::union(&[a, b], &opts)),
                    &format!("{what} union"),
                );
                assert_same(
                    &estimate::difference(a, b, &opts),
                    &reference::difference(a, b, &opts),
                    &format!("{what} difference"),
                );
                assert_same(
                    &estimate::intersection(a, b, &opts),
                    &reference::intersection(a, b, &opts),
                    &format!("{what} intersection"),
                );
                assert_same_ratio(
                    &estimate::jaccard(a, b, &opts),
                    &reference::jaccard(a, b, &opts),
                    &format!("{what} jaccard"),
                );
                assert_same_ratio(
                    &estimate::containment(a, b, &opts),
                    &reference::containment(a, b, &opts),
                    &format!("{what} containment"),
                );
            }
            let all: Vec<&SketchVector> = v.iter().collect();
            assert_same(
                &estimate::union(&all, &opts),
                &Ok(reference::union(&all, &opts)),
                &format!("s={s} {name} 5-way union"),
            );
        }
    }
}

#[test]
fn expression_estimators_match_the_cell_scan() {
    let exprs: Vec<SetExpr> = EXPRS.iter().map(|t| t.parse().unwrap()).collect();
    for s in WIDTHS {
        let v = streams(s);
        let pairs: Vec<(StreamId, &SketchVector)> =
            v.iter().enumerate().map(|(i, x)| (StreamId(i as u32), x)).collect();
        for (name, opts) in option_sets() {
            for expr in &exprs {
                assert_same(
                    &estimate::expression(expr, &pairs, &opts),
                    &reference::expression(expr, &pairs, &opts),
                    &format!("s={s} {name} {expr}"),
                );
            }
            let fast = estimate::multi_expression(&exprs, &pairs, &opts);
            let slow = reference::multi_expression(&exprs, &pairs, &opts);
            match (fast, slow) {
                (Ok(f), Ok(sl)) => {
                    for ((expr, f), sl) in exprs.iter().zip(&f).zip(&sl) {
                        assert_same(&Ok(*f), &Ok(*sl), &format!("s={s} {name} multi {expr}"));
                    }
                }
                (f, sl) => assert_eq!(f, sl, "s={s} {name} multi"),
            }
        }
    }
}

type Estimator =
    fn(&SketchVector, &SketchVector, &EstimatorOptions) -> Result<Estimate, EstimateError>;

#[test]
fn boosted_estimators_match_the_cell_scan() {
    for s in WIDTHS {
        let v = streams(s);
        for (name, opts) in option_sets() {
            for groups in [1, 3, 8] {
                let what = format!("s={s} {name} groups={groups}");
                let boosted = |x: usize, y: usize, f: Estimator| {
                    estimate::median_of_groups(&v[x], &v[y], groups, &opts, f)
                };
                assert_same(
                    &boosted(0, 1, estimate::intersection),
                    &boosted(0, 1, reference::intersection),
                    &format!("{what} intersection"),
                );
                assert_same(
                    &boosted(0, 2, estimate::difference),
                    &boosted(0, 2, reference::difference),
                    &format!("{what} difference"),
                );
            }
        }
    }
}

#[test]
fn empty_and_null_inputs_match_the_cell_scan() {
    let family = SketchFamily::builder().copies(16).second_level(33).seed(3).build();
    let (a, b) = (family.new_vector(), family.new_vector());
    for (name, opts) in option_sets() {
        assert_same(
            &estimate::union(&[&a, &b], &opts),
            &Ok(reference::union(&[&a, &b], &opts)),
            &format!("{name} empty union"),
        );
        assert_same(
            &estimate::difference(&a, &b, &opts),
            &reference::difference(&a, &b, &opts),
            &format!("{name} empty difference"),
        );
        assert_same_ratio(
            &estimate::jaccard(&a, &b, &opts),
            &reference::jaccard(&a, &b, &opts),
            &format!("{name} empty jaccard"),
        );
    }
}
