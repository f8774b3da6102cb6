//! Batched multi-expression estimation: answer many expressions over the
//! same streams from **one** witness scan.
//!
//! Per sketch copy, witness estimation first finds the union-singleton
//! levels (an OR of the streams' summary masks plus a sign-word test per
//! candidate level) and the union estimate `û`; scoring `B(E)` against
//! those levels is then one bitwise evaluation per expression. A
//! monitoring deployment with dozens of registered queries over the same
//! streams (the engine's `evaluate_all`) therefore batches them: certify
//! each copy's levels and compute `û` once, then score every expression
//! against the copy's occupancy masks.

use super::expression::occupancy;
use super::{union_est, witness, Estimate, EstimatorOptions};
use crate::error::EstimateError;
use crate::family::SketchVector;
use setstream_expr::SetExpr;
use setstream_stream::StreamId;

/// Estimate every expression in `exprs` over the supplied synopses with a
/// single pass over the sketch buckets.
///
/// All expressions are evaluated against the union of **all** supplied
/// streams (their common denominator `û = |∪ streams|`), so the witness
/// identity holds for each of them simultaneously. Streams not referenced
/// by a given expression simply don't appear in its `B(E)`.
///
/// Returns one estimate per input expression, in order.
///
/// # Errors
/// Fails on incompatible synopses, an expression referencing a stream not
/// supplied, or — like the single-expression path — when no bucket is a
/// union-singleton.
pub fn multi_expression(
    exprs: &[SetExpr],
    streams: &[(StreamId, &SketchVector)],
    opts: &EstimatorOptions,
) -> Result<Vec<Estimate>, EstimateError> {
    opts.validate();
    if exprs.is_empty() {
        return Ok(Vec::new());
    }
    let (first, rest) = streams
        .split_first()
        .ok_or_else(|| EstimateError::Incompatible("no sketch vectors supplied".into()))?;
    for (_, v) in rest {
        first.1.check_compatible(v)?;
    }
    // Every expression's streams must be present.
    for expr in exprs {
        for id in expr.streams() {
            if !streams.iter().any(|&(sid, _)| sid == id) {
                return Err(EstimateError::MissingStream(id.0));
            }
        }
    }

    let vectors: Vec<&SketchVector> = streams.iter().map(|&(_, v)| v).collect();
    let copies = first.1.copies();
    let union_opts = EstimatorOptions {
        epsilon: opts.epsilon / 3.0,
        ..*opts
    };
    let u_hat = union_est::union(&vectors, &union_opts)?.value;
    if u_hat == 0.0 {
        return Ok(exprs
            .iter()
            .map(|_| Estimate {
                value: 0.0,
                method: super::EstimateMethod::TrivialEmpty,
                union_estimate: 0.0,
                valid_observations: 0,
                witness_hits: 0,
                copies,
            })
            .collect());
    }

    let ids: Vec<StreamId> = streams.iter().map(|&(id, _)| id).collect();
    let mut hits = vec![0usize; exprs.len()];
    let counts = witness::collect(&vectors, u_hat, opts, |sketches, valid| {
        for (expr, h) in exprs.iter().zip(&mut hits) {
            let witnesses = expr.eval_bits(&|sid| occupancy(&ids, sketches, sid));
            *h += (valid & witnesses).count_ones() as usize;
        }
        0 // hits are tallied per expression above
    });
    let valid = counts.valid;
    if valid == 0 {
        return Err(EstimateError::NoValidObservations);
    }
    Ok(hits
        .into_iter()
        .map(|h| Estimate {
            value: h as f64 / valid as f64 * u_hat,
            method: super::EstimateMethod::MultiWitness,
            union_estimate: u_hat,
            valid_observations: valid,
            witness_hits: h,
            copies,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::SketchFamily;

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(16).seed(71).build()
    }

    fn filled(f: &SketchFamily, range: std::ops::Range<u64>) -> SketchVector {
        let mut v = f.new_vector();
        for e in range {
            v.insert(e);
        }
        v
    }

    #[test]
    fn batch_matches_individual_estimates() {
        let f = family(96);
        let a = filled(&f, 0..4000);
        let b = filled(&f, 2000..6000);
        let opts = EstimatorOptions::default();
        let exprs: Vec<SetExpr> = ["A & B", "A - B", "B - A", "A | B"]
            .iter()
            .map(|t| t.parse().unwrap())
            .collect();
        let pairs = [(StreamId(0), &a), (StreamId(1), &b)];
        let batch = multi_expression(&exprs, &pairs, &opts).unwrap();
        assert_eq!(batch.len(), 4);
        // The batch evaluates against the union of ALL supplied streams —
        // same denominator the per-expression path uses when every stream
        // participates, so the results must agree exactly.
        for (expr, est) in exprs.iter().zip(&batch) {
            let single =
                super::super::expression_with_union(expr, &pairs, est.union_estimate, &opts)
                    .unwrap();
            assert_eq!(est.value, single.value, "{expr}");
            assert_eq!(est.witness_hits, single.witness_hits, "{expr}");
            assert_eq!(est.valid_observations, single.valid_observations);
        }
    }

    #[test]
    fn batch_shares_one_scan() {
        // All estimates report the same valid count and û: one scan, one
        // union estimate.
        let f = family(64);
        let a = filled(&f, 0..2000);
        let b = filled(&f, 1000..3000);
        let exprs: Vec<SetExpr> =
            ["A & B", "A - B"].iter().map(|t| t.parse().unwrap()).collect();
        let batch = multi_expression(
            &exprs,
            &[(StreamId(0), &a), (StreamId(1), &b)],
            &EstimatorOptions::default(),
        )
        .unwrap();
        assert_eq!(batch[0].valid_observations, batch[1].valid_observations);
        assert_eq!(batch[0].union_estimate, batch[1].union_estimate);
    }

    #[test]
    fn complementary_expressions_partition_witnesses() {
        let f = family(64);
        let a = filled(&f, 0..3000);
        let b = filled(&f, 1500..4500);
        let exprs: Vec<SetExpr> = ["A & B", "(A | B) - (A & B)"]
            .iter()
            .map(|t| t.parse().unwrap())
            .collect();
        let batch = multi_expression(
            &exprs,
            &[(StreamId(0), &a), (StreamId(1), &b)],
            &EstimatorOptions::default(),
        )
        .unwrap();
        // ∩ and Δ partition the union: hit counts sum to valid exactly.
        assert_eq!(
            batch[0].witness_hits + batch[1].witness_hits,
            batch[0].valid_observations
        );
    }

    #[test]
    fn empty_batch_and_empty_streams() {
        let f = family(16);
        let a = f.new_vector();
        let pairs = [(StreamId(0), &a)];
        let none = multi_expression(&[], &pairs, &EstimatorOptions::default()).unwrap();
        assert!(none.is_empty());
        let exprs = vec!["A".parse().unwrap()];
        let batch = multi_expression(&exprs, &pairs, &EstimatorOptions::default()).unwrap();
        assert_eq!(batch[0].value, 0.0);
    }

    #[test]
    fn missing_stream_detected_before_scanning() {
        let f = family(16);
        let a = filled(&f, 0..10);
        let exprs = vec!["A & Z".parse().unwrap()];
        assert!(matches!(
            multi_expression(&exprs, &[(StreamId(0), &a)], &EstimatorOptions::default()),
            Err(EstimateError::MissingStream(25))
        ));
    }
}
