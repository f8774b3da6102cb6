//! The general set-expression estimator (§4).
//!
//! The expression `E` is mapped to a Boolean formula `B(E)` over per-stream
//! bucket occupancy; a union-singleton bucket whose occupancy pattern
//! satisfies `B(E)` witnesses an element of `E`, and
//! `Pr[witness | union singleton] = |E| / |∪ᵢAᵢ|` exactly as in the binary
//! cases. This yields one uniform algorithm for every operator mix — the
//! paper notes this is also an alternative (slightly looser-constant) way
//! to do plain union.

use super::{union_est, witness, Estimate, EstimatorOptions};
use crate::error::EstimateError;
use crate::family::SketchVector;
use crate::sketch::TwoLevelSketch;
use setstream_expr::SetExpr;
use setstream_stream::StreamId;

/// Estimate `|E|` over the supplied per-stream synopses, deriving the
/// union estimate internally.
///
/// `streams` maps stream ids to synopses; every stream referenced by
/// `expr` must be present (extra entries are ignored), and all synopses
/// must come from one family.
pub fn expression(
    expr: &SetExpr,
    streams: &[(StreamId, &SketchVector)],
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    opts.validate();
    let participating = resolve(expr, streams)?;
    let vectors: Vec<&SketchVector> = participating.iter().map(|&(_, v)| v).collect();
    let union_opts = EstimatorOptions {
        epsilon: opts.epsilon / 3.0,
        ..*opts
    };
    let u_hat = union_est::union(&vectors, &union_opts)?.value;
    estimate_with(expr, &participating, u_hat, opts)
}

/// Estimate `|E|` scaling by a caller-supplied union estimate `û` (the
/// union over the streams participating in `expr`).
pub fn expression_with_union(
    expr: &SetExpr,
    streams: &[(StreamId, &SketchVector)],
    u_hat: f64,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    opts.validate();
    let participating = resolve(expr, streams)?;
    estimate_with(expr, &participating, u_hat, opts)
}

/// Collect the synopses for exactly the streams `expr` references, in
/// `expr.streams()` order.
fn resolve<'a>(
    expr: &SetExpr,
    streams: &[(StreamId, &'a SketchVector)],
) -> Result<Vec<(StreamId, &'a SketchVector)>, EstimateError> {
    let mut participating = Vec::new();
    for id in expr.streams() {
        let v = streams
            .iter()
            .find(|&&(sid, _)| sid == id)
            .map(|&(_, v)| v)
            .ok_or(EstimateError::MissingStream(id.0))?;
        participating.push((id, v));
    }
    Ok(participating)
}

fn estimate_with(
    expr: &SetExpr,
    participating: &[(StreamId, &SketchVector)],
    u_hat: f64,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    let vectors: Vec<&SketchVector> = participating.iter().map(|&(_, v)| v).collect();
    let copies = witness::validate_vectors(&vectors)?;
    if u_hat == 0.0 {
        return Ok(Estimate {
            value: 0.0,
            method: super::EstimateMethod::TrivialEmpty,
            union_estimate: 0.0,
            valid_observations: 0,
            witness_hits: 0,
            copies,
        });
    }
    let ids: Vec<StreamId> = participating.iter().map(|&(id, _)| id).collect();
    let counts = witness::collect(&vectors, u_hat, opts, |sketches, _| {
        // B(E) over every level of the copy at once: stream Aᵢ "present"
        // at a level iff its bucket there is non-empty; valid because the
        // bucket is a union singleton, so non-emptiness pins the one
        // element's membership in Aᵢ.
        expr.eval_bits(&|sid| occupancy(&ids, sketches, sid))
    });
    witness::finish(counts, u_hat, copies)
}

/// Stream `sid`'s occupied levels in one copy: `sketches` is
/// index-aligned with `ids`; a stream not among them is absent everywhere.
pub(super) fn occupancy(ids: &[StreamId], sketches: &[&TwoLevelSketch], sid: StreamId) -> u64 {
    ids.iter()
        .zip(sketches)
        .find(|&(&id, _)| id == sid)
        .map_or(0, |(_, sk)| sk.occupied_levels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::SketchFamily;

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(16).seed(25).build()
    }

    fn filled(f: &SketchFamily, range: std::ops::Range<u64>) -> SketchVector {
        let mut v = f.new_vector();
        for e in range {
            v.insert(e);
        }
        v
    }

    #[test]
    fn missing_stream_is_reported() {
        let f = family(16);
        let a = filled(&f, 0..10);
        let expr: SetExpr = "A & B".parse().unwrap();
        let err = expression(&expr, &[(StreamId(0), &a)], &EstimatorOptions::default())
            .unwrap_err();
        assert_eq!(err, EstimateError::MissingStream(1));
    }

    #[test]
    fn binary_difference_agrees_with_specialized_estimator() {
        let f = family(128);
        let a = filled(&f, 0..4000);
        let b = filled(&f, 2000..6000);
        let opts = EstimatorOptions::default();
        let expr: SetExpr = "A - B".parse().unwrap();
        let u_hat = 6000.0;
        let via_expr =
            expression_with_union(&expr, &[(StreamId(0), &a), (StreamId(1), &b)], u_hat, &opts)
                .unwrap();
        let via_diff =
            crate::estimate::difference_with_union(&a, &b, u_hat, &opts).unwrap();
        assert_eq!(via_expr.value, via_diff.value);
        assert_eq!(via_expr.valid_observations, via_diff.valid_observations);
        assert_eq!(via_expr.witness_hits, via_diff.witness_hits);
    }

    #[test]
    fn binary_intersection_agrees_with_specialized_estimator() {
        let f = family(128);
        let a = filled(&f, 0..4000);
        let b = filled(&f, 2000..6000);
        let opts = EstimatorOptions::default();
        let expr: SetExpr = "A & B".parse().unwrap();
        let u_hat = 6000.0;
        let via_expr =
            expression_with_union(&expr, &[(StreamId(0), &a), (StreamId(1), &b)], u_hat, &opts)
                .unwrap();
        let via_int =
            crate::estimate::intersection_with_union(&a, &b, u_hat, &opts).unwrap();
        assert_eq!(via_expr.value, via_int.value);
        assert_eq!(via_expr.witness_hits, via_int.witness_hits);
    }

    #[test]
    fn three_stream_expression_tracks_truth() {
        let f = family(256);
        // A = 0..6000, B = 2000..8000, C = 4000..10000.
        // (A − B) ∩ C = (0..2000) ∩ (4000..10000) = ∅ … pick better ranges:
        // (A − B) = 0..2000; ∩ C = ∅. Use C = 1000..5000 instead:
        let a = filled(&f, 0..6000);
        let b = filled(&f, 2000..8000);
        let c = filled(&f, 1000..5000);
        // (A − B) = 0..2000, ∩ C = 1000..2000 → 1000 elements.
        let expr: SetExpr = "(A - B) & C".parse().unwrap();
        let e = expression(
            &expr,
            &[(StreamId(0), &a), (StreamId(1), &b), (StreamId(2), &c)],
            &EstimatorOptions::default(),
        )
        .unwrap();
        let rel = (e.value - 1000.0).abs() / 1000.0;
        assert!(rel < 0.5, "estimate {} rel {rel}", e.value);
    }

    #[test]
    fn union_via_expression_matches_direct_union_roughly() {
        let f = family(256);
        let a = filled(&f, 0..3000);
        let b = filled(&f, 2000..5000);
        let opts = EstimatorOptions::default();
        let expr: SetExpr = "A | B".parse().unwrap();
        let e = expression(&expr, &[(StreamId(0), &a), (StreamId(1), &b)], &opts).unwrap();
        // Witness-based union: every union singleton is a witness, so the
        // estimate equals û exactly.
        assert_eq!(e.witness_hits, e.valid_observations);
        let rel = (e.value - 5000.0).abs() / 5000.0;
        assert!(rel < 0.15, "estimate {}", e.value);
    }

    #[test]
    fn extra_streams_are_ignored() {
        let f = family(64);
        let a = filled(&f, 0..500);
        let b = filled(&f, 0..500);
        let unrelated = filled(&f, 9_000..9_500);
        let expr: SetExpr = "A & B".parse().unwrap();
        let with_extra = expression(
            &expr,
            &[
                (StreamId(0), &a),
                (StreamId(1), &b),
                (StreamId(9), &unrelated),
            ],
            &EstimatorOptions::default(),
        )
        .unwrap();
        let without = expression(
            &expr,
            &[(StreamId(0), &a), (StreamId(1), &b)],
            &EstimatorOptions::default(),
        )
        .unwrap();
        assert_eq!(with_extra.value, without.value);
    }

    #[test]
    fn empty_expression_result() {
        let f = family(64);
        let a = filled(&f, 0..1000);
        let b = filled(&f, 0..1000);
        let expr: SetExpr = "A - B".parse().unwrap(); // empty
        let e = expression(&expr, &[(StreamId(0), &a), (StreamId(1), &b)], &EstimatorOptions::default())
            .unwrap();
        assert_eq!(e.witness_hits, 0);
        assert_eq!(e.value, 0.0);
    }
}
