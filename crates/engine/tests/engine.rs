//! Integration tests for the continuous query engine.

use setstream_core::{EstimateMethod, SketchFamily};
use setstream_engine::{EngineError, StreamEngine, SubscriptionOptions, Tolerance};
use setstream_expr::SetExpr;
use setstream_stream::{StreamId, Update};

fn family() -> SketchFamily {
    SketchFamily::builder()
        .copies(128)
        .second_level(16)
        .seed(0xabc)
        .build()
}

fn engine_with_data() -> StreamEngine {
    let mut engine = StreamEngine::new(family());
    // A = 0..4000, B = 2000..6000, C = 3000..5000.
    for e in 0..4000u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
    }
    for e in 2000..6000u64 {
        engine.process(&Update::insert(StreamId(1), e, 1));
    }
    for e in 3000..5000u64 {
        engine.process(&Update::insert(StreamId(2), e, 1));
    }
    engine
}

fn expr(text: &str) -> SetExpr {
    text.parse().unwrap()
}

fn rule(tolerance: Tolerance) -> SubscriptionOptions {
    SubscriptionOptions::builder()
        .tolerance(tolerance)
        .build()
        .unwrap()
}

#[test]
fn registered_queries_answer_close_to_truth() {
    let mut engine = engine_with_data();
    let cases = [
        ("A & B", 2000.0),
        ("A - B", 2000.0),
        ("A | B", 6000.0),
        ("(A & B) - C", 1000.0), // A∩B = 2000..4000, −C = 2000..3000
    ];
    let ids: Vec<_> = cases
        .iter()
        .map(|(text, _)| {
            engine
                .subscribe(expr(text), SubscriptionOptions::default())
                .unwrap()
        })
        .collect();
    let initial = engine.publish_epoch();
    assert_eq!(initial.len(), cases.len());
    for ((text, truth), id) in cases.iter().zip(ids) {
        let event = initial.iter().find(|e| e.sub_id == id).unwrap();
        let rel = (event.new - truth).abs() / truth;
        assert!(rel < 0.45, "{text}: estimate {} (truth {truth})", event.new);
        // The standing answer is the ad-hoc answer, bit for bit.
        assert_eq!(
            engine.evaluate(&expr(text)).unwrap().value.to_bits(),
            event.new.to_bits()
        );
    }
}

#[test]
fn queries_are_simplified_on_registration() {
    let mut engine = engine_with_data();
    let id = engine
        .subscribe(expr("A | (A & B)"), SubscriptionOptions::default())
        .unwrap();
    // The simplified query only touches stream A, and an equivalent
    // subscription shares its expression class.
    let sub = engine.subscription(id).unwrap();
    assert_eq!(sub.expr().to_string(), "A");
    assert_eq!(sub.expr().streams(), vec![StreamId(0)]);
    assert_eq!(engine.subscription_classes(), 1);
    engine
        .subscribe(expr("A"), SubscriptionOptions::default())
        .unwrap();
    assert_eq!(engine.subscription_classes(), 1);
    let est = engine.evaluate(&expr("A | (A & B)")).unwrap();
    let rel = (est.value - 4000.0).abs() / 4000.0;
    assert!(rel < 0.2, "estimate {}", est.value);
}

#[test]
fn unknown_streams_are_empty_sets() {
    let engine = engine_with_data();
    let est = engine.evaluate(&expr("A & Z")).unwrap();
    assert_eq!(est.witness_hits, 0, "nothing intersects an empty stream");
    let est2 = engine.evaluate(&expr("A - Z")).unwrap();
    let rel = (est2.value - 4000.0).abs() / 4000.0;
    assert!(rel < 0.2, "A - ∅ should be ≈ |A|, got {}", est2.value);
}

#[test]
fn deletions_flow_through_to_answers() {
    let mut engine = StreamEngine::new(family());
    for e in 0..2000u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e, 1));
    }
    let q = expr("A & B");
    let before = engine.evaluate(&q).unwrap().value;
    // Remove the top half of B.
    for e in 1000..2000u64 {
        engine.process(&Update::delete(StreamId(1), e, 1));
    }
    let after = engine.evaluate(&q).unwrap().value;
    assert!((before - 2000.0).abs() / 2000.0 < 0.25, "before {before}");
    assert!((after - 1000.0).abs() / 1000.0 < 0.35, "after {after}");
    assert_eq!(engine.stats().deletions, 1000);
}

#[test]
fn watches_fire_on_threshold_crossings() {
    let mut engine = StreamEngine::new(family());
    let q = expr("A & B");
    let above = engine
        .subscribe(
            q.clone(),
            rule(Tolerance::Above {
                threshold: 500.0,
                hysteresis: 0.0,
            }),
        )
        .unwrap();
    let below = engine
        .subscribe(
            q,
            rule(Tolerance::Below {
                threshold: 100.0,
                hysteresis: 0.0,
            }),
        )
        .unwrap();

    // Empty engine: estimate 0. Both rules report their first value; the
    // "below 100" one is tripped by it.
    let events = engine.publish_epoch();
    assert_eq!(events.len(), 2);
    assert!(events.iter().all(|e| e.old.is_none() && e.new == 0.0));
    assert_eq!(
        engine.subscription(below).unwrap().last_notified(),
        Some(0.0)
    );

    // Grow the intersection past 500: "above" trips, "below" releases.
    for e in 0..1500u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e, 1));
    }
    let events = engine.publish_epoch();
    assert_eq!(events.len(), 2);
    let trip = events.iter().find(|e| e.sub_id == above).unwrap();
    assert!(trip.new > 500.0);
    let release = events.iter().find(|e| e.sub_id == below).unwrap();
    assert_eq!(release.new, trip.new);

    // Edge, not level: staying tripped notifies nothing more.
    for e in 1500..1600u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e, 1));
    }
    assert!(engine.publish_epoch().is_empty());
}

#[test]
fn unregistering_cleans_up() {
    let mut engine = engine_with_data();
    let id = engine
        .subscribe(
            expr("A & B"),
            rule(Tolerance::Above {
                threshold: 1.0,
                hysteresis: 0.0,
            }),
        )
        .unwrap();
    assert_eq!(engine.stats().subscriptions, 1);
    engine.unsubscribe(id).unwrap();
    assert_eq!(engine.stats().subscriptions, 0);
    assert!(engine.subscription(id).is_none());
    assert!(engine.publish_epoch().is_empty());
    assert!(matches!(
        engine.unsubscribe(id),
        Err(EngineError::UnknownSubscription(_))
    ));
}

#[test]
fn error_paths() {
    let mut engine = StreamEngine::new(family());
    assert!(matches!(
        engine.subscribe_sql("SUBSCRIBE A &&& B TOLERANCE 1"),
        Err(EngineError::Subscribe(_))
    ));
    // Handles can no longer be forged (private inner id) — a stale handle
    // from a removed subscription exercises the same unknown-id path.
    let stale = engine.subscribe_sql("SUBSCRIBE A TOLERANCE 1").unwrap();
    engine.unsubscribe(stale).unwrap();
    let err = engine.unsubscribe(stale).unwrap_err();
    assert!(matches!(err, EngineError::UnknownSubscription(_)));
    assert!(err.to_string().contains("unknown subscription"));
}

#[test]
fn stats_track_activity() {
    let mut engine = StreamEngine::new(family());
    assert_eq!(engine.stats(), Default::default());
    engine.process(&Update::insert(StreamId(0), 1, 1));
    engine.process(&Update::delete(StreamId(0), 1, 1));
    engine.process(&Update::insert(StreamId(5), 2, 3));
    let s = engine.stats();
    assert_eq!(s.updates, 3);
    assert_eq!(s.deletions, 1);
    assert_eq!(s.streams, 2);
    assert!(s.synopsis_bytes > 0);
    assert!(engine.synopsis(StreamId(5)).is_some());
    assert!(engine.synopsis(StreamId(9)).is_none());
}

#[test]
fn ad_hoc_expressions_without_registration() {
    let engine = {
        let mut e = engine_with_data();
        // consume &mut then reuse immutably
        e.process(&Update::insert(StreamId(0), 123456, 1));
        e
    };
    let expr = "B - A".parse().unwrap();
    let est = engine.evaluate(&expr).unwrap();
    let rel = (est.value - 2000.0).abs() / 2000.0;
    assert!(rel < 0.45, "estimate {}", est.value);
}

#[test]
fn evaluate_is_the_single_estimation_surface() {
    // Ad-hoc answers come from `evaluate`; standing answers come from the
    // subscription cache, which holds the identical estimate.
    let mut engine = engine_with_data();
    let q = expr("A & B");
    let answer = engine.evaluate(&q).unwrap();
    let traced = engine
        .evaluate_traced(&q, setstream_obs::TraceContext::default())
        .unwrap();
    assert_eq!(answer.value.to_bits(), traced.value.to_bits());
    let id = engine.subscribe(q, SubscriptionOptions::default()).unwrap();
    engine.publish_epoch();
    assert_eq!(
        engine.subscription(id).unwrap().last_notified(),
        Some(answer.value)
    );
    // The record is self-describing.
    assert_eq!(answer.method, EstimateMethod::Witness);
    assert!(answer.witnesses().valid > 0);
    assert!(answer.atomic_fraction().unwrap() > 0.0);
    let (lo, hi) = answer.confidence().unwrap();
    assert!(lo <= answer.value && answer.value <= hi);
}

#[test]
fn engine_metrics_track_ingest_and_estimates() {
    let mut engine = StreamEngine::new(family());
    let inserts: Vec<Update> = (0..5000u64)
        .map(|e| Update::insert(StreamId((e % 2) as u32), e, 1))
        .collect();
    engine.process_batch(&inserts);
    engine.process(&Update::delete(StreamId(0), 7, 1));
    let m = engine.metrics().clone();
    assert_eq!(m.ingest_updates.get(), 5001);
    assert_eq!(m.ingest_deletions.get(), 1);
    assert_eq!(m.ingest_batches.get(), 1);
    // Every chunk of the all-insert batch is uniform-delta, so every
    // update counts.
    assert_eq!(m.ingest_fastpath_updates.get(), 5000);

    let q = expr("A & B");
    let _ = engine.evaluate(&q).unwrap();
    let _ = engine.evaluate(&q).unwrap();
    assert_eq!(m.estimates_total(), 2);
    assert_eq!(m.estimate_latency_ns.count(), 2);
    assert!(m.estimate_latency_ns.sum() > 0);
}

#[test]
fn trace_ring_records_estimate_spans() {
    use setstream_engine::prelude::*;
    use std::sync::Arc;
    let ring = Arc::new(RingRecorder::new(16));
    let mut engine = engine_with_data();
    engine.set_trace(TraceHandle::new(ring.clone()));
    let q = expr("A | B");
    let _ = engine.evaluate(&q).unwrap();
    engine.subscribe(q, SubscriptionOptions::default()).unwrap();
    let _ = engine.publish_epoch();
    let names: Vec<&str> = ring.events().iter().map(|e| e.name).collect();
    assert!(names.contains(&"engine.query"));
    assert!(names.contains(&"engine.publish_epoch"));
    let q_span = ring
        .events()
        .into_iter()
        .find(|e| e.name == "engine.query")
        .unwrap();
    assert!(q_span.detail.contains("via"), "detail: {}", q_span.detail);
}

#[test]
fn traced_evaluate_joins_an_existing_trace() {
    use setstream_engine::prelude::*;
    use setstream_obs::TraceContext;
    use std::sync::Arc;
    let ring = Arc::new(RingRecorder::new(16));
    let mut engine = engine_with_data();
    engine.set_trace(TraceHandle::new(ring.clone()));
    let q = expr("A | B");
    // Joining a foreign trace (e.g. a collection epoch's context): the
    // query span carries that trace id and parents on the given span.
    let ctx = TraceContext {
        trace_id: 777,
        span_id: 42,
    };
    let _ = engine.evaluate_traced(&q, ctx).unwrap();
    let span = ring
        .events()
        .into_iter()
        .find(|e| e.name == "engine.query")
        .unwrap();
    assert_eq!(span.trace_id, 777);
    assert_eq!(span.parent_id, 42);
    // An inactive context degrades to a root span — evaluate semantics.
    let _ = engine.evaluate_traced(&q, TraceContext::default()).unwrap();
    let root = ring
        .events()
        .into_iter()
        .rev()
        .find(|e| e.name == "engine.query")
        .unwrap();
    assert_eq!(root.parent_id, 0);
    assert_eq!(root.trace_id, root.id);
}

#[test]
fn apply_delta_matches_processing_and_refuses_foreign_families() {
    let fam = family();
    let mut processed = StreamEngine::new(fam);
    let mut applied = StreamEngine::new(fam);
    let id = applied
        .subscribe("A | B".parse().unwrap(), SubscriptionOptions::builder().build().unwrap())
        .unwrap();
    applied.publish_epoch();
    // Two committed changes per stream, the second one partly retracting
    // the first: the store is their exact sum.
    for round in 0..2u64 {
        for s in 0..2u32 {
            let mut delta = fam.new_vector();
            for e in 0..300u64 {
                let u = if round == 1 && e % 3 == 0 {
                    Update::delete(StreamId(s), e, 1)
                } else {
                    Update::insert(StreamId(s), round * 1000 + e + u64::from(s) * 150, 1)
                };
                delta.process(&u);
                processed.process(&u);
            }
            applied.apply_delta(StreamId(s), &delta).unwrap();
        }
    }
    for s in [StreamId(0), StreamId(1)] {
        let (a, p) = (applied.synopsis(s).unwrap(), processed.synopsis(s).unwrap());
        for (x, y) in a.sketches().iter().zip(p.sketches()) {
            assert_eq!(x.counters(), y.counters());
        }
    }
    let expr: SetExpr = "A | B".parse().unwrap();
    let want = processed.evaluate(&expr).unwrap().value;
    assert_eq!(applied.evaluate(&expr).unwrap().value.to_bits(), want.to_bits());
    // The commits marked both streams dirty for the subscription round.
    let events = applied.publish_epoch();
    assert_eq!(events.len(), 1);
    assert_eq!((events[0].sub_id, events[0].new.to_bits()), (id, want.to_bits()));

    let foreign = SketchFamily::builder().copies(8).seed(99).build().new_vector();
    assert!(matches!(
        applied.apply_delta(StreamId(7), &foreign),
        Err(EngineError::Estimate(_))
    ));
    assert_eq!(applied.stream_ids().count(), 2, "a refused delta leaves no stream behind");
}
