//! Integration tests for the standing-query subscription surface.
//!
//! The two contracts pinned here are the heart of the tentpole:
//!
//! 1. **Bit-identity** — the interned-DAG incremental path serves, at
//!    every epoch, exactly the estimate the from-scratch `evaluate` path
//!    would compute. Not approximately: the same `f64`, because both
//!    routes run the identical witness estimator over the identical
//!    synopses.
//! 2. **Notification completeness** — the published change log equals a
//!    brute-force diff of from-scratch evaluations filtered through the
//!    tolerance band (or, for a threshold rule, through the latch-and-
//!    hysteresis state machine). Nothing extra, nothing missing, values
//!    bitwise.

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_core::SketchFamily;
use setstream_engine::{ChangeCause, StreamEngine, SubscriptionOptions, Tolerance};
use setstream_expr::SetExpr;
use setstream_stream::{StreamId, Update};

fn family(copies: usize, seed: u64) -> SketchFamily {
    SketchFamily::builder()
        .copies(copies)
        .second_level(8)
        .seed(seed)
        .build()
}

/// Random expression trees over 4 streams, depth ≤ 3 — deep enough to
/// produce shared subtrees across the registered family once interned.
fn arb_expr() -> impl Strategy<Value = SetExpr> {
    let leaf = (0u32..4).prop_map(SetExpr::stream);
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.diff(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any subscription family (duplicates included — interning
    /// collapses them) and any epoch-sliced workload, the cached value a
    /// subscription holds after `publish_epoch` is **bit-identical** to
    /// a from-scratch `evaluate` of the same expression.
    #[test]
    fn incremental_matches_from_scratch_bitwise(
        seed in any::<u64>(),
        exprs in vec(arb_expr(), 1..6),
        epochs in vec(vec((0u32..4, any::<u64>(), -2i64..3), 0..80), 1..5),
    ) {
        let mut engine = StreamEngine::new(family(8, seed));
        // Zero absolute tolerance: every change notifies, so
        // `last_notified` tracks the current cached estimate exactly.
        let options = SubscriptionOptions::default();
        let mut subs = Vec::new();
        for expr in &exprs {
            subs.push(engine.subscribe(expr.clone(), options).unwrap());
        }
        for epoch in &epochs {
            for &(stream, element, delta) in epoch {
                if delta != 0 {
                    engine.process(&Update { stream: StreamId(stream), element, delta });
                }
            }
            let _ = engine.publish_epoch();
            for (id, expr) in subs.iter().zip(&exprs) {
                let scratch = engine.evaluate(expr).unwrap().value;
                let cached = engine
                    .subscription(*id)
                    .expect("registered subscription")
                    .last_notified()
                    .expect("zero tolerance notifies every epoch");
                prop_assert_eq!(
                    cached.to_bits(),
                    scratch.to_bits(),
                    "expr {} diverged: cached {} vs from-scratch {}",
                    expr, cached, scratch
                );
            }
        }
    }
}

/// The level a threshold watch reports for `value`, given whether it
/// was already reporting: trip strictly past the threshold, then keep
/// reporting until the value re-crosses it by the hysteresis band.
fn watch_reporting(rule: Tolerance, latched: bool, value: f64) -> bool {
    match rule {
        Tolerance::Above {
            threshold,
            hysteresis,
        } => value > threshold || (latched && value > threshold - hysteresis),
        Tolerance::Below {
            threshold,
            hysteresis,
        } => value < threshold || (latched && value < threshold + hysteresis),
        Tolerance::Absolute(_) | Tolerance::Relative(_) => unreachable!("not a threshold rule"),
    }
}

/// Soak: replay a deterministic multi-epoch workload and check the
/// engine's notification log against a brute-force reference — a second
/// engine fed the identical updates, evaluated from scratch each epoch,
/// with the tolerance band applied in plain code. A threshold rule's
/// reference is the watch state machine with an explicit latch, notified
/// on every change of the level it reports.
#[test]
fn notification_log_equals_brute_force_diff() {
    let fam = family(32, 99);
    let mut engine = StreamEngine::new(fam);
    let mut reference = StreamEngine::new(fam);

    let specs: &[(&str, Tolerance)] = &[
        ("A & B", Tolerance::Absolute(40.0)),
        ("(A | B) - C", Tolerance::Relative(0.08)),
        ("A & B", Tolerance::Absolute(0.0)), // duplicate expr, distinct band
        ("C | D", Tolerance::Absolute(25.0)),
        (
            "A & B",
            Tolerance::Above {
                threshold: 300.0,
                hysteresis: 30.0,
            },
        ),
        (
            "C - D",
            Tolerance::Below {
                threshold: 250.0,
                hysteresis: 40.0,
            },
        ),
    ];
    let mut subs = Vec::new();
    for &(text, tolerance) in specs {
        let expr: SetExpr = text.parse().unwrap();
        let options = SubscriptionOptions::builder()
            .tolerance(tolerance)
            .build()
            .unwrap();
        let id = engine.subscribe(expr.clone(), options).unwrap();
        subs.push((id, expr, tolerance));
    }

    let mut last: Vec<Option<f64>> = vec![None; subs.len()];
    let mut latched = vec![false; subs.len()];
    let mut threshold_edges = 0;
    for epoch in 0..12usize {
        let mut batch = Vec::new();
        for i in 0..600u64 {
            let x = (epoch as u64 * 600 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let stream = StreamId((x % 4) as u32);
            let element = (x >> 16) % 3000;
            if i % 11 == 10 {
                batch.push(Update::delete(stream, element, 1));
            } else {
                batch.push(Update::insert(stream, element, 1));
            }
        }
        engine.process_batch(&batch);
        reference.process_batch(&batch);

        // Brute force: from-scratch value each epoch, band applied by hand.
        let mut expected = Vec::new();
        for (i, (id, expr, tolerance)) in subs.iter().enumerate() {
            let value = reference.evaluate(expr).unwrap().value;
            let notify = match (last[i], *tolerance) {
                (None, Tolerance::Absolute(_) | Tolerance::Relative(_)) => true,
                (Some(prev), Tolerance::Absolute(band)) => (value - prev).abs() > band,
                (Some(prev), Tolerance::Relative(frac)) => (value - prev).abs() > frac * prev.abs(),
                (last, rule) => {
                    let reporting = watch_reporting(rule, latched[i], value);
                    let edge = last.is_none() || reporting != latched[i];
                    if edge && last.is_some() {
                        threshold_edges += 1;
                    }
                    latched[i] = reporting;
                    edge
                }
            };
            if notify {
                expected.push((*id, last[i], value));
                last[i] = Some(value);
            }
        }

        let events = engine.publish_epoch();
        let got: Vec<_> = events.iter().map(|e| (e.sub_id, e.old, e.new)).collect();
        assert_eq!(
            got, expected,
            "epoch {epoch}: notification log diverged from brute-force diff"
        );
        for e in &events {
            let want = if e.old.is_none() {
                ChangeCause::Initial
            } else {
                ChangeCause::Delta
            };
            assert_eq!(e.cause, want, "epoch {epoch}: wrong cause on {:?}", e);
        }
    }
    // The workload kept moving, so the bands must have fired repeatedly,
    // and the threshold rules must have crossed at least once.
    assert!(
        threshold_edges >= 1,
        "no threshold rule tripped or released"
    );
    let metrics = engine.subscription_metrics();
    assert!(metrics.notifications.get() >= subs.len() as u64);
    assert_eq!(metrics.rounds.get(), 12);
}

/// Unsubscribing stops notifications; the remaining family keeps its log.
#[test]
fn unsubscribe_silences_only_that_subscription() {
    let mut engine = StreamEngine::new(family(16, 5));
    let keep = engine
        .subscribe("A | B".parse::<SetExpr>().unwrap(), SubscriptionOptions::default())
        .unwrap();
    let drop = engine
        .subscribe("A & B".parse::<SetExpr>().unwrap(), SubscriptionOptions::default())
        .unwrap();
    for e in 0..500u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e + 250, 1));
    }
    let initial = engine.publish_epoch();
    assert_eq!(initial.len(), 2);
    engine.unsubscribe(drop).unwrap();
    for e in 500..900u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
    }
    let events = engine.publish_epoch();
    assert!(events.iter().all(|e| e.sub_id == keep));
    assert!(engine.subscription(drop).is_none());
    assert!(engine.unsubscribe(drop).is_err());
}

/// Row-change batches drive subscriptions: a row update is a delete plus
/// an insert, lands in the dirty set, and the next epoch notifies.
#[test]
fn cdc_events_feed_the_dirty_set() {
    let mut engine = StreamEngine::new(family(32, 17));
    let sub = engine
        .subscribe("A".parse::<SetExpr>().unwrap(), SubscriptionOptions::default())
        .unwrap();
    let inserts: Vec<Update> = (0..800u64)
        .map(|e| Update::insert(StreamId(0), e, 1))
        .collect();
    engine.process_batch(&inserts);
    let initial = engine.publish_epoch();
    assert_eq!(initial.len(), 1);
    let before = initial[0].new;

    // An empty batch (a no-op row update): no taint, no notification, no
    // re-estimation.
    let evaluated = engine.subscription_metrics().nodes_evaluated.get();
    let empty: [Update; 0] = [];
    engine.process_batch(&empty);
    assert!(engine.publish_epoch().is_empty());
    assert_eq!(engine.subscription_metrics().nodes_evaluated.get(), evaluated);

    // Row updates replace elements 0..200 with fresh ones → the set
    // keeps its size but churns; deletes alone shrink it.
    let churn: Vec<Update> = (0..200u64)
        .flat_map(|e| {
            [
                Update::delete(StreamId(0), e, 1),
                Update::insert(StreamId(0), e + 10_000, 1),
            ]
        })
        .collect();
    engine.process_batch(&churn);
    let _ = engine.publish_epoch();
    let deletes: Vec<Update> = (200..800u64)
        .map(|e| Update::delete(StreamId(0), e, 1))
        .collect();
    engine.process_batch(&deletes);
    let events = engine.publish_epoch();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].sub_id, sub);
    assert!(
        events[0].new < before,
        "600 row deletes must shrink |A|: {} vs {}",
        events[0].new,
        before
    );
}

/// Hysteresis keeps a threshold rule tripped through small dips below
/// the threshold (flap suppression) and releases it only past the band —
/// also across a snapshot taken while it is tripped.
#[test]
fn watch_hysteresis_suppresses_flapping() {
    let fam = family(128, 3);
    let mut engine = StreamEngine::new(fam);
    let options = SubscriptionOptions::builder()
        .tolerance(Tolerance::Above {
            threshold: 1000.0,
            hysteresis: 400.0,
        })
        .build()
        .unwrap();
    let id = engine.subscribe("A".parse().unwrap(), options).unwrap();
    let armed = engine.publish_epoch();
    assert_eq!(armed.len(), 1);
    assert_eq!(
        (armed[0].old, armed[0].new),
        (None, 0.0),
        "empty stream arms the rule"
    );

    // Cross the threshold: ~1500 distinct elements.
    for e in 0..1500u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
    }
    let events = engine.publish_epoch();
    assert_eq!(events.len(), 1, "the rule notifies on the crossing");
    assert_eq!(events[0].sub_id, id);
    assert!(events[0].new > 1000.0);

    // Dip to ~900 — below threshold but inside the release band
    // (releases only at ≤ 600): still tripped, nothing to report.
    for e in 900..1500u64 {
        engine.process(&Update::delete(StreamId(0), e, 1));
    }
    assert!(
        engine.publish_epoch().is_empty(),
        "in-band dip must not release"
    );

    // The trip survives a snapshot: the restored rule waits for the
    // release bound too.
    let mut restored = StreamEngine::restore(engine.snapshot());
    assert_eq!(
        restored.subscription(id).unwrap().last_notified(),
        Some(events[0].new)
    );

    // Drop to ~300 — past the release bound: both engines release, with
    // bit-identical events.
    for e in 300..900u64 {
        engine.process(&Update::delete(StreamId(0), e, 1));
        restored.process(&Update::delete(StreamId(0), e, 1));
    }
    let released = engine.publish_epoch();
    assert_eq!(released.len(), 1, "release band reached");
    assert!(released[0].new <= 600.0);
    assert_eq!(released[0].old, Some(events[0].new));
    let restored_released = restored.publish_epoch();
    assert_eq!(restored_released, released);
    assert_eq!(
        restored_released[0].new.to_bits(),
        released[0].new.to_bits()
    );
}

/// `SUBSCRIBE … TOLERANCE …` round-trips through the engine, and the
/// snapshot carries subscriptions (band, last value, id counters).
#[test]
fn sql_subscriptions_survive_snapshot_restore() {
    let mut engine = StreamEngine::new(family(32, 41));
    let id = engine
        .subscribe_sql("SUBSCRIBE (A & B) | C TOLERANCE 5%")
        .unwrap();
    for e in 0..600u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e + 300, 1));
    }
    let first = engine.publish_epoch();
    assert_eq!(first.len(), 1);

    let mut restored = StreamEngine::restore(engine.snapshot());
    let sub = restored.subscription(id).expect("subscription restored");
    assert_eq!(sub.options().tolerance(), Tolerance::Relative(0.05));
    assert_eq!(sub.last_notified(), Some(first[0].new));

    // No traffic since the snapshot: the restored engine's first epoch
    // re-evaluates from the carried synopses and stays inside the band.
    assert!(restored.publish_epoch().is_empty());
    // New ids keep counting from where the original left off.
    let next = restored
        .subscribe_sql("SUBSCRIBE A TOLERANCE 1")
        .unwrap();
    assert!(next > id);
}
