//! Integration tests for the standing-query subscription surface.
//!
//! Three contracts are pinned here:
//!
//! 1. **Bit-identity** — the per-class estimate cache serves, at every
//!    epoch, exactly the estimate the from-scratch `evaluate` path would
//!    compute. Not approximately: the same `f64`, because both routes run
//!    the identical witness estimator over the identical synopses.
//! 2. **Notification completeness** — the published change log equals a
//!    brute-force diff of from-scratch evaluations filtered through the
//!    tolerance band (or, for a threshold rule, through the latch-and-
//!    hysteresis state machine). Nothing extra, nothing missing, values
//!    bitwise.
//! 3. **The class rule** — subscriptions share a class exactly when the
//!    estimator cannot tell their expressions apart (same streams, same
//!    Venn cells over them); a round re-estimates only the classes that
//!    read a changed stream; a class goes with its last subscriber.

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

/// Random expression trees over 4 streams, depth ≤ 3 — deep enough that
/// distinct trees in one registered family often fall into one class.
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

    /// For any subscription family (duplicates included — they share a
    /// class) and any epoch-sliced workload, the cached value a
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

fn sub(engine: &mut StreamEngine, text: &str) -> setstream_engine::SubscriptionId {
    engine
        .subscribe(text.parse().unwrap(), SubscriptionOptions::default())
        .unwrap()
}

/// Insert `n` elements into each of streams A, B and C, overlapping
/// pairwise so every Venn cell over them is non-empty.
fn ingest_abc(engine: &mut StreamEngine, n: u64) {
    for e in 0..n {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e + n / 3, 1));
        engine.process(&Update::insert(StreamId(2), e + 2 * n / 3, 1));
    }
}

/// The value a subscription was last notified about. Under the default
/// zero tolerance that is its class's current estimate.
fn value_bits(engine: &StreamEngine, id: setstream_engine::SubscriptionId) -> u64 {
    engine
        .subscription(id)
        .unwrap()
        .last_notified()
        .unwrap()
        .to_bits()
}

/// Commuted operands name the same streams and the same cells, so the
/// estimator cannot tell them apart: one class, one estimate per round.
#[test]
fn commuted_operands_share_one_class() {
    let mut engine = StreamEngine::new(family(8, 1));
    sub(&mut engine, "A & B");
    sub(&mut engine, "B & A");
    assert_eq!(engine.subscription_classes(), 1);
    assert_eq!(engine.subscriptions().count(), 2);
}

/// The commuted core may sit under another operator: `(A & B) - C` and
/// `(B & A) - C` share one class, and a change to `C` re-estimates that
/// one class for both subscribers.
#[test]
fn commuted_operands_under_a_difference_share_one_class() {
    let mut engine = StreamEngine::new(family(16, 1));
    let ids = [
        sub(&mut engine, "(A & B) - C"),
        sub(&mut engine, "(B & A) - C"),
    ];
    assert_eq!(engine.subscription_classes(), 1);
    ingest_abc(&mut engine, 300);
    assert_eq!(engine.publish_epoch().len(), 2);
    let metrics = engine.subscription_metrics().clone();
    assert_eq!(metrics.nodes_evaluated.get(), 1);

    engine.process(&Update::insert(StreamId(2), 10_000, 1));
    let _ = engine.publish_epoch();
    assert_eq!(metrics.nodes_evaluated.get(), 2);
    assert_eq!(value_bits(&engine, ids[0]), value_bits(&engine, ids[1]));
}

/// The same expression registered twice is one class: a round estimates
/// it once, and both subscribers are notified of that one estimate.
#[test]
fn duplicate_registrations_share_one_class() {
    let mut engine = StreamEngine::new(family(16, 2));
    let first = sub(&mut engine, "(A & B) - C");
    let second = sub(&mut engine, "(A & B) - C");
    assert_ne!(first, second);
    assert_eq!(engine.subscription_classes(), 1);
    ingest_abc(&mut engine, 300);
    let events = engine.publish_epoch();
    assert_eq!(engine.subscription_metrics().nodes_evaluated.get(), 1);
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].new.to_bits(), events[1].new.to_bits());
}

/// `(A − B) ∪ (A ∩ B)` is the set `A`, but it names `B` too: its witness
/// estimate scales by û over `{A, B}`, not over `{A}`, so the two must not
/// share a cached estimate.
#[test]
fn equal_sets_over_different_streams_stay_two_classes() {
    let mut engine = StreamEngine::new(family(64, 2));
    let wide = sub(&mut engine, "(A - B) | (A & B)");
    let narrow = sub(&mut engine, "A");
    assert_eq!(engine.subscription_classes(), 2);
    let (wide, narrow) = (
        engine.subscription(wide).unwrap().expr().clone(),
        engine.subscription(narrow).unwrap().expr().clone(),
    );
    assert!(setstream_expr::equivalent(&wide, &narrow));
    assert_ne!(wide.streams(), narrow.streams());
}

/// 100 registrations of one shared core wrapped four ways make four
/// classes.
#[test]
fn registrations_collapse_into_one_class_per_distinct_root() {
    let mut engine = StreamEngine::new(family(8, 3));
    let base: SetExpr = "(A & B) - C".parse().unwrap();
    for i in 0..100u32 {
        let wrapped = base.clone().union(SetExpr::stream(3 + i % 4));
        engine
            .subscribe(wrapped, SubscriptionOptions::default())
            .unwrap();
    }
    assert_eq!(engine.subscriptions().count(), 100);
    assert_eq!(engine.subscription_classes(), 4);
}

/// A round re-estimates exactly the classes that read a changed stream;
/// the others serve their cached estimate.
#[test]
fn a_round_reestimates_only_the_classes_reading_changed_streams() {
    let mut engine = StreamEngine::new(family(16, 4));
    for text in ["A & B", "(A & B) - C", "(A & B) | D", "C | D", "E", "B & A"] {
        sub(&mut engine, text);
    }
    assert_eq!(engine.subscription_classes(), 5);
    for e in 0..300u64 {
        for s in 0..5u32 {
            engine.process(&Update::insert(StreamId(s), e * 5 + u64::from(s), 1));
        }
    }
    let _ = engine.publish_epoch(); // every class is estimated once
    let metrics = engine.subscription_metrics().clone();
    let (evaluated, cached) = (metrics.nodes_evaluated.get(), metrics.nodes_cached.get());
    assert_eq!((evaluated, cached), (5, 0));

    // Only C changes: `(A & B) - C` and `C | D` read it.
    engine.process(&Update::insert(StreamId(2), 10_000, 1));
    let _ = engine.publish_epoch();
    assert_eq!(metrics.nodes_evaluated.get(), evaluated + 2);
    assert_eq!(metrics.nodes_cached.get(), cached + 3);

    // Only A changes: the three classes over `A & B` read it, `C | D` and
    // `E` do not.
    engine.process(&Update::insert(StreamId(0), 10_001, 1));
    let _ = engine.publish_epoch();
    assert_eq!(metrics.nodes_evaluated.get(), evaluated + 5);
    assert_eq!(metrics.nodes_cached.get(), cached + 5);

    // A stream no class reads changes: nothing is re-estimated.
    engine.process(&Update::insert(StreamId(99), 10_002, 1));
    let _ = engine.publish_epoch();
    assert_eq!(metrics.nodes_evaluated.get(), evaluated + 5);
    assert_eq!(metrics.nodes_cached.get(), cached + 10);
}

/// A class registered after a round holds no estimate, so the next round
/// estimates it although none of its streams changed, and its subscriber
/// gets an initial notification; the class estimated before serves its
/// cache.
#[test]
fn a_new_class_is_estimated_on_its_first_round() {
    let mut engine = StreamEngine::new(family(16, 7));
    sub(&mut engine, "A & B");
    ingest_abc(&mut engine, 300);
    let _ = engine.publish_epoch();
    let metrics = engine.subscription_metrics().clone();
    assert_eq!(metrics.nodes_evaluated.get(), 1);

    let late = sub(&mut engine, "A | B");
    assert_eq!(engine.subscription_classes(), 2);
    let events = engine.publish_epoch();
    assert_eq!(metrics.nodes_evaluated.get(), 2);
    assert_eq!(metrics.nodes_cached.get(), 1);
    assert_eq!(events.len(), 1);
    assert_eq!((events[0].sub_id, events[0].cause), (late, ChangeCause::Initial));
    let scratch = engine.evaluate(&"A | B".parse().unwrap()).unwrap().value;
    assert_eq!(events[0].new.to_bits(), scratch.to_bits());
}

/// A round with no changed stream re-estimates nothing: every class
/// serves the estimate it stored, which is bit-identical to a
/// from-scratch `evaluate`, and no subscriber is notified.
#[test]
fn an_unchanged_class_serves_its_cached_estimate() {
    let mut engine = StreamEngine::new(family(16, 8));
    let ids = [sub(&mut engine, "A & B"), sub(&mut engine, "A - C")];
    ingest_abc(&mut engine, 300);
    assert_eq!(engine.publish_epoch().len(), 2);
    let stored = ids.map(|id| value_bits(&engine, id));
    let metrics = engine.subscription_metrics().clone();
    assert_eq!(metrics.nodes_evaluated.get(), 2);

    for round in 1..=3u64 {
        assert!(engine.publish_epoch().is_empty());
        assert_eq!(metrics.nodes_evaluated.get(), 2);
        assert_eq!(metrics.nodes_cached.get(), 2 * round);
    }
    for (id, bits) in ids.iter().zip(stored) {
        assert_eq!(value_bits(&engine, *id), bits);
        let expr = engine.subscription(*id).unwrap().expr().clone();
        assert_eq!(engine.evaluate(&expr).unwrap().value.to_bits(), bits);
    }
}

/// A change to a stream makes the cached estimates of the classes that
/// read it stale. The next round re-estimates each such class once,
/// however many updates the stream took, and serves the fresh estimate,
/// bit-identical to a from-scratch `evaluate`, never the stale one.
#[test]
fn a_changed_stream_replaces_the_stale_estimate() {
    let mut engine = StreamEngine::new(family(32, 9));
    let id = sub(&mut engine, "A - B");
    ingest_abc(&mut engine, 300);
    let _ = engine.publish_epoch();
    let stale = engine.subscription(id).unwrap().last_notified().unwrap();
    let metrics = engine.subscription_metrics().clone();
    assert_eq!(metrics.nodes_evaluated.get(), 1);

    // A grows by 1000 elements that B lacks.
    for e in 0..1000u64 {
        engine.process(&Update::insert(StreamId(0), 100_000 + e, 1));
    }
    let events = engine.publish_epoch();
    assert_eq!(metrics.nodes_evaluated.get(), 2);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].old, Some(stale));
    assert_eq!(events[0].cause, ChangeCause::Delta);
    let fresh = engine.evaluate(&"A - B".parse().unwrap()).unwrap().value;
    assert_eq!(events[0].new.to_bits(), fresh.to_bits());
    assert_ne!(fresh.to_bits(), stale.to_bits());
}

/// A class goes with its last subscriber, so subscribing and then
/// unsubscribing many distinct expressions leaves nothing behind.
#[test]
fn unsubscribing_every_expression_frees_every_class() {
    let mut engine = StreamEngine::new(family(8, 5));
    let ids: Vec<_> = (0..1000u64)
        .map(|seed| {
            let expr = setstream_expr::random_expr(seed, 8, 6);
            engine
                .subscribe(expr, SubscriptionOptions::default())
                .unwrap()
        })
        .collect();
    assert!(engine.subscription_classes() > 1);
    let _ = engine.publish_epoch();
    for id in ids {
        engine.unsubscribe(id).unwrap();
    }
    assert_eq!(engine.subscriptions().count(), 0);
    assert_eq!(engine.subscription_classes(), 0);
    assert_eq!(engine.subscription_metrics().classes.get(), 0);
}

/// The snapshot carries no dirty set and no cached estimate. A restore
/// taken between ingest and `publish_epoch` therefore re-estimates every
/// class on its first round with no changed stream to blame: the events
/// that round carry `ChangeCause::Full`, where the original engine reports
/// the same values as `ChangeCause::Delta`.
#[test]
fn restore_between_ingest_and_publish_reports_full_cause() {
    let mut engine = StreamEngine::new(family(32, 6));
    let ids = [sub(&mut engine, "A & B"), sub(&mut engine, "A - B")];
    for e in 0..400u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e + 200, 1));
    }
    assert_eq!(engine.publish_epoch().len(), 2);
    for e in 400..900u64 {
        engine.process(&Update::insert(StreamId(0), e, 1));
        engine.process(&Update::insert(StreamId(1), e + 200, 1));
    }
    let mut restored = StreamEngine::restore(engine.snapshot());
    let live = engine.publish_epoch();
    let replayed = restored.publish_epoch();
    assert_eq!(live.len(), 2);
    for (live, replayed) in live.iter().zip(&replayed) {
        assert!(ids.contains(&live.sub_id));
        assert_eq!(live.cause, ChangeCause::Delta);
        assert_eq!(replayed.cause, ChangeCause::Full);
        assert_eq!(
            (replayed.sub_id, replayed.old, replayed.new.to_bits()),
            (live.sub_id, live.old, live.new.to_bits())
        );
    }
    assert_eq!(replayed.len(), live.len());
}
