//! Property and transition tests for the quality plane.
//!
//! Three contracts, straight from the sampling math in DESIGN.md §7:
//!
//! 1. At sampling rate 1.0 the shadow multiset is **bit-equal** to a full
//!    exact evaluation — the sampler admits every element, so the shadow
//!    *is* the ground truth, for any workload and any expression.
//! 2. At rate `p` the scaled shadow count `raw/p` deviates from the true
//!    distinct count by at most a few binomial standard deviations
//!    (`σ = √(n(1−p)/p)`) — the analytic bound operators are told to
//!    trust on the dashboard.
//! 3. Alarms are edge-triggered and reversible: induced degradations
//!    raise exactly the typed alarm that names them, recovery clears it,
//!    and re-degradation re-raises it (counted each time).

use proptest::collection::vec;
use proptest::prelude::*;
use setstream_core::SketchFamily;
use setstream_engine::{
    QualityConfig, QualityMonitor, StreamEngine, SubscriptionId, SubscriptionOptions,
};
use setstream_expr::eval::exact_cardinality;
use setstream_expr::SetExpr;
use setstream_obs::{AlarmKind, AlarmTransition};
use setstream_stream::{StreamId, StreamSet, Update};

fn updates_from(pairs: &[(u8, u64)]) -> Vec<Update> {
    // Insert-only workloads keep the full-truth StreamSet apply infallible;
    // delete consistency is covered separately below.
    pairs
        .iter()
        .map(|&(s, e)| Update::insert(StreamId(u32::from(s % 3)), e, 1))
        .collect()
}

fn monitor_at(rate: f64) -> QualityMonitor {
    QualityMonitor::new(QualityConfig {
        sampling_rate: rate,
        ..QualityConfig::default()
    })
    .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: rate 1.0 ⇒ shadow counts bit-equal full exact counts,
    /// for every expression shape over the three streams.
    #[test]
    fn full_rate_shadow_is_bit_equal_to_exact(
        pairs in vec((any::<u8>(), 0u64..5_000), 0..800),
        expr_text in prop_oneof![
            Just("A"), Just("A | B"), Just("A & B"),
            Just("(A | B) - C"), Just("(A & B) | (B & C)"),
        ],
    ) {
        let updates = updates_from(&pairs);
        let monitor = monitor_at(1.0);
        monitor.observe_batch(&updates);
        let mut truth = StreamSet::new();
        truth.apply_all(updates.iter()).expect("insert-only workload");
        let expr: SetExpr = expr_text.parse().expect("fixed expressions parse");
        prop_assert_eq!(
            monitor.shadow_cardinality(&expr),
            exact_cardinality(&expr, &truth)
        );
    }

    /// Contract 2: at 1% the scaled shadow stays within 6σ of the truth
    /// (σ = √(n(1−p)/p); the sampler is a deterministic hash, so each
    /// case either passes forever or fails forever — no flakes).
    #[test]
    fn one_percent_shadow_is_within_analytic_bound(
        offset in 0u64..1_000_000,
        n in 2_000usize..20_000,
    ) {
        let p = 0.01;
        let updates: Vec<Update> = (0..n as u64)
            .map(|i| Update::insert(StreamId(0), offset.wrapping_add(i * 7919), 1))
            .collect();
        let monitor = monitor_at(p);
        monitor.observe_batch(&updates);
        let expr: SetExpr = "A".parse().expect("parse");
        let scaled = monitor.shadow_cardinality(&expr) as f64 / p;
        let sigma = ((n as f64) * (1.0 - p) / p).sqrt();
        prop_assert!(
            (scaled - n as f64).abs() <= 6.0 * sigma,
            "scaled {} vs true {} exceeds 6σ = {}",
            scaled, n, 6.0 * sigma
        );
    }

    /// Deletion consistency at any rate: deleting exactly what was
    /// inserted always empties the shadow, because sampling is by element.
    #[test]
    fn shadow_deletes_mirror_inserts_at_any_rate(
        rate in 0.0f64..=1.0,
        elems in vec(0u64..100_000, 0..300),
    ) {
        let monitor = monitor_at(rate);
        let inserts: Vec<Update> = elems
            .iter()
            .map(|&e| Update::insert(StreamId(0), e, 1))
            .collect();
        let deletes: Vec<Update> = elems
            .iter()
            .map(|&e| Update::delete(StreamId(0), e, 1))
            .collect();
        monitor.observe_batch(&inserts);
        monitor.observe_batch(&deletes);
        let expr: SetExpr = "A".parse().expect("parse");
        prop_assert_eq!(monitor.shadow_cardinality(&expr), 0);
    }
}

/// Contract 3a: the paper's atomic fraction is `|E| / |∪ᵢAᵢ|` — the
/// witness-hit share among valid observations. A near-disjoint workload
/// makes `A & B` a sliver of the union (hard to estimate, the §5
/// precondition failing); a heavy-overlap workload recovers it. The
/// alarm follows: raise → clear → re-raise, each edge counted.
#[test]
fn low_atomic_fraction_alarm_raises_clears_and_reraises() {
    // Overlap of 40 elements in a ~40k union: atomic fraction ≈ 0.001.
    let hard: Vec<Update> = (0..20_000u64)
        .flat_map(|e| {
            [
                Update::insert(StreamId(0), e, 1),
                Update::insert(StreamId(1), e + 19_960, 1),
            ]
        })
        .collect();
    // Full overlap: atomic fraction ≈ 1.
    let easy: Vec<Update> = (0..20_000u64)
        .flat_map(|e| {
            [
                Update::insert(StreamId(0), e, 1),
                Update::insert(StreamId(1), e, 1),
            ]
        })
        .collect();

    // Each phase runs a fresh engine whose one subscription is `A & B`.
    // Engines number their subscriptions alike, so the watch registered
    // on the first engine's id names it in every phase.
    let engine_with = |workload: &[Update]| -> (StreamEngine, SubscriptionId) {
        let family = SketchFamily::builder()
            .copies(256)
            .second_level(64)
            .seed(3)
            .build();
        let mut engine = StreamEngine::new(family);
        let expr: SetExpr = "A & B".parse().expect("parse");
        let hot = engine
            .subscribe(expr, SubscriptionOptions::default())
            .expect("subscribe");
        engine.process_batch(workload);
        engine.publish_epoch();
        (engine, hot)
    };
    let evaluate_with = |workload: &[Update], monitor: &QualityMonitor| {
        monitor.evaluate(&engine_with(workload).0);
    };

    // The shadow stays empty (below min_shadow_support), so only the
    // atomic-fraction signal drives alarms in this test.
    let monitor = monitor_at(1.0);
    monitor.watch("hot", engine_with(&[]).1);

    evaluate_with(&hard, &monitor);
    assert!(
        monitor.alarms().is_active(AlarmKind::LowAtomicFraction),
        "near-disjoint workload must raise LowAtomicFraction"
    );

    evaluate_with(&easy, &monitor);
    assert!(
        !monitor.alarms().is_active(AlarmKind::LowAtomicFraction),
        "heavy-overlap workload must clear the alarm"
    );

    evaluate_with(&hard, &monitor);
    assert!(monitor.alarms().is_active(AlarmKind::LowAtomicFraction));

    let status = monitor
        .alarms()
        .snapshot()
        .into_iter()
        .find(|s| s.kind == AlarmKind::LowAtomicFraction)
        .expect("slot exists");
    assert_eq!(status.raised_total, 2, "two raises");
    assert_eq!(status.cleared_total, 1, "one clear");
}

/// Contract 3b: StaleSites follows coordinator health counts through a
/// full raise → clear → re-raise cycle, and `set` reports each edge.
#[test]
fn stale_sites_alarm_follows_collection_health() {
    let monitor = monitor_at(0.01);
    let alarms = monitor.alarms();
    monitor.note_collection_health(4, 0, 0, 0);
    assert!(!alarms.is_active(AlarmKind::StaleSites));

    monitor.note_collection_health(4, 1, 1, 0);
    assert!(alarms.is_active(AlarmKind::StaleSites));
    let detail = alarms
        .snapshot()
        .into_iter()
        .find(|s| s.kind == AlarmKind::StaleSites)
        .expect("slot")
        .detail;
    assert!(detail.contains("2/4"), "detail names the counts: {detail}");

    monitor.note_collection_health(4, 0, 0, 0);
    assert!(!alarms.is_active(AlarmKind::StaleSites));
    monitor.note_collection_health(4, 0, 0, 2);
    assert!(alarms.is_active(AlarmKind::StaleSites));
}

/// ErrorBudgetExceeded and ShadowDivergence judge the estimate against
/// the shadow truth; driving the alarm set directly pins the transition
/// protocol the monitor relies on.
#[test]
fn error_budget_transitions_are_edge_triggered() {
    let monitor = monitor_at(1.0);
    let alarms = monitor.alarms();
    assert_eq!(
        alarms.set(AlarmKind::ErrorBudgetExceeded, true, "err=0.3"),
        Some(AlarmTransition::Raised)
    );
    assert_eq!(alarms.set(AlarmKind::ErrorBudgetExceeded, true, "err=0.4"), None);
    assert_eq!(
        alarms.set(AlarmKind::ErrorBudgetExceeded, false, ""),
        Some(AlarmTransition::Cleared)
    );
    assert_eq!(
        alarms.set(AlarmKind::ErrorBudgetExceeded, true, "err=0.5"),
        Some(AlarmTransition::Raised)
    );
}
