//! Quality-plane acceptance tests: induced degradations flip exactly the
//! typed alarm that names them, and recovery clears it.
//!
//! Two deterministic scenarios (fixed seeds, no RNG at test time):
//!
//! * an **undersized sketch family** pushes the estimate outside the
//!   configured error budget → [`AlarmKind::ErrorBudgetExceeded`] raises,
//!   a properly planned family clears it, starving again re-raises it;
//! * a **quarantined site** degrades coordinator collection health →
//!   [`AlarmKind::StaleSites`] raises, releasing the quarantine clears
//!   it, corrupting the wire again re-raises it.

use bytes::Bytes;
use setstream_apps::core::SketchFamily;
use setstream_apps::distributed::{Coordinator, Site};
use setstream_apps::engine::{
    QualityConfig, QualityMonitor, StreamEngine, SubscriptionId, SubscriptionOptions,
};
use setstream_apps::obs::AlarmKind;
use setstream_apps::stream::{StreamId, Update};

/// Two overlapping streams: A = [0, 12000), B = [6000, 18000).
fn workload() -> Vec<Update> {
    let mut updates = Vec::with_capacity(24_000);
    for e in 0..12_000u64 {
        updates.push(Update::insert(StreamId(0), e, 1));
        updates.push(Update::insert(StreamId(1), e + 6_000, 1));
    }
    updates
}

/// An engine over `updates` whose one subscription is `A | B`, with the
/// epoch published. Engines number their subscriptions alike, so every
/// engine built here returns the same id.
fn engine_over(
    copies: usize,
    second_level: u32,
    updates: &[Update],
) -> (StreamEngine, SubscriptionId) {
    let family = SketchFamily::builder()
        .copies(copies)
        .second_level(second_level)
        .seed(11)
        .build();
    let mut engine = StreamEngine::new(family);
    let expr = "A | B".parse().expect("parses");
    let union = engine
        .subscribe(expr, SubscriptionOptions::default())
        .expect("subscribes");
    engine.process_batch(updates);
    engine.publish_epoch();
    (engine, union)
}

fn alarm_counts(monitor: &QualityMonitor, kind: AlarmKind) -> (u64, u64) {
    let status = monitor
        .alarms()
        .snapshot()
        .into_iter()
        .find(|s| s.kind == kind)
        .expect("every kind has a slot");
    (status.raised_total, status.cleared_total)
}

#[test]
fn undersized_family_raises_error_budget_alarm_and_planned_family_clears_it() {
    let updates = workload();
    // Rate 1.0: the shadow is the exact truth, so the observed error is
    // purely the sketch family's fault — fully deterministic.
    let monitor = QualityMonitor::new(QualityConfig {
        sampling_rate: 1.0,
        error_budget: 0.05,
        ..QualityConfig::default()
    })
    .expect("valid config");
    monitor.observe_batch(&updates);

    // r = 8 copies is far below any (ε, δ) plan for a 18k-element union.
    let (starved, union) = engine_over(8, 4, &updates);
    monitor.watch("union", union);
    let reports = monitor.evaluate(&starved);
    let err = reports[0].relative_error.expect("shadow is populated");
    assert!(
        monitor.alarms().is_active(AlarmKind::ErrorBudgetExceeded),
        "undersized family must blow the 5% budget (observed {err:.3})"
    );

    // A properly sized family recovers: the same monitor, the same
    // shadow truth, an in-budget estimate.
    let (healthy, _) = engine_over(1024, 64, &updates);
    let reports = monitor.evaluate(&healthy);
    let err = reports[0].relative_error.expect("shadow is populated");
    assert!(
        !monitor.alarms().is_active(AlarmKind::ErrorBudgetExceeded),
        "planned family must clear the alarm (observed {err:.3})"
    );

    // Degrade again → the edge re-fires and is counted.
    monitor.evaluate(&starved);
    assert!(monitor.alarms().is_active(AlarmKind::ErrorBudgetExceeded));
    assert_eq!(
        alarm_counts(&monitor, AlarmKind::ErrorBudgetExceeded),
        (2, 1),
        "raise → clear → re-raise"
    );
}

#[test]
fn quarantined_site_raises_stale_sites_alarm_until_released() {
    let family = SketchFamily::builder()
        .copies(32)
        .second_level(8)
        .seed(5)
        .build();
    let coordinator = Coordinator::new(family).with_quarantine_after(1);
    let mut site = Site::new(7, family);
    site.observe(&Update::insert(StreamId(0), 1, 1));
    let frames = site.cut_epoch().expect("epoch cut").frames;
    for f in &frames {
        coordinator.ingest_frame(f).expect("clean frames land");
    }

    let monitor = QualityMonitor::new(QualityConfig::default()).expect("valid config");
    let feed_health = |monitor: &QualityMonitor| {
        let h = coordinator.health();
        monitor.note_collection_health(h.sites, h.quarantined, h.lagging, h.resync_pending);
    };
    feed_health(&monitor);
    assert!(!monitor.alarms().is_active(AlarmKind::StaleSites));

    // One corrupt frame (threshold 1) quarantines the site.
    let mut corrupt = frames[1].to_vec();
    corrupt[frames[1].len() / 2] ^= 0xff;
    let corrupt = Bytes::from(corrupt);
    coordinator.ingest_frame_from(7, &corrupt).expect_err("corrupt frame");
    feed_health(&monitor);
    assert!(
        monitor.alarms().is_active(AlarmKind::StaleSites),
        "quarantine must surface as a StaleSites alarm"
    );

    // Operator releases the quarantine → recovery clears the alarm.
    coordinator.release_quarantine(7);
    feed_health(&monitor);
    assert!(!monitor.alarms().is_active(AlarmKind::StaleSites));

    // The wire goes bad again → re-raise, with both edges counted.
    coordinator.ingest_frame_from(7, &corrupt).expect_err("corrupt frame");
    feed_health(&monitor);
    assert!(monitor.alarms().is_active(AlarmKind::StaleSites));
    assert_eq!(alarm_counts(&monitor, AlarmKind::StaleSites), (2, 1));
}
