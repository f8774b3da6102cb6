//! Engine persistence: capture the whole engine state — synopses,
//! subscriptions, counters — into one serde-serializable value.
//!
//! A production stream processor restarts; its synopses must not (they
//! cannot be rebuilt without replaying the stream, which the model
//! forbids). The snapshot carries everything needed to resume: pair it
//! with any serde format (the workspace's binary codec in
//! `setstream-distributed::codec` is the intended one).

use crate::engine::StreamEngine;
use crate::subscribe::{SubscriptionId, SubscriptionOptions, Tolerance};
use serde::{Deserialize, Serialize};
use setstream_core::{EstimatorOptions, SketchFamily, SketchVector};
use setstream_expr::SetExpr;
use setstream_stream::StreamId;

/// A registered subscription in snapshot form. The expression is filed
/// under its class again on restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubscriptionSnapshot {
    /// Subscription id.
    pub id: u64,
    /// The simplified expression being watched.
    pub expr: SetExpr,
    /// Notification rule.
    pub tolerance: Tolerance,
    /// Whether the first evaluation notifies.
    pub notify_initial: bool,
    /// Last value the subscriber was notified about (for a threshold
    /// rule, whether it is tripped).
    pub last_notified: Option<f64>,
}

/// A serializable image of a [`StreamEngine`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Stored coins.
    pub family: SketchFamily,
    /// Estimator configuration.
    pub options: EstimatorOptions,
    /// Per-stream synopses.
    pub synopses: Vec<(StreamId, SketchVector)>,
    /// Registered subscriptions. Estimate caches are **not** carried:
    /// the first epoch after restore re-evaluates from the synopses.
    pub subscriptions: Vec<SubscriptionSnapshot>,
    /// Update counters `(updates, deletions)`.
    pub counters: (u64, u64),
    /// Next subscription id.
    pub next_sub: u64,
    /// Epochs published so far.
    pub epoch: u64,
}

impl StreamEngine {
    /// Capture the engine state.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.metrics().snapshots.inc();
        EngineSnapshot {
            family: *self.family(),
            options: self.options_ref(),
            synopses: self
                .stream_ids()
                // analyze: allow(panic) — `id` comes from this engine's own stream_ids() iteration
                .map(|id| (id, self.synopsis(id).expect("listed stream").clone()))
                .collect(),
            subscriptions: self
                .subscriptions()
                .map(|s| SubscriptionSnapshot {
                    id: s.id().value(),
                    expr: s.expr().clone(),
                    tolerance: s.options().tolerance(),
                    notify_initial: s.options().notify_initial(),
                    last_notified: s.last_notified(),
                })
                .collect(),
            counters: self.counters(),
            next_sub: self.next_sub(),
            epoch: self.subscription_epoch(),
        }
    }

    /// Rebuild an engine from a snapshot.
    pub fn restore(snapshot: EngineSnapshot) -> Self {
        let mut engine = StreamEngine::new(snapshot.family).with_options(snapshot.options);
        engine.metrics().restores.inc();
        for (id, vector) in snapshot.synopses {
            engine.install_synopsis(id, vector);
        }
        for s in snapshot.subscriptions {
            // Builder-validated at original registration; re-validate to
            // stay robust against hand-edited snapshots.
            let options = SubscriptionOptions::builder()
                .tolerance(s.tolerance)
                .notify_initial(s.notify_initial)
                .build()
                .unwrap_or_default();
            engine.install_subscription(
                SubscriptionId::new(s.id),
                s.expr,
                options,
                s.last_notified,
            );
        }
        engine.set_counters(snapshot.counters);
        engine.set_subscription_counters(snapshot.next_sub, snapshot.epoch);
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setstream_stream::Update;

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(32)
            .second_level(8)
            .seed(77)
            .build()
    }

    #[test]
    fn snapshot_restore_preserves_everything() {
        let mut engine = StreamEngine::new(family());
        for e in 0..800u64 {
            engine.process(&Update::insert(StreamId(0), e, 1));
            engine.process(&Update::insert(StreamId(1), e + 400, 1));
        }
        engine.process(&Update::delete(StreamId(0), 5, 1));
        let expr: SetExpr = "A & B".parse().unwrap();
        let options = SubscriptionOptions::builder()
            .tolerance(Tolerance::Above {
                threshold: 100.0,
                hysteresis: 0.0,
            })
            .build()
            .unwrap();
        let id = engine.subscribe(expr.clone(), options).unwrap();
        let tripped = engine.publish_epoch();

        let snap = engine.snapshot();
        let mut restored = StreamEngine::restore(snap);

        // Identical answers.
        assert_eq!(
            engine.evaluate(&expr).unwrap().value,
            restored.evaluate(&expr).unwrap().value
        );
        // Identical stats.
        assert_eq!(engine.stats(), restored.stats());
        // The subscription carried over, rule and last value included.
        let sub = restored.subscription(id).unwrap();
        assert_eq!(sub.options(), &options);
        assert_eq!(sub.last_notified(), Some(tripped[0].new));
        assert_eq!(engine.publish_epoch(), restored.publish_epoch());
    }

    #[test]
    fn restored_engine_keeps_streaming() {
        let mut engine = StreamEngine::new(family());
        for e in 0..500u64 {
            engine.process(&Update::insert(StreamId(0), e, 1));
        }
        let a: SetExpr = "A".parse().unwrap();
        let mut restored = StreamEngine::restore(engine.snapshot());
        // Continue the stream on the restored engine and on the original;
        // answers must agree exactly (same coins, same state).
        for e in 500..900u64 {
            engine.process(&Update::insert(StreamId(0), e, 1));
            restored.process(&Update::insert(StreamId(0), e, 1));
        }
        assert_eq!(
            engine.evaluate(&a).unwrap().value,
            restored.evaluate(&a).unwrap().value
        );
    }

    #[test]
    fn id_counters_survive_so_new_ids_do_not_collide() {
        let mut engine = StreamEngine::new(family());
        let s1 = engine
            .subscribe("A".parse().unwrap(), SubscriptionOptions::default())
            .unwrap();
        let mut restored = StreamEngine::restore(engine.snapshot());
        let s2 = restored
            .subscribe("B".parse().unwrap(), SubscriptionOptions::default())
            .unwrap();
        assert_ne!(s1, s2);
        assert!(restored.subscription(s1).is_some());
        assert!(restored.subscription(s2).is_some());
    }
}
