//! Standing-query subscriptions: interned expression DAG, incremental
//! delta evaluation, and typed change notifications.
//!
//! The paper's deployment model registers set-expression cardinality
//! queries once and watches them forever. [`crate::StreamEngine::subscribe`]
//! hash-conses each (simplified) expression into a shared
//! [`ExprDag`], so structurally- or semantically-identical subexpressions
//! — and their Boolean mappings B(E) — are planned and evaluated exactly
//! once per round. Each epoch, [`crate::StreamEngine::publish_epoch`]:
//!
//! 1. drains the set of atomic streams that changed since the last epoch
//!    (fed by the ingest paths and distributed delta frames),
//! 2. dirty-propagates from those streams' leaves up the DAG
//!    ([`ExprDag::taint`]),
//! 3. re-estimates only the tainted subscription roots, serving every
//!    other subscriber from the per-node [`setstream_core::EvalCache`],
//! 4. emits a typed [`ChangeEvent`] for each subscription whose estimate
//!    broke its [`Tolerance`] rule.
//!
//! Threshold alarms are subscriptions too: [`Tolerance::Above`] and
//! [`Tolerance::Below`] notify once when the estimate crosses the
//! threshold and once when it falls back past the hysteresis band, so
//! alarms and drift subscriptions share one DAG, one cache and one
//! evaluation per distinct expression class per round.

use serde::{Deserialize, Serialize};
use setstream_core::EvalCache;
use setstream_expr::intern::{ExprDag, NodeId};
use setstream_expr::{SetExpr, ToleranceSpec};
use setstream_obs::{Counter, Gauge, Histogram, MetricSource, Sample};
use setstream_stream::StreamId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Handle to a registered subscription.
///
/// Minted by the engine, not forged; use [`SubscriptionId::value`] for
/// display or external correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    pub(crate) fn new(id: u64) -> Self {
        SubscriptionId(id)
    }

    /// The numeric handle value (for logs and external correlation).
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The notification rule of a subscription, judged against the last
/// *notified* value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Tolerance {
    /// Notify when the estimate moves by more than this many elements.
    Absolute(f64),
    /// Notify when the estimate moves by more than this fraction of the
    /// last notified value. A last value of zero makes any non-zero move
    /// notify.
    Relative(f64),
    /// Threshold alarm: notify when the estimate rises strictly above
    /// `threshold` (trip), then once more when it falls to
    /// `threshold − hysteresis` or below (release). Dips that stay inside
    /// the hysteresis band notify nothing, so an estimate oscillating on
    /// the threshold does not flap.
    Above {
        /// Trip level; an estimate exactly at it does not trip.
        threshold: f64,
        /// How far below the threshold a tripped alarm must fall to
        /// release.
        hysteresis: f64,
    },
    /// The mirror of [`Tolerance::Above`]: trip strictly below
    /// `threshold`, release at `threshold + hysteresis` or above.
    Below {
        /// Trip level; an estimate exactly at it does not trip.
        threshold: f64,
        /// How far above the threshold a tripped alarm must rise to
        /// release.
        hysteresis: f64,
    },
}

impl Default for Tolerance {
    /// Zero absolute tolerance: every estimate change notifies.
    fn default() -> Self {
        Tolerance::Absolute(0.0)
    }
}

impl Tolerance {
    /// `true` when moving from `last` (the last notified value) to
    /// `current` must notify. A threshold rule is tripped exactly when
    /// `last` lies past its threshold, so it notifies on the edges only:
    /// a tripped rule waits for the release bound, an untripped one for
    /// the threshold.
    pub fn exceeded(&self, last: f64, current: f64) -> bool {
        match *self {
            Tolerance::Absolute(band) => (current - last).abs() > band,
            Tolerance::Relative(frac) => (current - last).abs() > frac * last.abs(),
            Tolerance::Above { threshold, hysteresis } if last > threshold => {
                current <= threshold - hysteresis
            }
            Tolerance::Above { threshold, .. } => current > threshold,
            Tolerance::Below { threshold, hysteresis } if last < threshold => {
                current >= threshold + hysteresis
            }
            Tolerance::Below { threshold, .. } => current < threshold,
        }
    }

    fn validate(&self) -> Result<(), SubscriptionError> {
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        match *self {
            Tolerance::Absolute(band) | Tolerance::Relative(band) if !non_negative(band) => {
                Err(SubscriptionError::InvalidTolerance(band))
            }
            Tolerance::Above { threshold, .. } | Tolerance::Below { threshold, .. }
                if !threshold.is_finite() =>
            {
                Err(SubscriptionError::InvalidTolerance(threshold))
            }
            Tolerance::Above { hysteresis, .. } | Tolerance::Below { hysteresis, .. }
                if !non_negative(hysteresis) =>
            {
                Err(SubscriptionError::InvalidHysteresis(hysteresis))
            }
            _ => Ok(()),
        }
    }
}

impl From<ToleranceSpec> for Tolerance {
    fn from(spec: ToleranceSpec) -> Self {
        match spec {
            ToleranceSpec::Absolute(v) => Tolerance::Absolute(v),
            ToleranceSpec::Relative(v) => Tolerance::Relative(v),
        }
    }
}

/// Why a subscription's notification rule was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubscriptionError {
    /// A tolerance band is negative or non-finite, or a threshold is
    /// non-finite.
    InvalidTolerance(f64),
    /// A threshold rule's hysteresis band is negative or non-finite.
    InvalidHysteresis(f64),
}

impl fmt::Display for SubscriptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscriptionError::InvalidTolerance(b) => {
                write!(f, "tolerance {b} must be finite (and a band non-negative)")
            }
            SubscriptionError::InvalidHysteresis(h) => {
                write!(f, "hysteresis band {h} must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for SubscriptionError {}

/// Validated options for a subscription. Construct via
/// [`SubscriptionOptions::builder`] (the engine-wide config-builder
/// idiom) or rely on [`Default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscriptionOptions {
    pub(crate) tolerance: Tolerance,
    pub(crate) notify_initial: bool,
}

impl Default for SubscriptionOptions {
    /// Zero tolerance, with an [`ChangeCause::Initial`] notification on
    /// the first evaluated epoch.
    fn default() -> Self {
        SubscriptionOptions {
            tolerance: Tolerance::default(),
            notify_initial: true,
        }
    }
}

impl SubscriptionOptions {
    /// Start building options.
    pub fn builder() -> SubscriptionOptionsBuilder {
        SubscriptionOptionsBuilder {
            options: SubscriptionOptions::default(),
        }
    }

    /// The notification rule.
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    /// Whether the first evaluated estimate is notified.
    pub fn notify_initial(&self) -> bool {
        self.notify_initial
    }
}

/// Builder for [`SubscriptionOptions`]; [`build`](Self::build) validates.
#[derive(Debug, Clone)]
pub struct SubscriptionOptionsBuilder {
    options: SubscriptionOptions,
}

impl SubscriptionOptionsBuilder {
    /// Set the notification rule.
    pub fn tolerance(mut self, tolerance: Tolerance) -> Self {
        self.options.tolerance = tolerance;
        self
    }

    /// Suppress or emit the first-epoch [`ChangeCause::Initial`] event
    /// (emitted by default).
    pub fn notify_initial(mut self, notify: bool) -> Self {
        self.options.notify_initial = notify;
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> Result<SubscriptionOptions, SubscriptionError> {
        self.options.tolerance.validate()?;
        Ok(self.options)
    }
}

/// What drove a notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeCause {
    /// The subscription's first evaluated estimate.
    Initial,
    /// An epoch delta tainted the expression's DAG node.
    Delta,
    /// A full refresh re-evaluated the node (explicit
    /// [`crate::StreamEngine::refresh_subscriptions`] or a cold cache
    /// after restore).
    Full,
}

impl ChangeCause {
    /// Stable snake_case name (metric/label friendly).
    pub fn as_str(&self) -> &'static str {
        match self {
            ChangeCause::Initial => "initial",
            ChangeCause::Delta => "delta",
            ChangeCause::Full => "full",
        }
    }
}

impl fmt::Display for ChangeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed notification: a subscription's estimate moved outside its
/// tolerance band, or crossed its threshold rule's trip or release bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeEvent {
    /// Which subscription moved.
    pub sub_id: SubscriptionId,
    /// The last notified value (`None` on the first notification).
    pub old: Option<f64>,
    /// The new estimate.
    pub new: f64,
    /// What drove the re-evaluation.
    pub cause: ChangeCause,
    /// The engine epoch that produced the event.
    pub epoch: u64,
}

/// A registered standing query.
#[derive(Debug, Clone)]
pub struct Subscription {
    pub(crate) id: SubscriptionId,
    pub(crate) expr: SetExpr,
    pub(crate) node: NodeId,
    pub(crate) options: SubscriptionOptions,
    pub(crate) last_notified: Option<f64>,
}

impl Subscription {
    /// Handle.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The simplified expression being watched.
    pub fn expr(&self) -> &SetExpr {
        &self.expr
    }

    /// The interned DAG node serving this subscription (shared with every
    /// equivalent subscription).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The options it registered with.
    pub fn options(&self) -> &SubscriptionOptions {
        &self.options
    }

    /// The last value the subscriber was notified about.
    pub fn last_notified(&self) -> Option<f64> {
        self.last_notified
    }
}

/// Metrics for the subscription layer (names follow the
/// `setstream_engine_subs_*` convention).
#[derive(Debug)]
pub struct SubscriptionMetrics {
    /// Subscriptions registered over the engine's lifetime.
    pub subscribed: Counter,
    /// Subscriptions removed.
    pub unsubscribed: Counter,
    /// Currently registered subscriptions.
    pub registered: Gauge,
    /// Distinct interned DAG nodes backing subscriptions.
    pub dag_nodes: Gauge,
    /// Notification rounds run (incremental + full).
    pub rounds: Counter,
    /// DAG roots re-estimated because a delta tainted them.
    pub nodes_evaluated: Counter,
    /// DAG roots served straight from the clean estimate cache.
    pub nodes_cached: Counter,
    /// Change events emitted to subscribers.
    pub notifications: Counter,
    /// Wall-clock latency of incremental rounds, nanoseconds.
    pub incremental_round_ns: Histogram,
    /// Wall-clock latency of full-refresh rounds, nanoseconds.
    pub full_round_ns: Histogram,
}

impl Default for SubscriptionMetrics {
    fn default() -> Self {
        SubscriptionMetrics::new()
    }
}

impl SubscriptionMetrics {
    /// Fresh, all-zero metrics with the standard latency buckets.
    pub fn new() -> Self {
        SubscriptionMetrics {
            subscribed: Counter::new(),
            unsubscribed: Counter::new(),
            registered: Gauge::new(),
            dag_nodes: Gauge::new(),
            rounds: Counter::new(),
            nodes_evaluated: Counter::new(),
            nodes_cached: Counter::new(),
            notifications: Counter::new(),
            incremental_round_ns: Histogram::latency_ns(),
            full_round_ns: Histogram::latency_ns(),
        }
    }
}

impl MetricSource for SubscriptionMetrics {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(
            Sample::counter(
                "setstream_engine_subs_subscribed_total",
                self.subscribed.get(),
            )
            .with_help("Subscriptions registered over the engine lifetime"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_subs_unsubscribed_total",
                self.unsubscribed.get(),
            )
            .with_help("Subscriptions removed"),
        );
        out.push(
            Sample::gauge("setstream_engine_subs_registered", self.registered.get())
                .with_help("Currently registered subscriptions"),
        );
        out.push(
            Sample::gauge("setstream_engine_subs_dag_nodes", self.dag_nodes.get())
                .with_help("Distinct interned expression-DAG nodes"),
        );
        out.push(
            Sample::counter("setstream_engine_subs_rounds_total", self.rounds.get())
                .with_help("Subscription notification rounds run"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_subs_nodes_evaluated_total",
                self.nodes_evaluated.get(),
            )
            .with_help("DAG roots re-estimated after delta tainting"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_subs_nodes_cached_total",
                self.nodes_cached.get(),
            )
            .with_help("DAG roots served from the clean estimate cache"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_subs_notifications_total",
                self.notifications.get(),
            )
            .with_help("Change events emitted to subscribers"),
        );
        out.push(
            Sample::histogram(
                "setstream_engine_subs_round_latency_ns",
                self.incremental_round_ns.snapshot(),
            )
            .with_label("mode", "incremental")
            .with_help("Wall-clock latency of subscription rounds in nanoseconds"),
        );
        out.push(
            Sample::histogram(
                "setstream_engine_subs_round_latency_ns",
                self.full_round_ns.snapshot(),
            )
            .with_label("mode", "full")
            .with_help("Wall-clock latency of subscription rounds in nanoseconds"),
        );
    }
}

/// Engine-internal state of the subscription layer: the shared DAG, the
/// per-node estimate cache, the registered subscribers, and the set of
/// streams dirtied since the last epoch.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionHub {
    pub(crate) dag: ExprDag,
    pub(crate) cache: EvalCache,
    pub(crate) subs: BTreeMap<SubscriptionId, Subscription>,
    pub(crate) next_sub: u64,
    pub(crate) dirty: BTreeSet<StreamId>,
    pub(crate) epoch: u64,
    /// Per-node cause of pending (not-yet-published) re-evaluations.
    pub(crate) pending: BTreeMap<NodeId, ChangeCause>,
    pub(crate) metrics: Arc<SubscriptionMetrics>,
}

impl SubscriptionHub {
    pub(crate) fn new() -> Self {
        SubscriptionHub {
            next_sub: 1,
            metrics: Arc::new(SubscriptionMetrics::new()),
            ..Default::default()
        }
    }

    /// Intern `expr` (already simplified) and register a subscriber on the
    /// resulting node.
    pub(crate) fn register(
        &mut self,
        expr: SetExpr,
        options: SubscriptionOptions,
    ) -> SubscriptionId {
        let id = SubscriptionId::new(self.next_sub);
        self.next_sub += 1;
        self.install(id, expr, options, None);
        id
    }

    /// Install a subscription under a caller-chosen id (snapshot restore).
    pub(crate) fn install(
        &mut self,
        id: SubscriptionId,
        expr: SetExpr,
        options: SubscriptionOptions,
        last_notified: Option<f64>,
    ) {
        let node = self.dag.intern(&expr);
        self.cache.ensure(self.dag.len());
        self.subs.insert(
            id,
            Subscription {
                id,
                expr,
                node,
                options,
                last_notified,
            },
        );
        self.next_sub = self.next_sub.max(id.value() + 1);
        self.metrics.subscribed.inc();
        self.metrics.registered.set(self.subs.len() as i64);
        self.metrics.dag_nodes.set(self.dag.len() as i64);
    }

    pub(crate) fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let removed = self.subs.remove(&id);
        if removed.is_some() {
            self.metrics.unsubscribed.inc();
            self.metrics.registered.set(self.subs.len() as i64);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_bands() {
        assert!(Tolerance::Absolute(10.0).exceeded(100.0, 111.0));
        assert!(!Tolerance::Absolute(10.0).exceeded(100.0, 110.0));
        assert!(Tolerance::Relative(0.05).exceeded(100.0, 106.0));
        assert!(!Tolerance::Relative(0.05).exceeded(100.0, 105.0));
        // Relative to zero: any move notifies.
        assert!(Tolerance::Relative(0.05).exceeded(0.0, 0.5));
        // Zero tolerance: every change notifies, no change doesn't.
        assert!(Tolerance::default().exceeded(5.0, 5.1));
        assert!(!Tolerance::default().exceeded(5.0, 5.0));
    }

    #[test]
    fn tolerance_spec_conversion() {
        assert_eq!(
            Tolerance::from(ToleranceSpec::Absolute(9.0)),
            Tolerance::Absolute(9.0)
        );
        assert_eq!(
            Tolerance::from(ToleranceSpec::Relative(0.1)),
            Tolerance::Relative(0.1)
        );
    }

    #[test]
    fn builder_validates() {
        let ok = SubscriptionOptions::builder()
            .tolerance(Tolerance::Relative(0.05))
            .notify_initial(false)
            .build()
            .unwrap();
        assert_eq!(ok.tolerance(), Tolerance::Relative(0.05));
        assert!(!ok.notify_initial());

        let err = SubscriptionOptions::builder()
            .tolerance(Tolerance::Absolute(-1.0))
            .build()
            .unwrap_err();
        assert_eq!(err, SubscriptionError::InvalidTolerance(-1.0));
        assert!(err.to_string().contains("non-negative"));

        assert!(SubscriptionOptions::builder()
            .tolerance(Tolerance::Relative(f64::NAN))
            .build()
            .is_err());

        let threshold = |threshold, hysteresis| {
            SubscriptionOptions::builder()
                .tolerance(Tolerance::Above {
                    threshold,
                    hysteresis,
                })
                .build()
        };
        assert!(
            threshold(-5.0, 0.0).is_ok(),
            "any finite threshold is valid"
        );
        assert!(matches!(
            threshold(f64::NAN, 1.0),
            Err(SubscriptionError::InvalidTolerance(t)) if t.is_nan()
        ));
        let err = threshold(100.0, -1.0).unwrap_err();
        assert_eq!(err, SubscriptionError::InvalidHysteresis(-1.0));
        assert!(err.to_string().contains("hysteresis"));
        assert!(SubscriptionOptions::builder()
            .tolerance(Tolerance::Below {
                threshold: 100.0,
                hysteresis: f64::INFINITY
            })
            .build()
            .is_err());
    }

    fn above(hysteresis: f64) -> Tolerance {
        Tolerance::Above {
            threshold: 100.0,
            hysteresis,
        }
    }

    fn below(hysteresis: f64) -> Tolerance {
        Tolerance::Below {
            threshold: 100.0,
            hysteresis,
        }
    }

    #[test]
    fn trigger_directions() {
        // From an untripped last value, only crossing the threshold
        // notifies.
        assert!(above(0.0).exceeded(50.0, 101.0));
        assert!(!above(0.0).exceeded(50.0, 99.0));
        assert!(below(0.0).exceeded(150.0, 99.0));
        assert!(!below(0.0).exceeded(150.0, 101.0));
    }

    #[test]
    fn equal_to_threshold_never_triggers() {
        // Pinned: comparisons are strict in both directions.
        for rule in [above(0.0), below(0.0)] {
            assert!(
                !rule.exceeded(100.0, 100.0),
                "{rule:?} must not trip at the threshold"
            );
        }
        assert!(!above(0.0).exceeded(0.0, 100.0));
        assert!(!below(0.0).exceeded(500.0, 100.0));
    }

    #[test]
    fn release_bands_mirror_the_direction() {
        // A tripped last value (past the threshold) waits for the release
        // bound instead.
        assert!(!above(10.0).exceeded(120.0, 95.0)); // inside the band: stay tripped
        assert!(above(10.0).exceeded(120.0, 90.0)); // at threshold − h: release
        assert!(above(10.0).exceeded(120.0, 80.0));
        assert!(
            !above(10.0).exceeded(120.0, 150.0),
            "rising further is not an edge"
        );
        assert!(!below(10.0).exceeded(80.0, 105.0));
        assert!(below(10.0).exceeded(80.0, 110.0));
        assert!(below(10.0).exceeded(80.0, 120.0));
        assert!(
            !below(10.0).exceeded(80.0, 50.0),
            "falling further is not an edge"
        );
    }

    #[test]
    fn zero_hysteresis_release_is_not_triggers() {
        // With zero hysteresis a tripped rule releases exactly when a
        // fresh one would not trip.
        for v in [0.0, 99.9, 100.0, 100.1, 500.0] {
            assert_eq!(
                above(0.0).exceeded(101.0, v),
                !above(0.0).exceeded(0.0, v),
                "v={v}"
            );
            assert_eq!(
                below(0.0).exceeded(99.0, v),
                !below(0.0).exceeded(200.0, v),
                "v={v}"
            );
        }
    }

    #[test]
    fn hub_registration_round_trips() {
        let mut hub = SubscriptionHub::new();
        let e1: SetExpr = "(A & B) - C".parse().unwrap();
        let e2: SetExpr = "(B & A) - C".parse().unwrap();
        let s1 = hub.register(e1, SubscriptionOptions::default());
        let s2 = hub.register(e2, SubscriptionOptions::default());
        assert_ne!(s1, s2);
        // Distinct subscriptions, one shared DAG node.
        let n1 = hub.subs[&s1].node();
        let n2 = hub.subs[&s2].node();
        assert_eq!(n1, n2);
        assert_eq!(hub.metrics.registered.get(), 2);
        hub.remove(s1).unwrap();
        assert_eq!(hub.metrics.registered.get(), 1);
        assert!(hub.remove(s1).is_none());
    }

    fn small_engine() -> crate::StreamEngine {
        let family = setstream_core::SketchFamily::builder()
            .copies(4)
            .second_level(4)
            .seed(1)
            .build();
        crate::StreamEngine::new(family)
    }

    #[test]
    fn registration_simplifies() {
        let mut engine = small_engine();
        let id = engine
            .subscribe(
                "A | (A & B)".parse().unwrap(),
                SubscriptionOptions::default(),
            )
            .unwrap();
        let sub = engine.subscription(id).unwrap();
        assert_eq!(sub.expr(), &"A".parse::<SetExpr>().unwrap());
        assert_eq!(sub.expr().streams(), vec![StreamId(0)]);
    }

    #[test]
    fn irreducible_queries_pass_through() {
        let mut engine = small_engine();
        let expr: SetExpr = "(A - B) & C".parse().unwrap();
        let id = engine
            .subscribe(expr.clone(), SubscriptionOptions::default())
            .unwrap();
        let sub = engine.subscription(id).unwrap();
        assert_eq!(sub.expr(), &expr);
        assert_eq!(sub.expr().streams().len(), 3);
    }

    #[test]
    fn change_cause_names() {
        assert_eq!(ChangeCause::Initial.as_str(), "initial");
        assert_eq!(ChangeCause::Delta.to_string(), "delta");
        assert_eq!(ChangeCause::Full.as_str(), "full");
    }
}
