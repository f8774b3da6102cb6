//! Standing-query subscriptions: one cached estimate per expression
//! class, incremental re-estimation, and typed change notifications.
//!
//! The paper's deployment model registers set-expression cardinality
//! queries once and watches them forever. The §4 estimator reads an
//! expression only through the streams it names (they fix the union
//! estimate û) and its Boolean mapping B(E) over them, so
//! [`crate::StreamEngine::subscribe`] files each (simplified) expression
//! under its *class*: its sorted streams and the Venn cells over them
//! that it contains. Subscriptions in one class share one estimate per
//! round. Each epoch, [`crate::StreamEngine::publish_epoch`]:
//!
//! 1. drains the set of atomic streams that changed since the last epoch
//!    (fed by the ingest paths and distributed delta frames),
//! 2. re-estimates only the classes that read a changed stream, or that
//!    hold no estimate yet, serving every other class from its cache,
//! 3. emits a typed [`ChangeEvent`] for each subscription whose estimate
//!    broke its [`Tolerance`] rule.
//!
//! Threshold alarms are subscriptions too: [`Tolerance::Above`] and
//! [`Tolerance::Below`] notify once when the estimate crosses the
//! threshold and once when it falls back past the hysteresis band, so
//! alarms and drift subscriptions share one class map and one estimate
//! per class per round.

use serde::{Deserialize, Serialize};
use setstream_core::Estimate;
use setstream_expr::{SetExpr, ToleranceSpec};
use setstream_obs::{Counter, Gauge, Histogram, MetricSource, Sample};
use setstream_stream::StreamId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
    /// A stream the expression reads changed during the epoch.
    Delta,
    /// The expression's class held no estimate, though none of its
    /// streams changed: the first epoch after a restore, or a retry after
    /// a failed estimate.
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
    /// The id of the class it reads in the hub's class map.
    pub(crate) class: u64,
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
    /// Expression classes backing subscriptions.
    pub classes: Gauge,
    /// Notification rounds run.
    pub rounds: Counter,
    /// Classes re-estimated because a stream they read changed or they
    /// held no estimate.
    pub nodes_evaluated: Counter,
    /// Classes served from their cached estimate.
    pub nodes_cached: Counter,
    /// Change events emitted to subscribers.
    pub notifications: Counter,
    /// Wall-clock latency of notification rounds, nanoseconds.
    pub round_ns: Histogram,
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
            classes: Gauge::new(),
            rounds: Counter::new(),
            nodes_evaluated: Counter::new(),
            nodes_cached: Counter::new(),
            notifications: Counter::new(),
            round_ns: Histogram::latency_ns(),
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
            Sample::gauge("setstream_engine_subs_classes", self.classes.get())
                .with_help("Expression classes backing subscriptions"),
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
            .with_help("Expression classes re-estimated"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_subs_nodes_cached_total",
                self.nodes_cached.get(),
            )
            .with_help("Expression classes served from their cached estimate"),
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
                self.round_ns.snapshot(),
            )
            .with_help("Wall-clock latency of subscription rounds in nanoseconds"),
        );
    }
}

/// Cell keys are enumerated for at most this many streams: a key costs
/// `2^k` evaluations of B(E).
const CELL_KEY_MAX_STREAMS: usize = 12;

/// What the estimator can tell of an expression: the sorted streams it
/// names and the Venn cells over them that it contains (bit `i` of a cell
/// is the `i`-th stream). Equal keys estimate to the same bits. Past
/// [`CELL_KEY_MAX_STREAMS`] streams the key is the expression itself, so
/// only identical expressions share a class there.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ClassKey {
    Cells(Vec<StreamId>, Vec<u32>),
    Expr(SetExpr),
}

impl ClassKey {
    fn of(expr: &SetExpr, streams: &[StreamId]) -> Self {
        if streams.len() > CELL_KEY_MAX_STREAMS {
            return ClassKey::Expr(expr.clone());
        }
        let cells = (1u32..1 << streams.len())
            .filter(|&mask| {
                expr.eval_bool(
                    &|sid| matches!(streams.binary_search(&sid), Ok(bit) if mask >> bit & 1 == 1),
                )
            })
            .collect();
        ClassKey::Cells(streams.to_vec(), cells)
    }
}

/// One expression class: every subscription filed under its key reads
/// this one cached estimate.
#[derive(Debug)]
pub(crate) struct Class {
    /// The expression of the subscription that opened the class.
    pub(crate) expr: SetExpr,
    /// Sorted streams the class reads.
    pub(crate) streams: Vec<StreamId>,
    subscribers: usize,
    /// `None` until the first round estimates the class, and after a
    /// failed estimate.
    pub(crate) estimate: Option<Estimate>,
}

/// Engine-internal state of the subscription layer: the registered
/// subscribers, the expression classes they share, and the set of streams
/// dirtied since the last epoch.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionHub {
    pub(crate) subs: BTreeMap<SubscriptionId, Subscription>,
    pub(crate) classes: BTreeMap<u64, Class>,
    class_ids: HashMap<ClassKey, u64>,
    next_class: u64,
    pub(crate) next_sub: u64,
    pub(crate) dirty: BTreeSet<StreamId>,
    pub(crate) epoch: u64,
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

    /// Register a subscriber on `expr` (already simplified).
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

    /// Install a subscription under a caller-chosen id (snapshot restore),
    /// joining its expression's class or opening one.
    pub(crate) fn install(
        &mut self,
        id: SubscriptionId,
        expr: SetExpr,
        options: SubscriptionOptions,
        last_notified: Option<f64>,
    ) {
        let streams = expr.streams();
        let class = match self.class_ids.entry(ClassKey::of(&expr, &streams)) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let class = *slot.insert(self.next_class);
                self.next_class += 1;
                let opened = Class {
                    expr: expr.clone(),
                    streams,
                    subscribers: 0,
                    estimate: None,
                };
                self.classes.insert(class, opened);
                class
            }
        };
        if let Some(joined) = self.classes.get_mut(&class) {
            joined.subscribers += 1;
        }
        self.subs.insert(
            id,
            Subscription {
                id,
                expr,
                class,
                options,
                last_notified,
            },
        );
        self.next_sub = self.next_sub.max(id.value() + 1);
        self.metrics.subscribed.inc();
        self.record_sizes();
    }

    /// Remove a subscription; its class goes with its last subscriber.
    pub(crate) fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let removed = self.subs.remove(&id)?;
        if let Some(class) = self.classes.get_mut(&removed.class) {
            class.subscribers -= 1;
            if class.subscribers == 0 {
                // The opener's expression has the key the class is filed under.
                self.class_ids.remove(&ClassKey::of(&class.expr, &class.streams));
                self.classes.remove(&removed.class);
            }
        }
        self.metrics.unsubscribed.inc();
        self.record_sizes();
        Some(removed)
    }

    fn record_sizes(&self) {
        self.metrics.registered.set(self.subs.len() as i64);
        self.metrics.classes.set(self.classes.len() as i64);
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
        // Distinct subscriptions, one shared class.
        assert_eq!(hub.classes.len(), 1);
        assert_eq!(hub.metrics.registered.get(), 2);
        assert_eq!(hub.metrics.classes.get(), 1);
        hub.remove(s1).unwrap();
        assert_eq!(hub.metrics.registered.get(), 1);
        assert_eq!(hub.classes.len(), 1, "the twin still reads the class");
        assert!(hub.remove(s1).is_none());
        hub.remove(s2).unwrap();
        assert!(hub.classes.is_empty() && hub.class_ids.is_empty());
        assert_eq!(hub.metrics.classes.get(), 0);
    }

    /// Members of one class name the same streams, denote the same set,
    /// and estimate to the same bits, so one cached estimate serves all.
    #[test]
    fn class_members_are_estimator_identical() {
        let mut hub = SubscriptionHub::new();
        let mut engine = small_engine();
        for e in 0..400u64 {
            let stream = StreamId((e % 5) as u32);
            engine.process(&setstream_stream::Update::insert(stream, e % 97, 1));
        }
        let mut members: BTreeMap<u64, Vec<SetExpr>> = BTreeMap::new();
        for seed in 0..200u64 {
            let expr = setstream_expr::simplify(&setstream_expr::random_expr(seed, 5, 4));
            let id = hub.register(expr.clone(), SubscriptionOptions::default());
            members.entry(hub.subs[&id].class).or_default().push(expr);
        }
        assert_eq!(members.len(), hub.classes.len());
        assert!(members.len() < 200, "some random expressions share a class");
        for (class, exprs) in &members {
            let first = &hub.classes[class].expr;
            let value = engine.evaluate(first).unwrap().value;
            for expr in exprs {
                assert_eq!(expr.streams(), hub.classes[class].streams);
                assert!(setstream_expr::equivalent(expr, first), "{expr} vs {first}");
                assert_eq!(
                    engine.evaluate(expr).unwrap().value.to_bits(),
                    value.to_bits()
                );
            }
        }
    }

    /// Past the cell-key cap the key is the expression itself: a repeat
    /// registration shares the class without enumerating `2^13` cells,
    /// and a commuted twin gets a class of its own.
    #[test]
    fn wide_expressions_key_on_the_expression() {
        let wide = (1..=CELL_KEY_MAX_STREAMS as u32)
            .fold(SetExpr::stream(0), |acc, s| acc.union(SetExpr::stream(s)));
        assert_eq!(wide.streams().len(), CELL_KEY_MAX_STREAMS + 1);
        let mut hub = SubscriptionHub::new();
        hub.register(wide.clone(), SubscriptionOptions::default());
        hub.register(wide.clone(), SubscriptionOptions::default());
        assert_eq!(hub.classes.len(), 1);
        assert!(hub.class_ids.keys().all(|k| matches!(k, ClassKey::Expr(_))));
        let SetExpr::Union(left, right) = wide else {
            unreachable!("built as a union")
        };
        hub.register(right.union(*left), SubscriptionOptions::default());
        assert_eq!(hub.classes.len(), 2);
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
