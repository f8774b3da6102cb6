//! The engine proper: stream registry, ad-hoc estimation, and the
//! standing-query (subscription) rounds.

use crate::metrics::EngineMetrics;
use crate::subscribe::{
    ChangeCause, ChangeEvent, Subscription, SubscriptionError, SubscriptionHub, SubscriptionId,
    SubscriptionMetrics, SubscriptionOptions,
};
use setstream_core::{
    estimate, Estimate, EstimateError, EstimatorOptions, IngestStats, SketchFamily, SketchVector,
};
use setstream_expr::{SetExpr, SubscribeError};
use setstream_hash::clock;
use setstream_obs::{TraceContext, TraceHandle};
use setstream_stream::{StreamId, Update};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Engine failures.
#[derive(Debug)]
pub enum EngineError {
    /// Estimation failed (incompatible synopses cannot happen inside one
    /// engine; this surfaces e.g. `NoValidObservations`).
    Estimate(EstimateError),
    /// Unknown subscription handle.
    UnknownSubscription(SubscriptionId),
    /// Invalid subscription parameters.
    Subscription(SubscriptionError),
    /// A `SUBSCRIBE … TOLERANCE …` statement did not parse.
    Subscribe(SubscribeError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Estimate(e) => write!(f, "estimation error: {e}"),
            EngineError::UnknownSubscription(s) => {
                write!(f, "unknown subscription id {s}")
            }
            EngineError::Subscription(e) => write!(f, "bad subscription: {e}"),
            EngineError::Subscribe(e) => write!(f, "bad SUBSCRIBE statement: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<EstimateError> for EngineError {
    fn from(e: EstimateError) -> Self {
        EngineError::Estimate(e)
    }
}

impl From<SubscriptionError> for EngineError {
    fn from(e: SubscriptionError) -> Self {
        EngineError::Subscription(e)
    }
}

impl From<SubscribeError> for EngineError {
    fn from(e: SubscribeError) -> Self {
        EngineError::Subscribe(e)
    }
}

/// Operational counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Update tuples processed.
    pub updates: u64,
    /// Of which deletions.
    pub deletions: u64,
    /// Streams with a live synopsis.
    pub streams: usize,
    /// Registered subscriptions.
    pub subscriptions: usize,
    /// Synopsis memory in bytes (counters only).
    pub synopsis_bytes: usize,
}

/// The continuous query engine (Figure 1).
pub struct StreamEngine {
    family: SketchFamily,
    options: EstimatorOptions,
    synopses: BTreeMap<StreamId, SketchVector>,
    /// Shared stand-in for streams that have never received an update,
    /// built by the first estimate or subscription round: a relay's
    /// engine, which only takes committed changes, never pays for it.
    empty: OnceLock<SketchVector>,
    subs: SubscriptionHub,
    updates: u64,
    deletions: u64,
    metrics: Arc<EngineMetrics>,
    trace: TraceHandle,
}

/// Estimate an expression against the given synopses (streams the engine
/// has never seen resolve to the shared empty synopsis). Free function so
/// the subscription round can borrow the hub mutably alongside it.
fn estimate_expr_over(
    synopses: &BTreeMap<StreamId, SketchVector>,
    empty: &SketchVector,
    options: &EstimatorOptions,
    expr: &SetExpr,
) -> Result<Estimate, EngineError> {
    let pairs: Vec<(StreamId, &SketchVector)> = expr
        .streams()
        .into_iter()
        .map(|id| (id, synopses.get(&id).unwrap_or(empty)))
        .collect();
    Ok(estimate::expression(expr, &pairs, options)?)
}

impl StreamEngine {
    /// Engine with the given synopsis family and default estimator
    /// options. For an (ε, δ) target, plan the family with
    /// [`setstream_core::Plan`] and vet it with [`SketchFamily::check`]
    /// first: the theorem plans can exceed the cell cap.
    pub fn new(family: SketchFamily) -> Self {
        StreamEngine {
            family,
            options: EstimatorOptions::default(),
            synopses: BTreeMap::new(),
            empty: OnceLock::new(),
            subs: SubscriptionHub::new(),
            updates: 0,
            deletions: 0,
            metrics: Arc::new(EngineMetrics::new()),
            trace: TraceHandle::noop(),
        }
    }

    /// Override the estimator options.
    pub fn with_options(mut self, options: EstimatorOptions) -> Self {
        options.validate();
        self.options = options;
        self
    }

    /// The synopsis family in use.
    pub fn family(&self) -> &SketchFamily {
        &self.family
    }

    // ----------------------------------------------------- observability

    /// This engine's always-on metrics. Register the handle with a
    /// [`setstream_obs::Registry`] to expose them through the exporter.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Install a trace sink for spans around estimate calls
    /// (`engine.query`) and subscription rounds (`engine.publish_epoch`).
    /// Defaults to the no-op sink.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    // ----------------------------------------------------------- updates

    /// Route one update tuple into its stream's synopsis (created lazily).
    pub fn process(&mut self, update: &Update) {
        self.synopses
            .entry(update.stream)
            .or_insert_with(|| self.family.new_vector())
            .process(update);
        self.subs.dirty.insert(update.stream);
        self.updates += 1;
        self.metrics.ingest_updates.inc();
        if update.is_deletion() {
            self.deletions += 1;
            self.metrics.ingest_deletions.inc();
        }
    }

    /// Process a batch of updates.
    ///
    /// The batch is grouped by stream and each group is driven through
    /// the synopsis batch path ([`SketchVector::update_batch`]); since
    /// sketch maintenance is linear, the result is bit-for-bit identical
    /// to processing the tuples one at a time in arrival order.
    pub fn process_batch<'a>(&mut self, updates: impl IntoIterator<Item = &'a Update>) {
        let mut groups: BTreeMap<StreamId, Vec<Update>> = BTreeMap::new();
        let mut deletions = 0u64;
        for u in updates {
            self.updates += 1;
            if u.is_deletion() {
                self.deletions += 1;
                deletions += 1;
            }
            groups.entry(u.stream).or_default().push(*u);
        }
        let mut stats = IngestStats::default();
        for (stream, group) in groups {
            self.subs.dirty.insert(stream);
            stats.absorb(
                self.synopses
                    .entry(stream)
                    .or_insert_with(|| self.family.new_vector())
                    .update_batch(&group),
            );
        }
        self.metrics.record_batch(stats, deletions);
    }

    /// Add a committed change to stream `id`'s synopsis (created lazily) and
    /// mark the stream dirty for the next subscription round — the entry
    /// point for synopses maintained elsewhere. A distributed coordinator
    /// applies each committed delta frame here, and a replacing snapshot
    /// as `new − old`; cells wrap in ℤ/2⁶⁴, so the sum stays exact.
    ///
    /// # Errors
    /// [`EngineError::Estimate`] if `delta` was built with another family;
    /// the engine is then unchanged.
    pub fn apply_delta(&mut self, id: StreamId, delta: &SketchVector) -> Result<(), EngineError> {
        if delta.family() != &self.family {
            let why = format!("delta family {:?} is not {:?}", delta.family(), self.family);
            return Err(EngineError::Estimate(EstimateError::Incompatible(why)));
        }
        let synopsis = self.synopses.entry(id).or_insert_with(|| self.family.new_vector());
        synopsis.merge_from(delta)?;
        self.subs.dirty.insert(id);
        Ok(())
    }

    // -------------------------------------------------------- estimation

    /// Answer one set expression from the current synopses — the single
    /// ad-hoc estimation entry point.
    ///
    /// The expression is simplified before evaluation. Streams it
    /// references but the engine has never seen updates for are treated
    /// as empty (the shared empty synopsis stands in).
    ///
    /// Every call is instrumented: latency lands in the engine's estimate
    /// histogram, the result bumps the per-method counter, and an
    /// `engine.query` span is emitted to the installed trace sink. The
    /// returned [`Estimate`] is self-describing — estimator path
    /// ([`Estimate::method`]), witness evidence ([`Estimate::witnesses`]),
    /// atomic fraction, and confidence band ride along with the value.
    /// Expressions answered every epoch belong in [`Self::subscribe`].
    pub fn evaluate(&self, expr: &SetExpr) -> Result<Estimate, EngineError> {
        self.evaluate_traced(expr, TraceContext::default())
    }

    /// Like [`Self::evaluate`], but the `engine.query` span joins an
    /// existing trace as a child of `ctx` — e.g. a collection epoch's
    /// context (`Coordinator::stream_context` in the distributed layer),
    /// so a query answered from freshly merged state renders in the same
    /// Chrome trace as the site cut → merge → commit chain that produced
    /// it. An inactive (default) context degrades to a root span, making
    /// this exactly [`Self::evaluate`].
    pub fn evaluate_traced(
        &self,
        expr: &SetExpr,
        ctx: TraceContext,
    ) -> Result<Estimate, EngineError> {
        let empty = self.empty.get_or_init(|| self.family.new_vector());
        let mut span = self.trace.child_span("engine.query", ctx);
        let start = clock::now_ns();
        let simplified = setstream_expr::simplify(expr);
        let result = estimate_expr_over(&self.synopses, empty, &self.options, &simplified);
        let elapsed = clock::now_ns().saturating_sub(start);
        self.metrics
            .record_estimate(elapsed, result.as_ref().map(|e| e.method).map_err(|_| ()));
        if span.is_recording() {
            match &result {
                Ok(e) => span.detail(format!("{expr} -> {:.1} via {}", e.value, e.method)),
                Err(e) => span.detail(format!("{expr} -> error: {e}")),
            }
        }
        result
    }

    // ----------------------------------------------------- subscriptions

    /// Register a standing query — the engine's one registry of
    /// continuously answered expressions. The expression is simplified and
    /// filed under its class (same streams, same Venn cells over them), so
    /// subscriptions the estimator cannot tell apart share one estimate
    /// per round, re-estimated only when a stream it reads changed.
    /// Notifications arrive from [`Self::publish_epoch`] whenever the
    /// estimate breaks the subscriber's [`Tolerance`](crate::Tolerance)
    /// rule: a drift band, or a threshold alarm's trip and release.
    pub fn subscribe(
        &mut self,
        expr: SetExpr,
        options: SubscriptionOptions,
    ) -> Result<SubscriptionId, EngineError> {
        Ok(self.subs.register(setstream_expr::simplify(&expr), options))
    }

    /// Register a standing query from a
    /// `SUBSCRIBE <expr> TOLERANCE <n>[%]` statement (see
    /// [`setstream_expr::parse_subscribe`]).
    pub fn subscribe_sql(&mut self, text: &str) -> Result<SubscriptionId, EngineError> {
        let stmt = setstream_expr::parse_subscribe(text)?;
        let options = SubscriptionOptions::builder()
            .tolerance(stmt.tolerance.into())
            .build()?;
        self.subscribe(stmt.expr, options)
    }

    /// Remove a subscription. Its class, and the cached estimate with it,
    /// goes with its last subscriber.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), EngineError> {
        self.subs
            .remove(id)
            .map(|_| ())
            .ok_or(EngineError::UnknownSubscription(id))
    }

    /// Inspect a subscription.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.subs.get(&id)
    }

    /// The estimate a subscription's class holds since the last
    /// [`Self::publish_epoch`]: `None` if the subscription is gone, or
    /// its class has no estimate yet (never published, or the last
    /// estimate failed).
    pub fn subscription_estimate(&self, id: SubscriptionId) -> Option<Estimate> {
        let sub = self.subs.subs.get(&id)?;
        self.subs.classes.get(&sub.class)?.estimate
    }

    /// All registered subscriptions.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.subs.values()
    }

    /// The subscription layer's metrics. Register with a
    /// [`setstream_obs::Registry`] to expose them through the exporter.
    pub fn subscription_metrics(&self) -> &Arc<SubscriptionMetrics> {
        &self.subs.metrics
    }

    /// Expression classes backing subscriptions: each holds one cached
    /// estimate shared by every subscription filed under it.
    pub fn subscription_classes(&self) -> usize {
        self.subs.classes.len()
    }

    /// The number of epochs published so far.
    pub fn subscription_epoch(&self) -> u64 {
        self.subs.epoch
    }

    /// Close the current epoch: re-estimate the expression classes that
    /// read a stream changed since the last epoch, or that hold no
    /// estimate yet (the rest serve their cached estimate), and return a
    /// [`ChangeEvent`] for every subscription whose estimate broke its
    /// tolerance rule.
    pub fn publish_epoch(&mut self) -> Vec<ChangeEvent> {
        let trace = self.trace.clone();
        let mut span = trace.span("engine.publish_epoch");
        let start = clock::now_ns();
        let empty = self.empty.get_or_init(|| self.family.new_vector());
        let hub = &mut self.subs;
        let dirty = std::mem::take(&mut hub.dirty);
        let touched = |streams: &[StreamId]| streams.iter().any(|s| dirty.contains(s));
        let mut evaluated = 0u64;
        for class in hub.classes.values_mut() {
            if class.estimate.is_none() || touched(&class.streams) {
                // On error the class holds no estimate; its subscribers
                // are skipped this round and it is retried next epoch.
                class.estimate =
                    estimate_expr_over(&self.synopses, empty, &self.options, &class.expr).ok();
                evaluated += 1;
            }
        }
        let served = hub.classes.len() as u64 - evaluated;
        hub.epoch += 1;
        let epoch = hub.epoch;
        let mut events = Vec::new();
        for sub in hub.subs.values_mut() {
            let Some(class) = hub.classes.get(&sub.class) else {
                continue;
            };
            let Some(est) = class.estimate else {
                continue; // estimation failed; retried next epoch
            };
            let value = est.value;
            let (old, cause) = match sub.last_notified {
                None => (None, ChangeCause::Initial),
                Some(last) if sub.options.tolerance.exceeded(last, value) => {
                    let cause = if touched(&class.streams) {
                        ChangeCause::Delta
                    } else {
                        ChangeCause::Full
                    };
                    (Some(last), cause)
                }
                Some(_) => continue,
            };
            sub.last_notified = Some(value);
            if old.is_some() || sub.options.notify_initial {
                events.push(ChangeEvent {
                    sub_id: sub.id,
                    old,
                    new: value,
                    cause,
                    epoch,
                });
            }
        }
        hub.metrics.rounds.inc();
        hub.metrics.nodes_evaluated.add(evaluated);
        hub.metrics.nodes_cached.add(served);
        hub.metrics.notifications.add(events.len() as u64);
        let elapsed = clock::now_ns().saturating_sub(start);
        hub.metrics.round_ns.observe(elapsed);
        if span.is_recording() {
            span.detail(format!(
                "epoch {epoch}: {evaluated} evaluated, {served} cached, {} notified",
                events.len()
            ));
        }
        events
    }

    // ------------------------------------------------------------- stats

    /// Operational counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            updates: self.updates,
            deletions: self.deletions,
            streams: self.synopses.len(),
            subscriptions: self.subs.subs.len(),
            synopsis_bytes: self.synopses.len() * self.family.vector_bytes(),
        }
    }

    /// Direct access to a stream's synopsis (e.g. for shipping to a
    /// distributed coordinator).
    pub fn synopsis(&self, stream: StreamId) -> Option<&SketchVector> {
        self.synopses.get(&stream)
    }

    /// Streams with a live synopsis.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.synopses.keys().copied()
    }

    // --------------------------------------------- snapshot plumbing

    pub(crate) fn options_ref(&self) -> EstimatorOptions {
        self.options
    }

    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.updates, self.deletions)
    }

    pub(crate) fn install_synopsis(&mut self, stream: StreamId, vector: SketchVector) {
        self.synopses.insert(stream, vector);
    }

    pub(crate) fn install_subscription(
        &mut self,
        id: SubscriptionId,
        expr: SetExpr,
        options: SubscriptionOptions,
        last_notified: Option<f64>,
    ) {
        self.subs.install(id, expr, options, last_notified);
    }

    pub(crate) fn set_counters(&mut self, counters: (u64, u64)) {
        self.updates = counters.0;
        self.deletions = counters.1;
    }

    pub(crate) fn set_subscription_counters(&mut self, next_sub: u64, epoch: u64) {
        self.subs.next_sub = self.subs.next_sub.max(next_sub);
        self.subs.epoch = epoch;
    }

    pub(crate) fn next_sub(&self) -> u64 {
        self.subs.next_sub
    }
}
