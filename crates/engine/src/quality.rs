//! The quality plane: online accuracy telemetry for the estimator path.
//!
//! The sketches' whole value proposition is probabilistic — §4–§5 prove
//! estimates are only trustworthy while enough atomic buckets survive —
//! yet throughput metrics say nothing about whether the deployed family
//! actually delivers its (ε, δ) contract on the live workload. The
//! [`QualityMonitor`] closes that gap by keeping a *shadow exact path*
//! over a hash-sampled fraction of the stream and continuously comparing
//! it against the sketch answers:
//!
//! * **Sampling is by element, not by update.** An element is shadowed
//!   iff `splitmix64(element ^ seed) < p·2⁶⁴`, so every insert *and
//!   delete* of a shadowed element lands in the shadow multiset and its
//!   net frequencies stay exact — per-update coin flips would corrupt
//!   deletions. At rate 1.0 the shadow is bit-equal to the full exact
//!   evaluation; at rate `p` the scaled estimate `exact/p` has binomial
//!   error `≈ √(n(1−p)/p)` over `n` true distinct elements.
//! * **Watched subscriptions** are compared against the shadow each
//!   [`QualityMonitor::evaluate`] round. The sketch side is the estimate
//!   the subscription's expression class holds since the engine's last
//!   [`StreamEngine::publish_epoch`], so the monitor estimates nothing
//!   itself. Relative error lands in a rolling histogram,
//!   per-expression atomic-fraction and witness-count gauges update, and
//!   the typed alarms
//!   ([`AlarmKind::LowAtomicFraction`], [`AlarmKind::ErrorBudgetExceeded`],
//!   [`AlarmKind::ShadowDivergence`]) raise/clear edge-triggered.
//! * **[`AlarmKind::StaleSites`]** is fed from coordinator health via
//!   [`QualityMonitor::note_collection_health`] (plain counts — the
//!   engine layer cannot depend on `setstream-distributed`).
//!
//! The monitor is interior-mutable: share one `Arc<QualityMonitor>`
//! between the ingest loop (`observe_batch`), the evaluation timer
//! (`evaluate`), and an obs [`Registry`](setstream_obs::Registry) (it
//! implements [`MetricSource`]). The ingest-side cost is one `splitmix64`
//! per update plus a per-batch lock — the bench `BENCH_obs.json` records
//! it staying under the 5% budget at 1% sampling.

use crate::engine::{EngineError, StreamEngine};
use crate::subscribe::{Subscription, SubscriptionId};
use setstream_expr::eval::exact_cardinality;
use setstream_expr::SetExpr;
use setstream_hash::mix::splitmix64;
use setstream_obs::{AlarmKind, AlarmSet, Counter, Histogram, MetricSource, Sample};
use setstream_stream::{StreamSet, Update};
use std::sync::{Arc, Mutex};

/// Quality-plane configuration.
#[derive(Debug, Clone, Copy)]
pub struct QualityConfig {
    /// Fraction of the element universe shadowed exactly (`0.0..=1.0`).
    pub sampling_rate: f64,
    /// Seed for the sampling hash (decorrelates it from the sketch hashes).
    pub seed: u64,
    /// Floor for the witness-survival fraction; estimates below it raise
    /// [`AlarmKind::LowAtomicFraction`].
    pub min_atomic_fraction: f64,
    /// The ε budget: relative error beyond it raises
    /// [`AlarmKind::ErrorBudgetExceeded`].
    pub error_budget: f64,
    /// Multiple of `error_budget` beyond which the discrepancy is treated
    /// as [`AlarmKind::ShadowDivergence`] (a correctness signal, not an
    /// accuracy one).
    pub divergence_factor: f64,
    /// Shadow distinct-count floor below which error alarms are
    /// suppressed (the scaled shadow itself is too noisy to judge).
    pub min_shadow_support: usize,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            sampling_rate: 0.01,
            seed: 0x5e7_5712ea,
            min_atomic_fraction: 0.02,
            error_budget: 0.15,
            divergence_factor: 5.0,
            min_shadow_support: 16,
        }
    }
}

/// Why a [`QualityMonitor`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum QualityError {
    /// `sampling_rate` outside `0.0..=1.0` (or not finite).
    BadSamplingRate(f64),
    /// A threshold parameter was not finite and positive.
    BadThreshold {
        /// Which config field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for QualityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QualityError::BadSamplingRate(r) => {
                write!(f, "sampling rate {r} outside 0.0..=1.0")
            }
            QualityError::BadThreshold { field, value } => {
                write!(f, "{field} must be finite and positive, got {value}")
            }
        }
    }
}

impl std::error::Error for QualityError {}

/// One watched expression's outcome from an evaluation round.
#[derive(Debug, Clone)]
pub struct ExprReport {
    /// Operator-facing name (metric label value).
    pub name: String,
    /// Sketch-path estimate, if estimation succeeded.
    pub estimate: Option<f64>,
    /// Raw shadow distinct count (unscaled).
    pub shadow_raw: usize,
    /// Shadow count scaled by `1/p` — the ground-truth proxy.
    pub shadow_scaled: f64,
    /// `|estimate − shadow_scaled| / max(shadow_scaled, 1)`, when both
    /// sides are available.
    pub relative_error: Option<f64>,
    /// Witness-survival fraction reported by the estimator.
    pub atomic_fraction: Option<f64>,
    /// Atomic buckets that were valid observations for the expression.
    pub witness_valid: u64,
    /// Of which witnesses for the expression.
    pub witness_hits: u64,
}

struct Watch {
    name: String,
    sub: SubscriptionId,
}

struct ShadowState {
    shadow: StreamSet,
    watches: Vec<Watch>,
    last_reports: Vec<ExprReport>,
}

/// Always-on counters for the monitor itself.
#[derive(Debug, Default)]
struct QualityCounters {
    updates_seen: Counter,
    updates_sampled: Counter,
    eval_rounds: Counter,
    eval_errors: Counter,
}

/// The quality monitor: shadow exact path, watched expressions, alarms.
///
/// See the [module docs](self) for the design; construction validates the
/// configuration, [`QualityMonitor::observe_batch`] feeds it from the
/// ingest path, [`QualityMonitor::evaluate`] runs a comparison round.
pub struct QualityMonitor {
    config: QualityConfig,
    /// `sampling_rate · 2⁶⁴`, the inclusion threshold for element hashes.
    threshold: u64,
    alarms: Arc<AlarmSet>,
    counters: QualityCounters,
    /// Relative error per evaluated expression, in parts-per-million.
    error_ppm: Histogram,
    state: Mutex<ShadowState>,
}

impl QualityMonitor {
    /// A monitor with the given configuration.
    ///
    /// # Errors
    /// [`QualityError::BadSamplingRate`] / [`QualityError::BadThreshold`]
    /// on invalid configuration.
    pub fn new(config: QualityConfig) -> Result<Self, QualityError> {
        if !config.sampling_rate.is_finite()
            || !(0.0..=1.0).contains(&config.sampling_rate)
        {
            return Err(QualityError::BadSamplingRate(config.sampling_rate));
        }
        for (field, value) in [
            ("min_atomic_fraction", config.min_atomic_fraction),
            ("error_budget", config.error_budget),
            ("divergence_factor", config.divergence_factor),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(QualityError::BadThreshold { field, value });
            }
        }
        // p·2⁶⁴, saturating: f64 cannot hold 2⁶⁴−1 exactly, and the cast
        // saturates, so rate 1.0 maps to u64::MAX and `hash <= threshold`
        // admits every element.
        let threshold = (config.sampling_rate * u64::MAX as f64) as u64;
        Ok(QualityMonitor {
            config,
            threshold,
            alarms: Arc::new(AlarmSet::new()),
            counters: QualityCounters::default(),
            error_ppm: Histogram::new(&[
                1_000,      // 0.1%
                10_000,     // 1%
                50_000,     // 5%
                100_000,    // 10%
                250_000,    // 25%
                500_000,    // 50%
                1_000_000,  // 100%
                10_000_000, // 10x
            ]),
            state: Mutex::new(ShadowState {
                shadow: StreamSet::new(),
                watches: Vec::new(),
                last_reports: Vec::new(),
            }),
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &QualityConfig {
        &self.config
    }

    /// The typed alarm set (share with `/health` and the registry).
    pub fn alarms(&self) -> &Arc<AlarmSet> {
        &self.alarms
    }

    /// Whether `element` falls in the shadowed sample.
    #[inline]
    fn sampled(&self, element: u64) -> bool {
        splitmix64(element ^ self.config.seed) <= self.threshold
    }

    /// Watch an engine subscription under an operator-facing `name`:
    /// each [`Self::evaluate`] round judges the estimate its expression
    /// class holds against the shadow count of its expression.
    pub fn watch(&self, name: &str, sub: SubscriptionId) {
        self.lock_state().watches.push(Watch {
            name: name.to_string(),
            sub,
        });
    }

    /// Feed one ingest batch through the sampler into the shadow multiset.
    ///
    /// Deletions driving a shadowed element's net frequency negative are
    /// skipped (the live path tolerates them too); the shadow stays a
    /// well-formed multiset either way.
    pub fn observe_batch(&self, updates: &[Update]) {
        self.counters.updates_seen.add(updates.len() as u64);
        if updates.is_empty() {
            return;
        }
        let mut sampled: u64 = 0;
        let mut state = self.lock_state();
        for u in updates {
            if self.sampled(u.element) {
                sampled += 1;
                let _ = state.shadow.apply(u);
            }
        }
        drop(state);
        self.counters.updates_sampled.add(sampled);
    }

    /// Feed a single update (convenience over [`Self::observe_batch`]).
    pub fn observe(&self, update: &Update) {
        self.observe_batch(std::slice::from_ref(update));
    }

    /// Raw shadow distinct count for an expression (unscaled). At
    /// sampling rate 1.0 this is bit-equal to the full exact evaluation.
    pub fn shadow_cardinality(&self, expr: &SetExpr) -> usize {
        exact_cardinality(expr, &self.lock_state().shadow)
    }

    /// Compare every watched subscription's estimate, as its class holds
    /// it since `engine`'s last [`StreamEngine::publish_epoch`], with the
    /// shadow exact path; updates histograms, gauges, and alarms, and
    /// returns the per-expression reports. A watch whose class holds no
    /// estimate, or whose subscription is gone, counts as a failed
    /// estimate.
    pub fn evaluate(&self, engine: &StreamEngine) -> Vec<ExprReport> {
        self.counters.eval_rounds.inc();
        let p = self.config.sampling_rate;
        let mut state = self.lock_state();
        let mut reports = Vec::with_capacity(state.watches.len());
        let mut worst_error: Option<(f64, &str)> = None;
        let mut worst_fraction: Option<(f64, &str)> = None;
        let mut estimator_failed: Option<String> = None;
        for w in &state.watches {
            let expr = engine.subscription(w.sub).map(Subscription::expr);
            let shadow_raw = expr.map_or(0, |e| exact_cardinality(e, &state.shadow));
            let shadow_scaled = if p > 0.0 { shadow_raw as f64 / p } else { 0.0 };
            let mut report = ExprReport {
                name: w.name.clone(),
                estimate: None,
                shadow_raw,
                shadow_scaled,
                relative_error: None,
                atomic_fraction: None,
                witness_valid: 0,
                witness_hits: 0,
            };
            match engine.subscription_estimate(w.sub) {
                Some(est) => {
                    let witnesses = est.witnesses();
                    report.estimate = Some(est.value);
                    report.atomic_fraction = est.atomic_fraction();
                    report.witness_valid = witnesses.valid as u64;
                    report.witness_hits = witnesses.hits as u64;
                    if shadow_raw >= self.config.min_shadow_support && p > 0.0 {
                        let err = (est.value - shadow_scaled).abs()
                            / shadow_scaled.max(1.0);
                        report.relative_error = Some(err);
                        self.error_ppm.observe((err * 1e6) as u64);
                        if worst_error.map_or(true, |(e, _)| err > e) {
                            worst_error = Some((err, &w.name));
                        }
                    }
                    if let Some(af) = report.atomic_fraction {
                        if worst_fraction.map_or(true, |(x, _)| af < x) {
                            worst_fraction = Some((af, &w.name));
                        }
                    }
                }
                None => {
                    self.counters.eval_errors.inc();
                    if estimator_failed.is_none() {
                        let why = match expr {
                            Some(_) => "its expression class holds no estimate".to_string(),
                            None => EngineError::UnknownSubscription(w.sub).to_string(),
                        };
                        estimator_failed = Some(format!("{}: {why}", w.name));
                    }
                }
            }
            reports.push(report);
        }
        // Alarm levels are reported every round (level-in, edge-out).
        let budget = self.config.error_budget;
        match worst_error {
            Some((err, name)) => {
                self.alarms.set(
                    AlarmKind::ErrorBudgetExceeded,
                    err > budget,
                    &format!("{name}: observed error {err:.3} vs budget {budget:.3}"),
                );
                self.alarms.set(
                    AlarmKind::ShadowDivergence,
                    err > budget * self.config.divergence_factor,
                    &format!(
                        "{name}: error {err:.3} is {:.1}x the {budget:.3} budget",
                        err / budget
                    ),
                );
            }
            None => {
                self.alarms.set(AlarmKind::ErrorBudgetExceeded, false, "");
                self.alarms.set(AlarmKind::ShadowDivergence, false, "");
            }
        }
        let floor = self.config.min_atomic_fraction;
        match (worst_fraction, estimator_failed) {
            (_, Some(detail)) => {
                // An estimator that cannot answer at all is the terminal
                // form of witness starvation.
                self.alarms
                    .set(AlarmKind::LowAtomicFraction, true, &detail);
            }
            (Some((af, name)), None) => {
                self.alarms.set(
                    AlarmKind::LowAtomicFraction,
                    af < floor,
                    &format!("{name}: atomic fraction {af:.4} below floor {floor:.4}"),
                );
            }
            (None, None) => {
                self.alarms.set(AlarmKind::LowAtomicFraction, false, "");
            }
        }
        state.last_reports = reports.clone();
        reports
    }

    /// Feed coordinator collection health (plain counts, so the engine
    /// layer stays independent of `setstream-distributed`): any
    /// quarantined, lagging, or resync-pending site raises
    /// [`AlarmKind::StaleSites`].
    pub fn note_collection_health(
        &self,
        sites: usize,
        quarantined: usize,
        lagging: usize,
        resync_pending: usize,
    ) {
        let stale = quarantined + lagging + resync_pending;
        self.alarms.set(
            AlarmKind::StaleSites,
            stale > 0,
            &format!(
                "{stale}/{sites} sites stale \
                 (quarantined {quarantined}, lagging {lagging}, resync {resync_pending})"
            ),
        );
    }

    /// Reports from the most recent [`Self::evaluate`] round.
    pub fn last_reports(&self) -> Vec<ExprReport> {
        self.lock_state().last_reports.clone()
    }

    /// Updates inspected / updates shadowed so far.
    pub fn sample_counts(&self) -> (u64, u64) {
        (
            self.counters.updates_seen.get(),
            self.counters.updates_sampled.get(),
        )
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ShadowState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl std::fmt::Debug for QualityMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QualityMonitor")
            .field("sampling_rate", &self.config.sampling_rate)
            .field("watches", &self.lock_state().watches.len())
            .field("active_alarms", &self.alarms.active_count())
            .finish()
    }
}

impl MetricSource for QualityMonitor {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(
            Sample::counter(
                "setstream_quality_updates_seen_total",
                self.counters.updates_seen.get(),
            )
            .with_help("Updates inspected by the quality sampler"),
        );
        out.push(
            Sample::counter(
                "setstream_quality_updates_sampled_total",
                self.counters.updates_sampled.get(),
            )
            .with_help("Updates admitted into the shadow exact multiset"),
        );
        out.push(
            Sample::counter(
                "setstream_quality_eval_rounds_total",
                self.counters.eval_rounds.get(),
            )
            .with_help("Quality evaluation rounds run"),
        );
        out.push(
            Sample::counter(
                "setstream_quality_eval_errors_total",
                self.counters.eval_errors.get(),
            )
            .with_help("Watched-expression estimates that failed outright"),
        );
        out.push(
            Sample::gauge(
                "setstream_quality_sampling_rate_ppm",
                (self.config.sampling_rate * 1e6) as i64,
            )
            .with_help("Configured shadow sampling rate, parts-per-million"),
        );
        out.push(
            Sample::gauge(
                "setstream_quality_error_budget_ppm",
                (self.config.error_budget * 1e6) as i64,
            )
            .with_help("Configured relative-error budget, parts-per-million"),
        );
        out.push(
            Sample::histogram("setstream_quality_relative_error_ppm", self.error_ppm.snapshot())
                .with_help("Observed relative error vs shadow truth, parts-per-million"),
        );
        let state = self.lock_state();
        out.push(
            Sample::gauge(
                "setstream_quality_shadow_streams",
                state.shadow.len() as i64,
            )
            .with_help("Streams present in the shadow multiset"),
        );
        for r in &state.last_reports {
            if let Some(err) = r.relative_error {
                out.push(
                    Sample::gauge(
                        "setstream_quality_expr_error_ppm",
                        (err * 1e6) as i64,
                    )
                    .with_label("expr", &r.name)
                    .with_help("Latest relative error per watched expression, ppm"),
                );
            }
            if let Some(af) = r.atomic_fraction {
                out.push(
                    Sample::gauge(
                        "setstream_quality_expr_atomic_fraction_ppm",
                        (af * 1e6) as i64,
                    )
                    .with_label("expr", &r.name)
                    .with_help("Latest witness-survival fraction per expression, ppm"),
                );
            }
            out.push(
                Sample::gauge(
                    "setstream_quality_expr_witnesses",
                    r.witness_hits as i64,
                )
                .with_label("expr", &r.name)
                .with_label("class", "hits")
                .with_help("Latest witness evidence per expression"),
            );
            out.push(
                Sample::gauge("setstream_quality_expr_witnesses", r.witness_valid as i64)
                    .with_label("expr", &r.name)
                    .with_label("class", "valid"),
            );
        }
        self.alarms.collect(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setstream_core::SketchFamily;
    use setstream_stream::StreamId;

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(128)
            .second_level(16)
            .seed(7)
            .build()
    }

    #[test]
    fn config_validation_rejects_bad_rates_and_thresholds() {
        let bad_rate = QualityConfig {
            sampling_rate: 1.5,
            ..QualityConfig::default()
        };
        assert!(matches!(
            QualityMonitor::new(bad_rate),
            Err(QualityError::BadSamplingRate(_))
        ));
        let bad_budget = QualityConfig {
            error_budget: 0.0,
            ..QualityConfig::default()
        };
        let err = QualityMonitor::new(bad_budget).expect_err("must reject");
        assert!(err.to_string().contains("error_budget"));
    }

    #[test]
    fn full_rate_shadow_matches_exact_counts() {
        let config = QualityConfig {
            sampling_rate: 1.0,
            ..QualityConfig::default()
        };
        let monitor = QualityMonitor::new(config).expect("valid config");
        let updates: Vec<Update> = (0..500u64)
            .map(|e| Update::insert(StreamId(0), e, 1))
            .chain((0..100u64).map(|e| Update::delete(StreamId(0), e, 1)))
            .collect();
        monitor.observe_batch(&updates);
        let expr: SetExpr = "A".parse().expect("parse");
        assert_eq!(monitor.shadow_cardinality(&expr), 400);
        let (seen, sampled) = monitor.sample_counts();
        assert_eq!(seen, 600);
        assert_eq!(sampled, 600);
    }

    #[test]
    fn sampling_is_consistent_for_deletes() {
        let config = QualityConfig {
            sampling_rate: 0.2,
            ..QualityConfig::default()
        };
        let monitor = QualityMonitor::new(config).expect("valid config");
        let inserts: Vec<Update> = (0..2000u64)
            .map(|e| Update::insert(StreamId(0), e, 1))
            .collect();
        let deletes: Vec<Update> = (0..2000u64)
            .map(|e| Update::delete(StreamId(0), e, 1))
            .collect();
        monitor.observe_batch(&inserts);
        monitor.observe_batch(&deletes);
        // Every shadowed insert had its delete shadowed too.
        let expr: SetExpr = "A".parse().expect("parse");
        assert_eq!(monitor.shadow_cardinality(&expr), 0);
        let (seen, sampled) = monitor.sample_counts();
        assert_eq!(seen, 4000);
        assert_eq!(sampled % 2, 0, "insert/delete pairs sample together");
        assert!(sampled > 0, "a 20% sample of 2000 elements is never empty");
    }

    #[test]
    fn evaluate_reports_small_error_on_healthy_config() {
        let monitor = QualityMonitor::new(QualityConfig {
            sampling_rate: 1.0,
            ..QualityConfig::default()
        })
        .expect("valid config");
        let mut engine = StreamEngine::new(family());
        let expr: SetExpr = "A & B".parse().expect("parse");
        let main = engine
            .subscribe(expr, crate::SubscriptionOptions::default())
            .expect("subscribe");
        monitor.watch("main", main);
        let mut updates = Vec::new();
        for e in 0..3000u64 {
            updates.push(Update::insert(StreamId(0), e, 1));
            updates.push(Update::insert(StreamId(1), e + 1500, 1));
        }
        engine.process_batch(&updates);
        engine.publish_epoch();
        monitor.observe_batch(&updates);
        let reports = monitor.evaluate(&engine);
        let r = reports.first().expect("one watch");
        assert_eq!(r.shadow_raw, 1500);
        let err = r.relative_error.expect("both paths answered");
        assert!(err < 0.5, "healthy config should be near truth, err={err}");
        assert!(!monitor.alarms().is_active(AlarmKind::ShadowDivergence));
    }

    #[test]
    fn stale_sites_alarm_tracks_collection_health() {
        let monitor = QualityMonitor::new(QualityConfig::default()).expect("valid");
        monitor.note_collection_health(4, 1, 0, 0);
        assert!(monitor.alarms().is_active(AlarmKind::StaleSites));
        monitor.note_collection_health(4, 0, 0, 0);
        assert!(!monitor.alarms().is_active(AlarmKind::StaleSites));
    }
}
