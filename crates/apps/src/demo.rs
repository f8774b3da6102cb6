//! The shared observability demo stack behind `setstream stats`,
//! `setstream serve`, and `setstream top`.
//!
//! All three commands drive the same synthetic deployment — sites feeding
//! a coordinator over fault-injected in-memory links, the coordinator's
//! engine answering and notifying from committed state, and a
//! [`QualityMonitor`] shadow path over the generated traffic — and
//! expose its state through one [`Registry`]. Keeping the stack here
//! guarantees the one-shot `stats` dump, the `/metrics` scrape endpoint,
//! and the `top` dashboard all render from the identical sample stream,
//! so numbers can be cross-checked between them.

use setstream_core::SketchFamily;
use setstream_distributed::network::{FaultSpec, MemoryPipe};
use setstream_distributed::{Coordinator, Site, TransportMetrics, TransportOptions};
use setstream_engine::{
    ChangeEvent, ExprReport, QualityConfig, QualityMonitor, SubscriptionId, SubscriptionOptions,
    Tolerance,
};
use setstream_obs::export::{self, MetricLine};
use setstream_obs::{chrome, lineage, serve, Registry, RingRecorder, TraceHandle};
use setstream_stream::{StreamId, Update};
use std::sync::Arc;

/// Tunables for the demo deployment.
#[derive(Debug, Clone, Copy)]
pub struct DemoConfig {
    /// Remote sites feeding the coordinator.
    pub sites: usize,
    /// Synthetic updates generated per round.
    pub events_per_round: usize,
    /// Seed for the synthetic workload and the link fault injector.
    pub seed: u64,
    /// Shadow sampling rate for the quality monitor.
    pub sampling_rate: f64,
    /// Sketch copies `r` for the shared family.
    pub copies: usize,
    /// Second-level domain size `s`.
    pub second_level: u32,
    /// Run the site links under [`FaultSpec::nasty`] (drops, corruption,
    /// duplication, reordering, truncation, delays).
    pub faulty_links: bool,
    /// Span ring-buffer capacity for the Chrome trace export.
    pub trace_capacity: usize,
}

impl Default for DemoConfig {
    fn default() -> Self {
        DemoConfig {
            sites: 3,
            events_per_round: 4000,
            seed: 42,
            sampling_rate: 0.05,
            copies: 64,
            second_level: 8,
            faulty_links: true,
            trace_capacity: 4096,
        }
    }
}

/// What one [`DemoStack::step`] round produced.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    /// Zero-based round index.
    pub round: usize,
    /// Estimate of `|A ∪ B|` held by its subscription's class.
    pub union_estimate: f64,
    /// Estimate of `|A ∩ B|` held by its subscription's class.
    pub intersection_estimate: f64,
    /// Estimator path that served the intersection.
    pub intersection_method: &'static str,
    /// Quality-monitor reports for the watched expressions.
    pub reports: Vec<ExprReport>,
    /// Standing-query notifications published this round.
    pub notifications: Vec<ChangeEvent>,
}

/// The instrumented demo deployment: sites + coordinator (whose engine
/// holds the standing queries) + quality monitor, all registered in one
/// metric [`Registry`] and one span recorder.
pub struct DemoStack {
    config: DemoConfig,
    family: SketchFamily,
    monitor: Arc<QualityMonitor>,
    coordinator: Arc<Coordinator>,
    transport: Arc<TransportMetrics>,
    sites: Vec<Site>,
    pipes: Vec<MemoryPipe>,
    recorder: Arc<RingRecorder>,
    registry: Registry,
    union_sub: SubscriptionId,
    inter_sub: SubscriptionId,
    rounds_run: usize,
}

impl DemoStack {
    /// Build the stack: a traced coordinator holding three standing
    /// queries, a quality monitor watching the `A | B` and `A & B` ones,
    /// `config.sites` sites behind (optionally lossy) in-memory pipes,
    /// and a registry holding every metric source.
    pub fn new(config: DemoConfig) -> Result<Self, String> {
        let family = SketchFamily::builder()
            .copies(config.copies)
            .second_level(config.second_level)
            .seed(config.seed)
            .build();
        let recorder = Arc::new(RingRecorder::new(config.trace_capacity));
        let trace = TraceHandle::new(recorder.clone());
        // One trace handle spans the whole stack: site cuts start traces,
        // the trace context rides the frames' wire extension, and the
        // coordinator's merge/commit spans join them — `/trace` then
        // stitches each epoch across the site and coordinator tracks.
        // The coordinator's engine records its subscription-round and
        // query spans there too.
        let coordinator = Arc::new(
            Coordinator::new(family).with_trace(trace.clone(), "coordinator"),
        );
        // Standing queries on committed state: notify when an estimate
        // drifts more than 5% from the last notified value. The demo
        // round publishes one subscription epoch per step, so `/metrics`
        // shows the incremental-evaluation counters moving, and the
        // round's report and the quality monitor read the estimates the
        // `A | B` and `A & B` classes hold.
        const DEMO_TOLERANCE: Tolerance = Tolerance::Relative(0.05);
        let sub_options = SubscriptionOptions::builder()
            .tolerance(DEMO_TOLERANCE)
            .build()
            .map_err(|e| e.to_string())?;
        let subscribe = |text: &str| -> Result<SubscriptionId, String> {
            let expr: setstream_expr::SetExpr = text.parse().map_err(|e| format!("{e}"))?;
            coordinator
                .subscribe(expr, sub_options)
                .map_err(|e| e.to_string())
        };
        let union_sub = subscribe("A | B")?;
        let inter_sub = subscribe("A & B")?;
        subscribe("A - B")?;

        let monitor = Arc::new(
            QualityMonitor::new(QualityConfig {
                sampling_rate: config.sampling_rate,
                ..QualityConfig::default()
            })
            .map_err(|e| e.to_string())?,
        );
        monitor.watch("union", union_sub);
        monitor.watch("intersection", inter_sub);

        let transport = Arc::new(TransportMetrics::new());
        let sites: Vec<Site> = (0..config.sites)
            .map(|i| {
                let mut site = Site::new(i as u32, family);
                site.set_trace(trace.clone());
                site
            })
            .collect();
        let fault = if config.faulty_links {
            FaultSpec::nasty()
        } else {
            FaultSpec::reliable()
        };
        // The in-process sites speak the TCP protocol through in-memory
        // pipes into the coordinator's own frame handler, recording into
        // the same transport counters as remote sites. Attempts cost no
        // wall time, so the budget is sized for a nasty link (about one
        // attempt in eight completes an epoch; 256 never runs out).
        let opts = TransportOptions::builder()
            .max_attempts(256)
            .build()
            .map_err(|e| e.to_string())?;
        let pipes: Vec<MemoryPipe> = (0..config.sites)
            .map(|i| {
                let seed = config.seed ^ ((i as u64) << 32);
                MemoryPipe::new(Arc::clone(&coordinator), fault, seed, opts, Arc::clone(&transport))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;

        let registry = Registry::new();
        coordinator.with_engine(|engine| {
            registry.register(engine.metrics().clone());
            registry.register(engine.subscription_metrics().clone());
        });
        registry.register(monitor.clone());
        registry.register(coordinator.clone());
        registry.register(transport.clone());
        registry.register(recorder.clone());

        Ok(DemoStack {
            config,
            family,
            monitor,
            coordinator,
            transport,
            sites,
            pipes,
            recorder,
            registry,
            union_sub,
            inter_sub,
            rounds_run: 0,
        })
    }

    /// Run one round: generate a batch, show it to the shadow path, feed
    /// the sites, collect an epoch from each, then publish the
    /// coordinator's subscription round, run a quality evaluation of its
    /// classes' estimates, and refresh the stale-sites alarm from
    /// coordinator health. Every answer reads committed state, so frames
    /// from remote sites (`serve --listen`) count too.
    pub fn step(&mut self) -> Result<RoundSummary, String> {
        let round = self.rounds_run;
        let events = self.config.events_per_round;
        let mut batch = Vec::with_capacity(events);
        for i in 0..events {
            let x = (round as u64 * events as u64 + i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let stream = StreamId((x % 2) as u32);
            let element = x >> 16 & 0xFFFF;
            if i % 10 == 9 {
                batch.push(Update::delete(stream, element, 1));
            } else {
                batch.push(Update::insert(stream, element, 1));
            }
        }
        self.monitor.observe_batch(&batch);
        let n_sites = self.sites.len();
        for (i, u) in batch.iter().enumerate() {
            self.sites[i % n_sites].observe(u);
        }
        for (i, (site, pipe)) in self.sites.iter_mut().zip(&mut self.pipes).enumerate() {
            pipe.collect(site)
                .map_err(|e| format!("collection from site {i}: {e}"))?;
        }
        // Commits marked the streams the sites touched, so the round
        // re-estimates only the subscriptions over them.
        let notifications = self.coordinator.publish_epoch();
        let (reports, union, inter) = self.coordinator.with_engine(|engine| {
            (
                self.monitor.evaluate(engine),
                engine.subscription_estimate(self.union_sub),
                engine.subscription_estimate(self.inter_sub),
            )
        });
        let health = self.coordinator.health();
        self.monitor.note_collection_health(
            health.sites,
            health.quarantined,
            health.lagging,
            health.resync_pending,
        );
        let union = union.ok_or("the A | B class holds no estimate")?;
        let inter = inter.ok_or("the A & B class holds no estimate")?;
        self.rounds_run += 1;
        Ok(RoundSummary {
            round,
            union_estimate: union.value,
            intersection_estimate: inter.value,
            intersection_method: inter.method.as_str(),
            reports,
            notifications,
        })
    }

    /// Rounds completed so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// The stack-wide metric registry (register extra sources here, e.g.
    /// the HTTP server's own counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The quality monitor (alarms, reports, sample counts).
    pub fn monitor(&self) -> &Arc<QualityMonitor> {
        &self.monitor
    }

    /// The coordinator (merged state, health, queries, and the engine
    /// holding the standing queries).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// The transport counters of the in-process sites' pipes, shared with
    /// any [`setstream_distributed::transport`] servers the caller spawns
    /// on this stack, so remote-site traffic lands in the same
    /// `/metrics`.
    pub fn transport_metrics(&self) -> &Arc<TransportMetrics> {
        &self.transport
    }

    /// The sketch family the whole stack shares. Remote sites must build
    /// the identical family (same copies/second-level/seed) or the
    /// coordinator will refuse their frames as a coin mismatch.
    pub fn family(&self) -> SketchFamily {
        self.family
    }

    /// The span recorder feeding `/trace`.
    pub fn recorder(&self) -> &Arc<RingRecorder> {
        &self.recorder
    }

    /// Prometheus text exposition — the **single** render path shared by
    /// `setstream stats` and the `/metrics` endpoint.
    pub fn render_metrics(&self) -> String {
        export::render(&self.registry)
    }

    /// Chrome trace-event JSON of the recorded spans (`/trace`).
    pub fn render_trace(&self) -> String {
        chrome::render(&self.recorder)
    }

    /// Lineage document (`/lineage?stream=&epoch=`): the coordinator's
    /// retained epoch provenance as a JSON array, filtered by the raw
    /// query string (both parameters optional; unparsable values are
    /// ignored rather than erroring a dashboard).
    pub fn render_lineage(&self, query: &str) -> String {
        let stream = serve::query_param(query, "stream").and_then(|v| v.parse().ok());
        let epoch = serve::query_param(query, "epoch").and_then(|v| v.parse().ok());
        lineage::render_json(&self.coordinator.lineage().query(stream, epoch))
    }

    /// Health document (`/health`): coordinator collection health, alarm
    /// statuses, and the latest per-expression quality reports, as JSON.
    pub fn render_health(&self) -> String {
        let health = self.coordinator.health();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds_run));
        out.push_str(&format!(
            "  \"collection\": {{\"sites\": {}, \"quarantined\": {}, \"lagging\": {}, \"resync_pending\": {}}},\n",
            health.sites, health.quarantined, health.lagging, health.resync_pending
        ));
        out.push_str(&format!(
            "  \"config\": {{\"sampling_rate\": {}, \"error_budget\": {}}},\n",
            json_f64(self.monitor.config().sampling_rate),
            json_f64(self.monitor.config().error_budget)
        ));
        out.push_str("  \"alarms\": [\n");
        let alarms = self.monitor.alarms().snapshot();
        for (i, a) in alarms.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"active\": {}, \"detail\": \"{}\", \"raised_total\": {}, \"cleared_total\": {}}}{}\n",
                a.kind.name(),
                a.active,
                json_escape(&a.detail),
                a.raised_total,
                a.cleared_total,
                if i + 1 < alarms.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"watches\": [\n");
        let reports = self.monitor.last_reports();
        for (i, r) in reports.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"estimate\": {}, \"shadow_scaled\": {}, \"relative_error\": {}, \"atomic_fraction\": {}, \"witness_hits\": {}, \"witness_valid\": {}}}{}\n",
                json_escape(&r.name),
                r.estimate.map_or_else(|| "null".into(), json_f64),
                json_f64(r.shadow_scaled),
                r.relative_error.map_or_else(|| "null".into(), json_f64),
                r.atomic_fraction.map_or_else(|| "null".into(), json_f64),
                r.witness_hits,
                r.witness_valid,
                if i + 1 < reports.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl std::fmt::Debug for DemoStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemoStack")
            .field("config", &self.config)
            .field("rounds_run", &self.rounds_run)
            .finish()
    }
}

/// A finite f64 as a JSON number; NaN/∞ (never expected, but possible
/// from degenerate estimates) become `null` to keep the document valid.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Minimal JSON string escaping for alarm details and watch names.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Read quantile `q` out of the cumulative `_bucket` series of histogram
/// `name` in `lines`. Returns the upper bound of the covering bucket, or
/// `None` when no defensible answer exists: histogram absent, empty
/// (zero total), a non-finite `q`, or a scrape poisoned with NaN counts
/// (`setstream top` renders those as `-` instead of a bogus `+Inf`).
pub fn histogram_quantile(lines: &[MetricLine], name: &str, q: f64) -> Option<f64> {
    if !q.is_finite() {
        return None;
    }
    let bucket_name = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = lines
        .iter()
        .filter(|l| l.name == bucket_name)
        .filter_map(|l| {
            let le = l.label("le")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, l.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total = buckets.last()?.1;
    // `total <= 0.0` alone misses NaN (fails every comparison), which
    // previously fell through to a bogus `+Inf` answer on saturated or
    // garbage scrapes.
    if !total.is_finite() || total <= 0.0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total).max(1.0);
    for (bound, cumulative) in &buckets {
        if cumulative.is_nan() {
            continue;
        }
        if *cumulative >= rank {
            return Some(*bound);
        }
    }
    Some(f64::INFINITY)
}

/// Sum every sample of `name` across label sets (e.g. all `method`
/// variants of a counter family).
pub fn sum_values(lines: &[MetricLine], name: &str) -> f64 {
    lines.iter().filter(|l| l.name == name).map(|l| l.value).sum()
}

/// First sample of `name` whose labels contain `(key, value)`.
pub fn labeled_value(
    lines: &[MetricLine],
    name: &str,
    key: &str,
    value: &str,
) -> Option<f64> {
    lines
        .iter()
        .find(|l| l.name == name && l.label(key) == Some(value))
        .map(|l| l.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_stack_steps_and_renders_consistently() {
        let mut stack = DemoStack::new(DemoConfig {
            sites: 2,
            events_per_round: 600,
            faulty_links: false,
            ..DemoConfig::default()
        })
        .expect("stack builds");
        let summary = stack.step().expect("round runs");
        assert_eq!(summary.round, 0);
        assert!(summary.union_estimate >= 0.0);
        assert_eq!(summary.reports.len(), 2);

        // First epoch: every subscription notifies its initial value.
        assert_eq!(summary.notifications.len(), 3);
        assert!(summary
            .notifications
            .iter()
            .all(|n| n.cause == setstream_engine::ChangeCause::Initial));

        let metrics = stack.render_metrics();
        assert!(metrics.contains("setstream_quality_updates_seen_total 600"));
        assert!(metrics.contains("setstream_quality_eval_rounds_total 1"));
        assert!(metrics.contains("setstream_alarm_active"));
        assert!(metrics.contains("setstream_engine_subs_registered 3"));
        assert!(metrics.contains("setstream_engine_subs_rounds_total 1"));
        // The one render path is also a valid exposition.
        export::parse_exposition(&metrics).expect("exposition parses");

        let health = stack.render_health();
        assert!(health.contains("\"rounds\": 1"));
        assert!(health.contains("\"sites\": 2"));
        assert!(health.contains("\"name\": \"union\""));

        let trace = stack.render_trace();
        assert!(trace.contains("\"traceEvents\""));
        // A round estimates through the subscription round, not an
        // ad-hoc query.
        assert!(trace.contains("engine.publish_epoch"));
        // The collection loop is traced end to end: site cuts and the
        // coordinator's merge/commit spans land in the same export.
        assert!(trace.contains("site.cut_epoch"));
        assert!(trace.contains("collect.merge"));
        assert!(trace.contains("collect.commit"));

        // And the coordinator's lineage ring knows who contributed (the
        // demo workload routes stream 0 through site 0 and stream 1
        // through site 1).
        let lineage = stack.render_lineage("");
        assert!(lineage.contains("\"sites\":[0]"), "{lineage}");
        assert!(lineage.contains("\"sites\":[1]"), "{lineage}");
        assert!(lineage.contains("\"committed\":true"), "{lineage}");
        let filtered = stack.render_lineage("stream=0&epoch=1");
        assert!(filtered.contains("\"stream\":0"));
        assert!(!filtered.contains("\"stream\":1"));
    }

    /// The samples of an exposition body, through the strict parser.
    fn samples(text: &str) -> Vec<MetricLine> {
        export::parse_exposition(text)
            .expect("exposition parses")
            .samples
    }

    #[test]
    fn sample_lookups_sum_and_match_labels() {
        let lines = samples(
            "# TYPE x_total counter\nx_total{site=\"0\"} 40\nx_total{site=\"1\"} 1\n\
             # TYPE y gauge\ny{method=\"a b\",le=\"+Inf\"} 2.5\n",
        );
        assert_eq!(sum_values(&lines, "x_total"), 41.0);
        assert_eq!(labeled_value(&lines, "y", "method", "a b"), Some(2.5));
        assert_eq!(labeled_value(&lines, "y", "method", "c"), None);
    }

    #[test]
    fn histogram_quantiles_read_cumulative_buckets() {
        let text = "\
# TYPE h histogram\n\
h_bucket{le=\"10\"} 5\n\
h_bucket{le=\"100\"} 9\n\
h_bucket{le=\"+Inf\"} 10\n\
h_sum 420\n\
h_count 10\n";
        let lines = samples(text);
        assert_eq!(histogram_quantile(&lines, "h", 0.5), Some(10.0));
        assert_eq!(histogram_quantile(&lines, "h", 0.9), Some(100.0));
        assert_eq!(histogram_quantile(&lines, "h", 1.0), Some(f64::INFINITY));
        assert_eq!(histogram_quantile(&lines, "missing", 0.5), None);
    }

    #[test]
    fn histogram_quantiles_survive_empty_and_poisoned_scrapes() {
        // Empty histogram (all-zero buckets): no quantile, not +Inf.
        let empty = samples(
            "# TYPE h histogram\nh_bucket{le=\"10\"} 0\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n",
        );
        assert_eq!(histogram_quantile(&empty, "h", 0.5), None);

        // NaN total (saturated/garbage scrape): previously fell through
        // every comparison and answered +Inf; now refuses.
        let poisoned =
            samples("# TYPE h histogram\nh_bucket{le=\"10\"} NaN\nh_bucket{le=\"+Inf\"} NaN\n");
        assert_eq!(histogram_quantile(&poisoned, "h", 0.5), None);

        // A NaN mid-bucket is skipped, not treated as covering.
        let partial = samples(
            "# TYPE h histogram\n\
             h_bucket{le=\"10\"} NaN\nh_bucket{le=\"100\"} 4\nh_bucket{le=\"+Inf\"} 4\n",
        );
        assert_eq!(histogram_quantile(&partial, "h", 0.5), Some(100.0));

        // Non-finite q is a caller bug, answered with None not a panic.
        let lines = samples("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\n");
        assert_eq!(histogram_quantile(&lines, "h", f64::NAN), None);
        assert_eq!(histogram_quantile(&lines, "h", f64::INFINITY), None);
    }
}
