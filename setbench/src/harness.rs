//! Timing, tracing and checking shared by every workload.
//!
//! Busy time is the sum of the timed calls into the system; input
//! generation, bookkeeping and output checks run between the timers. A
//! traced run records one span per timed call through a
//! `setstream_obs::TraceHandle` backed by an in-memory `RingRecorder`, but
//! only on every other unit: the untraced units give the baseline that
//! `run.trace_overhead` divides by.

use crate::stats::{median, percentile, sorted};
use setstream_obs::{RingRecorder, TraceEvent, TraceHandle, TraceSink};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    /// Wall-clock seconds the measured loop runs (at least a workload's
    /// minimum unit count is always run).
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for tests; runs only the minimum unit count.
    pub smoke: bool,
    /// Feed the collect workload's reference one extra update, so its
    /// checks must fail (tests that the checks can fail).
    pub sabotage: bool,
}

/// Times the system is built; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// The layers the benchmark times, by span name.
pub const LAYERS: [&str; 8] = [
    "engine.ingest",
    "engine.evaluate",
    "engine.publish",
    "site.observe",
    "site.cut",
    "transport.ship",
    "relay.flush",
    "coordinator.query",
];

/// Layers whose work is counted in updates: they report `ns_per_update`
/// where the others report `us_per_call`.
const PER_UPDATE_LAYERS: [&str; 2] = ["engine.ingest", "site.observe"];

/// Per-layer metrics derived from the public counters, with units. A
/// workload reports the ones its layers have; the rest read 0.
pub const COUNTERS: [(&str, &str); 17] = [
    ("engine.ingest.fastpath_ratio", "ratio"),
    ("engine.publish.nodes_per_round", "count"),
    ("engine.publish.cache_hit_ratio", "ratio"),
    ("engine.publish.events_per_round", "count"),
    ("site.cut.frame_bytes_per_cut", "bytes"),
    ("site.cut.checkpoint_bytes_per_cut", "bytes"),
    ("transport.ship.bytes_per_update", "bytes"),
    ("transport.ship.frames_per_epoch", "count"),
    ("transport.ship.retransmit_ratio", "ratio"),
    ("transport.ship.backpressure_stalls", "count"),
    ("transport.ship.timeouts", "count"),
    ("relay.flush.bytes_per_update", "bytes"),
    ("relay.flush.merges_per_epoch", "count"),
    ("coordinator.rejections", "count"),
    ("coordinator.resyncs", "count"),
    ("wire_bytes_per_update", "bytes"),
    ("run.trace_overhead", "ratio"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a finished run hands to the printer.
#[derive(Debug)]
pub struct Report {
    /// The metrics the run reports on its last line: end-to-end when
    /// untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Further metrics kept only in the result file.
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub units: u64,
    pub latency_samples: usize,
    pub error_samples: usize,
    /// Percentiles the sample was too small to support.
    pub unsupported: Vec<String>,
    pub spans: Vec<TraceEvent>,
}

/// Accumulates one run's measurements.
pub struct Meter {
    recorder: Option<Arc<RingRecorder>>,
    recording: TraceHandle,
    noop: TraceHandle,
    /// Whether the current unit records spans.
    traced: bool,
    unit_busy: Duration,
    /// Busy time and units, indexed by `traced as usize`.
    busy: [Duration; 2],
    units: [u64; 2],
    /// Updates handed to each per-update layer during traced units.
    updates: BTreeMap<&'static str, u64>,
    latencies_ms: Vec<f64>,
    latency_from: Option<Instant>,
    ops: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<f64>,
}

impl Meter {
    /// A meter; with `trace`, every other unit records spans.
    pub fn new(trace: bool) -> Self {
        let recorder = trace.then(|| Arc::new(RingRecorder::new(1 << 22)));
        let recording = recorder.as_ref().map_or_else(TraceHandle::noop, |r| {
            TraceHandle::new(Arc::clone(r) as Arc<dyn TraceSink>)
        });
        Meter {
            recorder,
            recording,
            noop: TraceHandle::noop(),
            traced: trace,
            unit_busy: Duration::ZERO,
            busy: [Duration::ZERO; 2],
            units: [0; 2],
            updates: BTreeMap::new(),
            latencies_ms: Vec::new(),
            latency_from: None,
            ops: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Time one call into `layer`, which is handed `updates` updates.
    pub fn time<T>(&mut self, layer: &'static str, updates: usize, call: impl FnOnce() -> T) -> T {
        let handle = if self.traced {
            &self.recording
        } else {
            &self.noop
        };
        let start = Instant::now();
        let out = {
            let _span = handle.span(layer);
            call()
        };
        self.unit_busy += start.elapsed();
        if self.traced {
            *self.updates.entry(layer).or_default() += updates as u64;
        }
        out
    }

    /// The last input of a result is handed to the system now.
    pub fn latency_start(&mut self) {
        self.latency_from = Some(Instant::now());
    }

    /// The result is back: record the latency since [`Self::latency_start`].
    pub fn latency_end(&mut self) {
        if let Some(from) = self.latency_from.take() {
            self.latencies_ms.push(from.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Count one attempted operation or check.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record `|estimate − exact| / union` for one checked estimate.
    pub fn error_sample(&mut self, estimate: f64, exact: usize, union: usize) {
        self.attempt(estimate.is_finite());
        if union > 0 && estimate.is_finite() {
            self.errors
                .push((estimate - exact as f64).abs() / union as f64);
        }
    }

    /// Close a unit that completed `ops` operations.
    pub fn end_unit(&mut self, ops: u64) {
        let slot = usize::from(self.traced);
        self.busy[slot] += self.unit_busy;
        self.units[slot] += 1;
        self.ops += ops;
        self.unit_busy = Duration::ZERO;
        if self.recorder.is_some() {
            self.traced = !self.traced;
        }
    }

    /// Run `unit` for unit indices 0, 1, … until both `min_units` units
    /// ran and `cfg.seconds` of wall-clock time passed (a smoke run stops
    /// at `min_units`). Returns the unit count.
    pub fn drive(
        &mut self,
        cfg: &Config,
        min_units: u64,
        mut unit: impl FnMut(u64, &mut Meter) -> Result<(), String>,
    ) -> Result<u64, String> {
        let seconds = if cfg.smoke { 0.0 } else { cfg.seconds };
        let start = Instant::now();
        let mut i = 0;
        while i < min_units || start.elapsed().as_secs_f64() < seconds {
            unit(i, self)?;
            i += 1;
        }
        Ok(i)
    }

    /// Assemble the report. `setup_s` is the median build time and
    /// `counters` the workload's counter-derived per-layer metrics.
    pub fn finish(self, setup_s: f64, counters: Vec<Metric>) -> Report {
        let latencies = sorted(&self.latencies_ms);
        let mut unsupported = Vec::new();
        let mut latency = |p: f64, name: &str| match percentile(&latencies, p) {
            Some((value, supported)) => {
                if !supported {
                    unsupported.push(name.to_string());
                }
                value
            }
            None => {
                unsupported.push(name.to_string());
                0.0
            }
        };
        let p50 = latency(0.5, "latency_p50_ms");
        let p90 = latency(0.9, "latency_p90_ms");
        let p99 = latency(0.99, "latency_p99_ms");
        let busy = (self.busy[0] + self.busy[1]).as_secs_f64();
        let ops_per_s = self.ops as f64 / busy.max(f64::MIN_POSITIVE);
        // The tails go to the result file only, and only where the sample
        // supports them: between the quartiles of ten seeds `latency_p90_ms`
        // spread up to 19% on `query_mix`, too close to the largest bound
        // to gate.
        let mut extra = Vec::new();
        for (name, value) in [("latency_p90_ms", p90), ("latency_p99_ms", p99)] {
            if !unsupported.iter().any(|n| n == name) {
                extra.push(Metric::new(name, value, "ms"));
            }
        }
        let error_mean = if self.errors.is_empty() {
            0.0
        } else {
            self.errors.iter().sum::<f64>() / self.errors.len() as f64
        };
        let attempted = self.attempted.max(1);
        let failed_frac = self.failed as f64 / attempted as f64;

        extra.push(Metric::new("failed_frac", failed_frac, "ratio"));
        let mut spans = Vec::new();
        let metrics = match &self.recorder {
            None => {
                extra.extend(
                    counters
                        .into_iter()
                        .filter(|m| m.name == "wire_bytes_per_update"),
                );
                vec![
                    Metric::new("setup_s", setup_s, "s"),
                    Metric::new("ops_per_s", ops_per_s, "1/s"),
                    Metric::new("latency_p50_ms", p50, "ms"),
                    Metric::new("error_vs_union_mean", error_mean, "ratio"),
                    Metric::new("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
                ]
            }
            Some(recorder) => {
                spans = recorder.events();
                let per_unit =
                    |slot: usize| self.busy[slot].as_secs_f64() / self.units[slot].max(1) as f64;
                let overhead = per_unit(1) / per_unit(0).max(f64::MIN_POSITIVE);
                let mut metrics = self.layer_metrics(&spans);
                let mut counters = counters;
                counters.push(Metric::new("run.trace_overhead", overhead, "ratio"));
                for (name, unit) in COUNTERS {
                    let value = counters
                        .iter()
                        .find(|m| m.name == name)
                        .map_or(0.0, |m| m.value);
                    metrics.push(Metric::new(name, value, unit));
                }
                metrics
            }
        };
        Report {
            metrics,
            extra,
            attempted,
            failed: self.failed,
            units: self.units[0] + self.units[1],
            latency_samples: latencies.len(),
            error_samples: self.errors.len(),
            unsupported,
            spans,
        }
    }

    /// Calls, busy time, share of traced busy time and cost per call (per
    /// update, for layers handed updates) of every layer, from the spans.
    fn layer_metrics(&self, spans: &[TraceEvent]) -> Vec<Metric> {
        let traced_busy = self.busy[1].as_secs_f64().max(f64::MIN_POSITIVE);
        let mut out = Vec::new();
        for layer in LAYERS {
            let (calls, ns) = spans
                .iter()
                .filter(|e| e.name == layer)
                .fold((0u64, 0u64), |(c, ns), e| (c + 1, ns + e.duration_ns));
            let busy_s = ns as f64 / 1e9;
            out.push(Metric::new(format!("{layer}.calls"), calls as f64, "count"));
            out.push(Metric::new(format!("{layer}.busy_s"), busy_s, "s"));
            out.push(Metric::new(
                format!("{layer}.share"),
                busy_s / traced_busy,
                "ratio",
            ));
            if PER_UPDATE_LAYERS.contains(&layer) {
                let updates = self.updates.get(layer).copied().unwrap_or(0);
                let cost = ratio(ns, updates);
                out.push(Metric::new(format!("{layer}.ns_per_update"), cost, "ns"));
            } else {
                let cost = ratio(ns, calls) / 1e3;
                out.push(Metric::new(format!("{layer}.us_per_call"), cost, "us"));
            }
        }
        out
    }
}

/// Build the measured system [`SETUPS`] times in this process, dropping
/// each build before the next. Returns the last build and the median
/// build time. `build` must build the same system every time: it takes
/// its inputs ready-made.
pub fn setup<S>(mut build: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let start = Instant::now();
        system = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let system = system.expect("SETUPS is positive");
    Ok((system, median(&times)))
}

/// Counter delta as a rate, 0 when the base is 0.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}
