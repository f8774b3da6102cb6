//! Engine-level metrics: ingest throughput, estimate latency, persistence.
//!
//! One [`EngineMetrics`] instance rides inside every [`crate::StreamEngine`]
//! behind an `Arc`, always on. Ingest accounting is amortized per batch
//! (one atomic add per counter per batch), so the r=512 batch path pays a
//! handful of atomics per ~10k updates; the scalar `process` path pays one
//! or two relaxed atomics per tuple, which is noise next to `r` copies of
//! hashing. Register the engine's handle with a
//! [`setstream_obs::Registry`] to expose everything through the text
//! exporter.
//!
//! analyze: allow(indexing) — counter arrays are sized to the static `METHODS` table and indexed only via `method_index`

use setstream_core::{EstimateMethod, IngestStats};
use setstream_obs::{Counter, Histogram, MetricSource, Sample};

/// All estimator paths, in the order their counters are exported.
const METHODS: [EstimateMethod; 5] = [
    EstimateMethod::Union,
    EstimateMethod::Witness,
    EstimateMethod::MedianBoost,
    EstimateMethod::BitSketch,
    EstimateMethod::TrivialEmpty,
];

fn method_index(m: EstimateMethod) -> usize {
    // analyze: allow(panic) — the static METHODS table enumerates every EstimateMethod variant
    METHODS.iter().position(|&x| x == m).expect("known method")
}

/// Metrics maintained by a [`crate::StreamEngine`].
///
/// Metric names follow the `setstream_engine_*` convention documented in
/// DESIGN.md §7.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Update tuples ingested (scalar + batch + parallel paths).
    pub ingest_updates: Counter,
    /// Of which deletions.
    pub ingest_deletions: Counter,
    /// Batch ingest calls.
    pub ingest_batches: Counter,
    /// Updates that arrived in a uniform-delta (insert-only shape)
    /// chunk. The bit-sliced kernel has no separate path for them, so
    /// this describes the workload mix (see `IngestStats`).
    pub ingest_fastpath_updates: Counter,
    /// Estimates served, by estimator path (indexed like `METHODS`).
    estimates_by_method: [Counter; 5],
    /// Estimate attempts that returned an error.
    pub estimate_errors: Counter,
    /// Wall-clock latency of estimate calls, nanoseconds.
    pub estimate_latency_ns: Histogram,
    /// Snapshots captured.
    pub snapshots: Counter,
    /// Engines restored from a snapshot.
    pub restores: Counter,
    /// Bytes of sealed checkpoint payloads produced from engine snapshots.
    pub checkpoint_bytes: Counter,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new()
    }
}

impl EngineMetrics {
    /// Fresh, all-zero metrics with the standard latency buckets.
    pub fn new() -> Self {
        EngineMetrics {
            ingest_updates: Counter::new(),
            ingest_deletions: Counter::new(),
            ingest_batches: Counter::new(),
            ingest_fastpath_updates: Counter::new(),
            estimates_by_method: Default::default(),
            estimate_errors: Counter::new(),
            estimate_latency_ns: Histogram::latency_ns(),
            snapshots: Counter::new(),
            restores: Counter::new(),
            checkpoint_bytes: Counter::new(),
        }
    }

    /// Record a batch's ingest accounting in one shot.
    pub fn record_batch(&self, stats: IngestStats, deletions: u64) {
        self.ingest_updates.add(stats.updates as u64);
        self.ingest_deletions.add(deletions);
        self.ingest_batches.inc();
        self.ingest_fastpath_updates
            .add(stats.fast_path_updates as u64);
    }

    /// Record one finished estimate call: latency plus outcome.
    pub fn record_estimate(&self, elapsed_ns: u64, result: Result<EstimateMethod, ()>) {
        self.estimate_latency_ns.observe(elapsed_ns);
        match result {
            Ok(method) => self.estimates_by_method[method_index(method)].inc(),
            Err(()) => self.estimate_errors.inc(),
        }
    }

    /// Estimates served via the given estimator path.
    pub fn estimates_for(&self, method: EstimateMethod) -> u64 {
        self.estimates_by_method[method_index(method)].get()
    }

    /// Total estimates served successfully (all methods).
    pub fn estimates_total(&self) -> u64 {
        self.estimates_by_method.iter().map(Counter::get).sum()
    }
}

impl MetricSource for EngineMetrics {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(
            Sample::counter(
                "setstream_engine_ingest_updates_total",
                self.ingest_updates.get(),
            )
            .with_help("Update tuples ingested across all ingest paths"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_ingest_deletions_total",
                self.ingest_deletions.get(),
            )
            .with_help("Ingested updates that were deletions"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_ingest_batches_total",
                self.ingest_batches.get(),
            )
            .with_help("Batch ingest calls"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_ingest_fastpath_updates_total",
                self.ingest_fastpath_updates.get(),
            )
            .with_help("Updates in uniform-delta (insert-only shape) chunks"),
        );
        for (method, counter) in METHODS.iter().zip(&self.estimates_by_method) {
            out.push(
                Sample::counter("setstream_engine_estimates_total", counter.get())
                    .with_label("method", method.as_str())
                    .with_help("Estimates served, by estimator path"),
            );
        }
        out.push(
            Sample::counter(
                "setstream_engine_estimate_errors_total",
                self.estimate_errors.get(),
            )
            .with_help("Estimate attempts that returned an error"),
        );
        out.push(
            Sample::histogram(
                "setstream_engine_estimate_latency_ns",
                self.estimate_latency_ns.snapshot(),
            )
            .with_help("Wall-clock latency of estimate calls in nanoseconds"),
        );
        out.push(
            Sample::counter("setstream_engine_snapshots_total", self.snapshots.get())
                .with_help("Engine snapshots captured"),
        );
        out.push(
            Sample::counter("setstream_engine_restores_total", self.restores.get())
                .with_help("Engines restored from a snapshot"),
        );
        out.push(
            Sample::counter(
                "setstream_engine_checkpoint_bytes_total",
                self.checkpoint_bytes.get(),
            )
            .with_help("Bytes of sealed checkpoint payloads produced"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_recording_accumulates() {
        let m = EngineMetrics::new();
        m.record_batch(
            IngestStats {
                updates: 100,
                fast_path_updates: 90,
            },
            10,
        );
        m.record_batch(
            IngestStats {
                updates: 50,
                fast_path_updates: 0,
            },
            0,
        );
        assert_eq!(m.ingest_updates.get(), 150);
        assert_eq!(m.ingest_deletions.get(), 10);
        assert_eq!(m.ingest_batches.get(), 2);
        assert_eq!(m.ingest_fastpath_updates.get(), 90);
    }

    #[test]
    fn estimate_recording_by_method_and_error() {
        let m = EngineMetrics::new();
        m.record_estimate(1_000, Ok(EstimateMethod::Witness));
        m.record_estimate(2_000, Ok(EstimateMethod::Witness));
        m.record_estimate(3_000, Ok(EstimateMethod::Union));
        m.record_estimate(4_000, Err(()));
        assert_eq!(m.estimates_for(EstimateMethod::Witness), 2);
        assert_eq!(m.estimates_for(EstimateMethod::Union), 1);
        assert_eq!(m.estimates_total(), 3);
        assert_eq!(m.estimate_errors.get(), 1);
        assert_eq!(m.estimate_latency_ns.count(), 4);
    }

    #[test]
    fn collect_exports_every_family() {
        let m = EngineMetrics::new();
        let mut out = Vec::new();
        m.collect(&mut out);
        let names: Vec<&str> = out.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"setstream_engine_ingest_updates_total"));
        assert!(names.contains(&"setstream_engine_estimate_latency_ns"));
        assert!(names.contains(&"setstream_engine_restores_total"));
        // One estimates_total sample per method.
        assert_eq!(
            names
                .iter()
                .filter(|n| **n == "setstream_engine_estimates_total")
                .count(),
            METHODS.len()
        );
    }
}
