//! Span-style tracing: a sink trait, a no-op default, a ring recorder.
//!
//! Tracing is opt-in per component: everything instrumented holds a
//! [`TraceHandle`], which defaults to a no-op sink. With the no-op handle a
//! span is one branch — no clock read, no allocation — so the hooks can
//! stay compiled-in on the epoch-cut and estimator paths. Installing a
//! [`RingRecorder`] turns the same hooks into a bounded in-memory flight
//! recorder suitable for tests and post-mortem dumps.

use crate::registry::{MetricSource, Sample};
use setstream_hash::clock;
use std::collections::VecDeque;
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::{
    atomic::{AtomicU64, Ordering},
    Mutex,
};
#[cfg(not(loom))]
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Mutex,
};

/// A propagatable trace identity: which distributed trace a span belongs
/// to and which span is its parent.
///
/// Contexts cross process boundaries (the SSWL wire format carries them as
/// an optional frame extension), so a `Site::cut_epoch` span on one host
/// and the coordinator's commit span on another share one `trace_id` and
/// stitch into a single timeline. Derive a child with
/// [`TraceHandle::child_span`]; read a live span's context with
/// [`Span::context`]. The all-zero context is "no trace" — sinks and
/// encoders treat `trace_id == 0` as absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Identity of the whole distributed trace (stable across hops).
    pub trace_id: u64,
    /// The span the next hop should parent itself under.
    pub span_id: u64,
}

impl TraceContext {
    /// Whether this context carries a real trace (`trace_id != 0`).
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process-unique span ID (see [`setstream_hash::clock::next_id`]).
    pub id: u64,
    /// The distributed trace this span belongs to (0 = untraced local
    /// span). Root spans carry `trace_id == id`.
    pub trace_id: u64,
    /// The span this one was derived from via [`TraceHandle::child_span`]
    /// (0 = root / no parent).
    pub parent_id: u64,
    /// Static span name, e.g. `"engine.query"` or `"site.cut_epoch"`.
    pub name: &'static str,
    /// Free-form detail attached by the instrumented code (may be empty).
    pub detail: String,
    /// Logical track (e.g. `"site-2"`, `"relay-1"`); empty means the
    /// default track. Chrome trace export maps each distinct track to its
    /// own named timeline row.
    pub track: String,
    /// Span start, nanoseconds since process start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

/// Receives completed spans. Implementations must be cheap and non-blocking;
/// they run inline on the instrumented path.
pub trait TraceSink: Send + Sync {
    /// Record one completed span.
    fn record(&self, event: TraceEvent);
}

/// The default sink: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTrace;

impl TraceSink for NoopTrace {
    fn record(&self, _event: TraceEvent) {}
}

/// A bounded in-memory recorder: keeps the most recent `capacity` spans.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl RingRecorder {
    /// A recorder retaining at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// All retained spans, oldest first.
    ///
    /// Poisoning is recovered rather than propagated: the ring holds plain
    /// completed events, which stay valid even if a recording thread
    /// panicked while holding the lock.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum number of spans retained before eviction starts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Span loss must be visible on `/metrics` rather than silently truncating
/// timelines, so the recorder exports its own occupancy and drop counter.
impl MetricSource for RingRecorder {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(
            Sample::counter("setstream_trace_spans_dropped_total", self.dropped())
                .with_help("Spans evicted because the flight-recorder ring was full"),
        );
        out.push(
            Sample::gauge("setstream_trace_spans_retained", self.len() as i64)
                .with_help("Spans currently retained in the flight recorder"),
        );
        out.push(
            Sample::gauge("setstream_trace_ring_capacity", self.capacity as i64)
                .with_help("Configured flight-recorder ring capacity"),
        );
    }
}

impl TraceSink for RingRecorder {
    fn record(&self, event: TraceEvent) {
        let mut q = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    }
}

/// A cloneable, `Debug`-able handle to a trace sink.
///
/// Instrumented types (`StreamEngine`, `Site`) derive `Debug`/`Clone`, so
/// the handle wraps the `dyn TraceSink` behind an `Arc` and implements both
/// manually. The no-op handle is flagged so spans cost a single branch.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Arc<dyn TraceSink>,
    enabled: bool,
}

impl TraceHandle {
    /// A handle to the given sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle {
            sink,
            enabled: true,
        }
    }

    /// The discard-everything handle.
    pub fn noop() -> Self {
        TraceHandle {
            sink: Arc::new(NoopTrace),
            enabled: false,
        }
    }

    /// Whether spans are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start a root span; it records to the sink when finished (or
    /// dropped). Root spans open a fresh trace (`trace_id == id`).
    ///
    /// With a no-op handle this reads no clock and allocates nothing.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if self.enabled {
            let id = clock::next_id();
            Span {
                handle: Some(self),
                id,
                trace_id: id,
                parent_id: 0,
                name,
                detail: String::new(),
                track: String::new(),
                start_ns: clock::now_ns(),
            }
        } else {
            Span {
                handle: None,
                id: 0,
                trace_id: 0,
                parent_id: 0,
                name,
                detail: String::new(),
                track: String::new(),
                start_ns: 0,
            }
        }
    }

    /// Start a span parented under `ctx` — same `trace_id`, fresh span ID,
    /// `parent_id = ctx.span_id`. An inactive context (trace_id 0) degrades
    /// to a root span, so callers can pass whatever arrived off the wire.
    ///
    /// With a no-op handle this reads no clock and allocates nothing.
    #[inline]
    pub fn child_span(&self, name: &'static str, ctx: TraceContext) -> Span<'_> {
        if !ctx.is_active() {
            return self.span(name);
        }
        if self.enabled {
            Span {
                handle: Some(self),
                id: clock::next_id(),
                trace_id: ctx.trace_id,
                parent_id: ctx.span_id,
                name,
                detail: String::new(),
                track: String::new(),
                start_ns: clock::now_ns(),
            }
        } else {
            Span {
                handle: None,
                id: 0,
                trace_id: 0,
                parent_id: 0,
                name,
                detail: String::new(),
                track: String::new(),
                start_ns: 0,
            }
        }
    }
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::noop()
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.enabled)
            .finish()
    }
}

/// An in-flight span. Records itself on drop; use [`Span::finish`] to end
/// it explicitly, [`Span::detail`] to attach context.
#[derive(Debug)]
pub struct Span<'a> {
    handle: Option<&'a TraceHandle>,
    id: u64,
    trace_id: u64,
    parent_id: u64,
    name: &'static str,
    detail: String,
    track: String,
    start_ns: u64,
}

impl Span<'_> {
    /// The context a downstream hop should parent itself under: this
    /// span's trace and span IDs. Inactive (all-zero) for no-op spans.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.id,
        }
    }

    /// Attach free-form detail (overwrites any previous detail).
    ///
    /// No-op spans skip the formatting cost: pass a closure-produced string
    /// only when enabled via [`Span::is_recording`] if the detail is
    /// expensive to build.
    pub fn detail(&mut self, detail: impl Into<String>) {
        if self.handle.is_some() {
            self.detail = detail.into();
        }
    }

    /// Assign the span to a logical track (e.g. `"site-2"`). Tracks become
    /// separate named timeline rows in the Chrome trace export.
    pub fn track(&mut self, track: impl Into<String>) {
        if self.handle.is_some() {
            self.track = track.into();
        }
    }

    /// Whether this span will actually be recorded.
    pub fn is_recording(&self) -> bool {
        self.handle.is_some()
    }

    /// End the span now.
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle {
            let end = clock::now_ns();
            handle.sink.record(TraceEvent {
                id: self.id,
                trace_id: self.trace_id,
                parent_id: self.parent_id,
                name: self.name,
                detail: std::mem::take(&mut self.detail),
                track: std::mem::take(&mut self.track),
                start_ns: self.start_ns,
                duration_ns: end.saturating_sub(self.start_ns),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_spans_record_nothing_and_read_no_clock() {
        let h = TraceHandle::noop();
        assert!(!h.is_enabled());
        let mut s = h.span("x");
        assert!(!s.is_recording());
        s.detail("ignored");
        s.finish();
    }

    #[test]
    fn ring_recorder_captures_spans_in_order() {
        let ring = Arc::new(RingRecorder::new(8));
        let h = TraceHandle::new(ring.clone());
        {
            let mut s = h.span("first");
            s.detail("d1");
        }
        h.span("second").finish();
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "first");
        assert_eq!(events[0].detail, "d1");
        assert_eq!(events[1].name, "second");
        assert!(events[0].id != events[1].id);
    }

    #[test]
    fn spans_carry_tracks_and_noop_spans_skip_them() {
        let ring = Arc::new(RingRecorder::new(4));
        let h = TraceHandle::new(ring.clone());
        {
            let mut s = h.span("work");
            s.track("site-3");
        }
        assert_eq!(ring.events()[0].track, "site-3");
        let noop_handle = TraceHandle::noop();
        let mut noop = noop_handle.span("x");
        noop.track("ignored");
        noop.finish();
    }

    #[test]
    fn ring_recorder_exports_occupancy_metrics() {
        use crate::registry::{MetricSource, SampleValue};
        let ring = Arc::new(RingRecorder::new(2));
        let h = TraceHandle::new(ring.clone());
        h.span("a").finish();
        h.span("b").finish();
        h.span("c").finish();
        let mut out = Vec::new();
        ring.collect(&mut out);
        let get = |name: &str| {
            out.iter()
                .find(|s| s.name == name)
                .map(|s| match s.value {
                    SampleValue::Counter(v) => v as i64,
                    SampleValue::Gauge(v) => v,
                    SampleValue::Histogram(_) => -1,
                })
                .expect("metric present")
        };
        assert_eq!(get("setstream_trace_spans_dropped_total"), 1);
        assert_eq!(get("setstream_trace_spans_retained"), 2);
        assert_eq!(get("setstream_trace_ring_capacity"), 2);
    }

    #[test]
    fn child_spans_inherit_trace_and_parent_from_context() {
        let ring = Arc::new(RingRecorder::new(8));
        let h = TraceHandle::new(ring.clone());
        let ctx = {
            let root = h.span("root");
            let ctx = root.context();
            assert_eq!(ctx.trace_id, ctx.span_id, "root opens its own trace");
            assert!(ctx.is_active());
            ctx
        };
        h.child_span("child", ctx).finish();
        let events = ring.events();
        let root = events.iter().find(|e| e.name == "root").unwrap();
        let child = events.iter().find(|e| e.name == "child").unwrap();
        assert_eq!(root.trace_id, root.id);
        assert_eq!(root.parent_id, 0);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.id);
        assert!(child.id != root.id);
    }

    #[test]
    fn inactive_context_degrades_child_to_root_and_noop_context_is_inactive() {
        let noop = TraceHandle::noop();
        let s = noop.span("x");
        assert!(!s.context().is_active());
        drop(s);

        let ring = Arc::new(RingRecorder::new(4));
        let h = TraceHandle::new(ring.clone());
        h.child_span("orphan", TraceContext::default()).finish();
        let e = &ring.events()[0];
        assert_eq!(e.trace_id, e.id, "inactive ctx starts a fresh trace");
        assert_eq!(e.parent_id, 0);
    }

    #[test]
    fn ring_recorder_evicts_oldest() {
        let ring = Arc::new(RingRecorder::new(2));
        let h = TraceHandle::new(ring.clone());
        h.span("a").finish();
        h.span("b").finish();
        h.span("c").finish();
        let names: Vec<&str> = ring.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(ring.dropped(), 1);
    }
}

/// Model-checked concurrency properties (`RUSTFLAGS="--cfg loom"`).
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use loom::thread;

    fn event(name: &'static str) -> TraceEvent {
        TraceEvent {
            id: 0,
            trace_id: 0,
            parent_id: 0,
            name,
            detail: String::new(),
            track: String::new(),
            start_ns: 0,
            duration_ns: 0,
        }
    }

    /// Two recorders race a scraper on a capacity-1 ring: in every
    /// interleaving the ring never exceeds capacity, nothing is lost
    /// (retained + dropped == recorded), and the scraper's reads are
    /// consistent (the lock serializes eviction with push).
    #[test]
    fn loom_ring_recorder_accounts_for_every_span() {
        loom::model(|| {
            let ring = Arc::new(RingRecorder::new(1));
            let t1 = {
                let ring = Arc::clone(&ring);
                thread::spawn(move || ring.record(event("a")))
            };
            let t2 = {
                let ring = Arc::clone(&ring);
                thread::spawn(move || ring.record(event("b")))
            };
            let seen = ring.len();
            assert!(seen <= 1, "ring must never exceed capacity");
            t1.join().expect("recorder panicked");
            t2.join().expect("recorder panicked");
            assert_eq!(ring.len(), 1);
            assert_eq!(ring.dropped(), 1, "one of the two spans was evicted");
        });
    }
}
