//! The central site: merges per-stream synopses from all sites and answers
//! set-expression cardinality queries (Figure 1's "Set-Expression Query
//! Processing Engine", deployed in the stored-coins model).
//!
//! # Continuous collection
//!
//! The coordinator tracks, per `(site, stream)`, an **epoch watermark**
//! (the last applied epoch) and the site's **cumulative contribution**
//! (everything that site has reported for that stream so far). Incoming
//! frames are guarded:
//!
//! * **Delta** frames merge additively, but only when their
//!   `(epoch, prev_epoch)` stamps chain exactly onto the watermark — a
//!   duplicate or out-of-order epoch is a typed [`CoordinatorError::StaleEpoch`],
//!   a hole in the chain is a typed [`CoordinatorError::EpochGap`] that
//!   flags the site for resync. Nothing is ever silently double-merged.
//! * **Synopsis** frames are cumulative and *replace* the site's previous
//!   contribution for the stream (the pre-epoch double-count footgun is
//!   gone), which is also how resync heals a diverged site.
//! * Sites whose frames repeatedly fail CRC/decode are **quarantined**:
//!   further traffic from them is refused until released, but their last
//!   good contribution keeps serving queries — the coordinator degrades
//!   gracefully instead of blocking, and every query is annotated
//!   with per-stream staleness and collection health
//!   ([`Coordinator::query`]).
//!
//! Every verdict the guards reach is counted in the coordinator's
//! [`CoordinatorMetrics`] (accepted frames by kind, rejections by typed
//! reason, quarantine/resync transitions); register the coordinator with
//! a [`setstream_obs::Registry`] to export them plus collect-time site
//! gauges.
//!
//! # One synopsis store
//!
//! Every coordinator owns a [`StreamEngine`] whose synopsis map is the
//! merged state: each committed change goes through
//! [`StreamEngine::apply_delta`] — a delta frame adds its vector, a
//! replacing snapshot adds `new − old` — so the store always equals the
//! sum of the per-site contributions (cells wrap in ℤ/2⁶⁴, so the
//! running sum is exact). Queries are that engine's
//! [`StreamEngine::evaluate`] plus staleness, health and lineage
//! annotations, and subscriptions registered with
//! [`Coordinator::subscribe`] fire on committed state in
//! [`Coordinator::publish_epoch`]. Linearity of the sketches guarantees
//! the store equals a single-site synopsis of the combined traffic,
//! regardless of delivery order.
//!
//! Thread-safe: sites may deliver frames concurrently (ingestion takes a
//! short [`parking_lot::Mutex`] critical section per frame), while
//! queries and subscription rounds run under the same lock.

use crate::metrics::CoordinatorMetrics;
use crate::site::{Epoch, SiteId};
use crate::wire::{self, DecodedFrame, FrameContext, Message, WireError};
use bytes::Bytes;
use parking_lot::Mutex;
use setstream_core::{EpochWitness, Estimate, EstimateError, SketchFamily, SketchVector};
use setstream_engine::{
    ChangeEvent, EngineError, StreamEngine, SubscriptionId, SubscriptionOptions,
};
use setstream_expr::SetExpr;
use setstream_hash::clock;
use setstream_obs::{LineageRing, MetricSource, Sample, TraceHandle};
use setstream_stream::StreamId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Coordinator failures.
#[derive(Debug)]
pub enum CoordinatorError {
    /// A frame failed to decode or verify.
    Wire(WireError),
    /// A site announced coins different from the coordinator's.
    CoinMismatch {
        /// The offending site.
        site: SiteId,
    },
    /// The engine refused a synopsis (incompatible with the family) or
    /// an estimate.
    Estimate(EngineError),
    /// A query referenced a stream no site has reported.
    UnknownStream(StreamId),
    /// A delta or snapshot for an epoch at or before the watermark — a
    /// duplicate or out-of-order shipment. Never merged.
    StaleEpoch {
        /// Sender.
        site: SiteId,
        /// Stream concerned.
        stream: StreamId,
        /// The coordinator's applied watermark.
        have: Epoch,
        /// The epoch the frame carried.
        got: Epoch,
    },
    /// A delta whose `prev_epoch` does not chain onto the watermark — at
    /// least one epoch was lost in between. The site is flagged for
    /// cumulative resync.
    EpochGap {
        /// Sender.
        site: SiteId,
        /// Stream concerned.
        stream: StreamId,
        /// The watermark the delta should have chained from.
        expected_prev: Epoch,
        /// The `prev_epoch` it actually carried.
        got_prev: Epoch,
        /// The epoch of the rejected delta.
        epoch: Epoch,
    },
    /// The site is quarantined after repeated CRC/decode failures; its
    /// frames are refused until [`Coordinator::release_quarantine`].
    Quarantined {
        /// The quarantined site.
        site: SiteId,
    },
}

impl CoordinatorError {
    /// Snake-case reason label this rejection is counted under in
    /// `setstream_distributed_frames_rejected_total{reason=...}`.
    pub fn reason(&self) -> &'static str {
        match self {
            CoordinatorError::Wire(_) => "wire",
            CoordinatorError::CoinMismatch { .. } => "coin_mismatch",
            CoordinatorError::Estimate(_) => "estimate",
            CoordinatorError::UnknownStream(_) => "unknown_stream",
            CoordinatorError::StaleEpoch { .. } => "stale_epoch",
            CoordinatorError::EpochGap { .. } => "epoch_gap",
            CoordinatorError::Quarantined { .. } => "quarantined",
        }
    }
}

impl fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinatorError::Wire(e) => write!(f, "wire error: {e}"),
            CoordinatorError::CoinMismatch { site } => {
                write!(f, "site {site} uses different stored coins")
            }
            CoordinatorError::Estimate(e) => write!(f, "{e}"),
            CoordinatorError::UnknownStream(s) => write!(f, "no synopsis for stream {s}"),
            CoordinatorError::StaleEpoch {
                site,
                stream,
                have,
                got,
            } => write!(
                f,
                "site {site} stream {stream}: epoch {got} at or before watermark {have} (duplicate/out-of-order)"
            ),
            CoordinatorError::EpochGap {
                site,
                stream,
                expected_prev,
                got_prev,
                epoch,
            } => write!(
                f,
                "site {site} stream {stream}: delta for epoch {epoch} chains from {got_prev}, watermark is {expected_prev} — resync required"
            ),
            CoordinatorError::Quarantined { site } => {
                write!(f, "site {site} is quarantined")
            }
        }
    }
}

impl std::error::Error for CoordinatorError {}

impl From<WireError> for CoordinatorError {
    fn from(e: WireError) -> Self {
        CoordinatorError::Wire(e)
    }
}

impl From<EstimateError> for CoordinatorError {
    fn from(e: EstimateError) -> Self {
        CoordinatorError::Estimate(EngineError::Estimate(e))
    }
}

/// One site's bookkeeping at the coordinator.
#[derive(Default)]
struct SiteState {
    /// The site said hello (synopses may arrive first; such sites exist
    /// but are not listed by [`Coordinator::sites`] until they announce).
    announced: bool,
    /// `resume_epoch` from the site's last hello.
    announced_epoch: Epoch,
    /// Highest committed epoch (from `Commit` frames).
    commit_epoch: Epoch,
    /// Per-stream applied-epoch watermark.
    watermarks: BTreeMap<StreamId, Epoch>,
    /// Per-stream cumulative contribution from this site.
    contributions: BTreeMap<StreamId, SketchVector>,
    /// Consecutive CRC/decode failures attributed to this site.
    wire_failures: u32,
    /// Frames refused until released.
    quarantined: bool,
    /// The site needs a cumulative resync (epoch gap or stale restore).
    needs_resync: bool,
}

/// A site's health as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteStatus {
    /// Site identity.
    pub site: SiteId,
    /// `resume_epoch` from the site's last hello.
    pub announced_epoch: Epoch,
    /// Highest committed epoch.
    pub commit_epoch: Epoch,
    /// Refusing frames after repeated CRC/decode failures.
    pub quarantined: bool,
    /// Waiting for a cumulative resync.
    pub needs_resync: bool,
    /// Consecutive unattributable/corrupt frames so far.
    pub wire_failures: u32,
}

/// Per-stream staleness of the merged synopsis backing an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStaleness {
    /// The stream.
    pub stream: StreamId,
    /// Sites contributing to this stream.
    pub reporting_sites: usize,
    /// The oldest per-site applied epoch — how far behind the laggard is.
    pub oldest_epoch: Epoch,
    /// The newest per-site applied epoch.
    pub newest_epoch: Epoch,
}

/// Collection-wide health counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectionHealth {
    /// Sites that have announced themselves.
    pub sites: usize,
    /// Sites currently quarantined.
    pub quarantined: usize,
    /// Sites whose commit epoch trails the most advanced site.
    pub lagging: usize,
    /// Sites flagged for cumulative resync.
    pub resync_pending: usize,
}

/// An estimate plus the metadata a consumer needs to judge how fresh it
/// is under partial failure.
#[derive(Debug, Clone)]
pub struct AnnotatedEstimate {
    /// The cardinality estimate.
    pub estimate: Estimate,
    /// Staleness of every stream the query touched.
    pub staleness: Vec<StreamStaleness>,
    /// Collection-wide health at query time.
    pub health: CollectionHealth,
    /// The exact `(stream, site, epoch)` watermarks the answer rests on.
    pub lineage: Vec<EpochWitness>,
}

impl AnnotatedEstimate {
    /// The provenance witness: one entry per contributing site per queried
    /// stream, naming the applied-epoch watermark the merged synopsis
    /// included when this answer was computed. Cross-reference against the
    /// coordinator's [`LineageRing`] (`/lineage`) to audit how each of
    /// those epochs was collected.
    pub fn lineage(&self) -> &[EpochWitness] {
        &self.lineage
    }
}

struct State {
    /// Per-site bookkeeping (watermarks, contributions, quarantine).
    sites: BTreeMap<SiteId, SiteState>,
    /// The merged synopses every query and subscription reads.
    store: Store,
    /// The last trace context applied per stream — what a relay re-ships
    /// upstream so one trace spans site → relay → root coordinator.
    stream_ctx: BTreeMap<StreamId, FrameContext>,
}

/// The synopsis store: per stream, the sum of every site's contribution.
struct Store {
    engine: StreamEngine,
    /// A relay's child-facing coordinator only: per stream, the sum of
    /// the changes committed since the last upstream cut.
    unshipped: Option<BTreeMap<StreamId, SketchVector>>,
}

impl Store {
    /// Fold one committed change into the engine (and the unshipped sum).
    fn commit(&mut self, stream: StreamId, change: &SketchVector) -> Result<(), CoordinatorError> {
        self.engine.apply_delta(stream, change).map_err(CoordinatorError::Estimate)?;
        if let Some(sums) = self.unshipped.as_mut() {
            let family = self.engine.family();
            sums.entry(stream).or_insert_with(|| family.new_vector()).merge_from(change)?;
        }
        Ok(())
    }

    /// A copy of every stream's merged synopsis.
    fn copy(&self) -> BTreeMap<StreamId, SketchVector> {
        let engine = &self.engine;
        engine.stream_ids().filter_map(|s| Some((s, engine.synopsis(s)?.clone()))).collect()
    }
}

impl State {
    fn staleness_of(&self, stream: StreamId) -> StreamStaleness {
        let mut reporting = 0usize;
        let mut oldest = Epoch::MAX;
        let mut newest = 0;
        for st in self.sites.values() {
            if st.contributions.contains_key(&stream) {
                reporting += 1;
                let epoch = st.watermarks.get(&stream).copied().unwrap_or(0);
                oldest = oldest.min(epoch);
                newest = newest.max(epoch);
            }
        }
        StreamStaleness {
            stream,
            reporting_sites: reporting,
            oldest_epoch: if reporting == 0 { 0 } else { oldest },
            newest_epoch: newest,
        }
    }

    fn health(&self) -> CollectionHealth {
        let max_commit = self
            .sites
            .values()
            .map(|s| s.commit_epoch)
            .max()
            .unwrap_or(0);
        CollectionHealth {
            sites: self.sites.values().filter(|s| s.announced).count(),
            quarantined: self.sites.values().filter(|s| s.quarantined).count(),
            lagging: self
                .sites
                .values()
                .filter(|s| s.commit_epoch < max_commit)
                .count(),
            resync_pending: self.sites.values().filter(|s| s.needs_resync).count(),
        }
    }
}

/// Epoch-lineage entries a coordinator retains — enough for hundreds of
/// sites over many collection rounds while bounding memory.
const DEFAULT_LINEAGE_CAPACITY: usize = 1024;

/// The query-processing coordinator.
pub struct Coordinator {
    family: SketchFamily,
    /// Consecutive attributed CRC/decode failures before a site is
    /// quarantined.
    quarantine_after: u32,
    state: Mutex<State>,
    metrics: Arc<CoordinatorMetrics>,
    /// Span recorder for merge/commit spans (noop unless
    /// [`Coordinator::with_trace`] installed a real sink — zero cost when
    /// off).
    trace: TraceHandle,
    /// Chrome-export track merge/commit spans render under (a per-node
    /// name like `coordinator` or `relay-2`).
    track: String,
    /// Always-on bounded provenance ring: who contributed to every
    /// retained `(stream, epoch)`, with retransmit/resync/stall counts and
    /// cut→commit latency.
    lineage: Arc<LineageRing>,
}

impl Coordinator {
    /// Coordinator expecting synopses built with `family`'s coins.
    pub fn new(family: SketchFamily) -> Self {
        Coordinator {
            family,
            quarantine_after: 8,
            state: Mutex::new(State {
                sites: BTreeMap::new(),
                store: Store {
                    engine: StreamEngine::new(family),
                    unshipped: None,
                },
                stream_ctx: BTreeMap::new(),
            }),
            metrics: Arc::new(CoordinatorMetrics::new()),
            trace: TraceHandle::noop(),
            track: "coordinator".to_string(),
            lineage: Arc::new(LineageRing::new(DEFAULT_LINEAGE_CAPACITY)),
        }
    }

    /// The coordinator's always-on frame/rejection counters. Shareable;
    /// for the full export (counters plus state-derived site gauges)
    /// register the coordinator itself as a
    /// [`setstream_obs::MetricSource`].
    pub fn metrics(&self) -> &Arc<CoordinatorMetrics> {
        &self.metrics
    }

    /// Override how many *consecutive* attributed CRC/decode failures
    /// quarantine a site (default 8 — a 10%-corruption link hits that
    /// spuriously about once in 10⁸ frames).
    ///
    /// # Panics
    /// Panics if `threshold` is zero.
    pub fn with_quarantine_after(mut self, threshold: u32) -> Self {
        assert!(threshold >= 1, "quarantine threshold must be positive");
        self.quarantine_after = threshold;
        self
    }

    /// Record merge/commit spans into `trace` under the Chrome-export
    /// track `track` (e.g. `coordinator`, `relay-2`), and the engine's
    /// `engine.query` and `engine.publish_epoch` spans into the same
    /// sink. Frames carrying a trace-context extension produce *child*
    /// spans of the originating site cut, so one trace id follows an
    /// epoch across processes.
    pub fn with_trace(mut self, trace: TraceHandle, track: impl Into<String>) -> Self {
        self.state.get_mut().store.engine.set_trace(trace.clone());
        self.trace = trace;
        self.track = track.into();
        self
    }

    /// Keep the per-stream sum of changes committed since the last
    /// [`Self::take_unshipped`] — what a [`crate::Relay`] ships upstream.
    /// Whatever is committed already counts as unshipped.
    pub(crate) fn track_unshipped(mut self) -> Self {
        let store = &mut self.state.get_mut().store;
        store.unshipped = Some(store.copy());
        self
    }

    /// Take the per-stream sums of the changes committed since the
    /// previous take. Empty unless [`Self::track_unshipped`] enabled them.
    pub(crate) fn take_unshipped(&self) -> BTreeMap<StreamId, SketchVector> {
        let mut st = self.state.lock();
        st.store.unshipped.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// A copy of the whole store, with the unshipped sums cleared under
    /// the same lock: a cumulative resync of this state leaves nothing
    /// for the next cut to ship.
    pub(crate) fn take_store(&self) -> BTreeMap<StreamId, SketchVector> {
        let mut st = self.state.lock();
        st.store.unshipped.iter_mut().for_each(BTreeMap::clear);
        st.store.copy()
    }

    /// The coordinator's epoch provenance ring: per retained
    /// `(stream, epoch)`, the contributing sites, merge fan-in,
    /// retransmit/resync counts, credit stalls, and cut→commit timestamps.
    pub fn lineage(&self) -> &Arc<LineageRing> {
        &self.lineage
    }

    /// Charge a credit-window stall against `site`'s still-open lineage
    /// entries. The transport server calls this when a slow consumer
    /// overflows its send window, so lineage shows *why* an epoch was slow
    /// to commit.
    pub fn note_credit_stall(&self, site: SiteId) {
        self.lineage.record_credit_stall(site);
    }

    /// The last trace context applied for `stream`, if any frame carried
    /// one. A relay forwards this (with a fresh span id) on its own
    /// upstream cuts so the root coordinator's spans join the same trace.
    /// Under fan-in the *last contributor wins* — lineage, not the trace,
    /// is the exhaustive record.
    pub fn stream_context(&self, stream: StreamId) -> Option<FrameContext> {
        self.state.lock().stream_ctx.get(&stream).copied()
    }

    /// The stored coins queries are answered under.
    pub fn family(&self) -> &SketchFamily {
        &self.family
    }

    /// Ingest one frame from an unidentified transport. CRC/decode
    /// failures cannot be attributed to a site here, so they do not count
    /// toward quarantine — prefer [`Self::ingest_frame_from`] when the
    /// link identifies its site.
    pub fn ingest_frame(&self, frame: &Bytes) -> Result<(), CoordinatorError> {
        // Decode outside the lock; merge inside.
        let result = wire::decode_message(frame.clone())
            .map_err(CoordinatorError::from)
            .and_then(|decoded| self.apply(decoded));
        if let Err(e) = &result {
            self.metrics.record_rejection(e.reason());
        }
        result
    }

    /// Ingest one frame that arrived on `site`'s link, with failure
    /// accounting: repeated CRC/decode failures quarantine the site, and
    /// frames from a quarantined site are refused outright.
    pub fn ingest_frame_from(&self, site: SiteId, frame: &Bytes) -> Result<(), CoordinatorError> {
        self.ingest_from(site, wire::decode_message(frame.clone()))
    }

    /// [`Self::ingest_frame_from`] for a frame the caller has already
    /// verified and decoded with [`wire::decode_message`] — the transport
    /// server decodes each frame once, routes on the typed message, and
    /// hands the same value (or the decode failure, for attribution)
    /// here.
    pub fn ingest_from(
        &self,
        site: SiteId,
        decoded: Result<DecodedFrame, WireError>,
    ) -> Result<(), CoordinatorError> {
        if self.state.lock().sites.get(&site).is_some_and(|s| s.quarantined) {
            self.metrics.record_rejection("quarantined");
            return Err(CoordinatorError::Quarantined { site });
        }
        let result = decoded
            .map_err(CoordinatorError::from)
            .and_then(|decoded| self.apply(decoded));
        if let Err(e) = &result {
            self.metrics.record_rejection(e.reason());
        }
        let mut st = self.state.lock();
        let entry = st.sites.entry(site).or_default();
        match &result {
            Err(CoordinatorError::Wire(_)) => {
                entry.wire_failures += 1;
                if entry.wire_failures >= self.quarantine_after && !entry.quarantined {
                    entry.quarantined = true;
                    self.metrics.quarantines.inc();
                }
            }
            _ => entry.wire_failures = 0,
        }
        result
    }

    /// Open a merge/commit span on the coordinator's track, as a child of
    /// the frame's trace context when it carried one (so the span joins
    /// the originating site cut's trace).
    fn frame_span(&self, name: &'static str, ctx: Option<FrameContext>) -> setstream_obs::Span<'_> {
        let mut span = match ctx {
            Some(c) => self.trace.child_span(name, c.trace),
            None => self.trace.span(name),
        };
        span.track(&self.track);
        span
    }

    /// Apply one decoded frame; counts it as accepted on success.
    fn apply(&self, decoded: DecodedFrame) -> Result<(), CoordinatorError> {
        let kind = decoded.message.kind();
        self.apply_message(decoded.message, decoded.ctx)?;
        self.metrics.record_frame(kind);
        Ok(())
    }

    fn apply_message(
        &self,
        message: Message,
        ctx: Option<FrameContext>,
    ) -> Result<(), CoordinatorError> {
        match message {
            Message::Hello(hello) => {
                if hello.family != self.family {
                    return Err(CoordinatorError::CoinMismatch { site: hello.site });
                }
                let mut st = self.state.lock();
                let entry = st.sites.entry(hello.site).or_default();
                entry.announced = true;
                entry.announced_epoch = hello.resume_epoch;
                if hello.resume_epoch < entry.commit_epoch && !entry.contributions.is_empty() {
                    // The site restored from a checkpoint older than what
                    // we already applied — its epoch numbering is about to
                    // collide with history. Only a cumulative resync can
                    // realign it. (With nothing applied there is nothing
                    // to realign, and no snapshot could clear the flag: a
                    // delta that does not chain from zero asks for the
                    // resync itself.)
                    if !entry.needs_resync {
                        self.metrics.resync_flags.inc();
                    }
                    entry.needs_resync = true;
                }
            }
            Message::Synopsis(msg) => {
                if msg.vector.family() != &self.family {
                    return Err(CoordinatorError::CoinMismatch { site: msg.site });
                }
                let mut span = self.frame_span("collect.merge", ctx);
                if span.is_recording() {
                    span.detail(format!(
                        "site={} stream={} epoch={} kind=synopsis",
                        msg.site, msg.stream, msg.epoch
                    ));
                }
                let mut guard = self.state.lock();
                let st = &mut *guard;
                let entry = st.sites.entry(msg.site).or_default();
                if entry.quarantined {
                    return Err(CoordinatorError::Quarantined { site: msg.site });
                }
                let watermark = entry.watermarks.get(&msg.stream).copied().unwrap_or(0);
                if msg.epoch < watermark {
                    drop(guard);
                    self.lineage
                        .record_retransmit(msg.stream.0, msg.epoch, msg.site);
                    return Err(CoordinatorError::StaleEpoch {
                        site: msg.site,
                        stream: msg.stream,
                        have: watermark,
                        got: msg.epoch,
                    });
                }
                // Cumulative snapshot: REPLACE the previous contribution,
                // so the store moves by new − old. Re-merging it would
                // double-count all prior traffic.
                match entry.contributions.get(&msg.stream) {
                    Some(old) => st.store.commit(msg.stream, &msg.vector.delta_since(old)?)?,
                    None => st.store.commit(msg.stream, &msg.vector)?,
                }
                entry.contributions.insert(msg.stream, msg.vector);
                entry.watermarks.insert(msg.stream, msg.epoch);
                if entry.needs_resync {
                    self.metrics.resyncs_healed.inc();
                }
                entry.needs_resync = false;
                if let Some(c) = ctx {
                    st.stream_ctx.insert(msg.stream, c);
                }
                drop(guard);
                let (trace_id, cut_ns) = ctx.map_or((0, 0), |c| (c.trace.trace_id, c.cut_ns));
                self.lineage
                    .record_frame(msg.stream.0, msg.epoch, msg.site, trace_id, cut_ns);
                self.lineage.record_resync(msg.stream.0, msg.epoch);
            }
            Message::Delta(msg) => {
                if msg.vector.family() != &self.family {
                    return Err(CoordinatorError::CoinMismatch { site: msg.site });
                }
                let mut span = self.frame_span("collect.merge", ctx);
                if span.is_recording() {
                    span.detail(format!(
                        "site={} stream={} epoch={} kind=delta",
                        msg.site, msg.stream, msg.epoch
                    ));
                }
                let mut guard = self.state.lock();
                let st = &mut *guard;
                let entry = st.sites.entry(msg.site).or_default();
                if entry.quarantined {
                    return Err(CoordinatorError::Quarantined { site: msg.site });
                }
                let watermark = entry.watermarks.get(&msg.stream).copied().unwrap_or(0);
                if msg.epoch <= watermark {
                    drop(guard);
                    self.lineage
                        .record_retransmit(msg.stream.0, msg.epoch, msg.site);
                    return Err(CoordinatorError::StaleEpoch {
                        site: msg.site,
                        stream: msg.stream,
                        have: watermark,
                        got: msg.epoch,
                    });
                }
                if msg.prev_epoch != watermark {
                    if !entry.needs_resync {
                        self.metrics.resync_flags.inc();
                    }
                    entry.needs_resync = true;
                    return Err(CoordinatorError::EpochGap {
                        site: msg.site,
                        stream: msg.stream,
                        expected_prev: watermark,
                        got_prev: msg.prev_epoch,
                        epoch: msg.epoch,
                    });
                }
                st.store.commit(msg.stream, &msg.vector)?;
                match entry.contributions.get_mut(&msg.stream) {
                    Some(existing) => existing.merge_from(&msg.vector)?,
                    None => {
                        entry.contributions.insert(msg.stream, msg.vector);
                    }
                }
                entry.watermarks.insert(msg.stream, msg.epoch);
                if let Some(c) = ctx {
                    st.stream_ctx.insert(msg.stream, c);
                }
                drop(guard);
                let (trace_id, cut_ns) = ctx.map_or((0, 0), |c| (c.trace.trace_id, c.cut_ns));
                self.lineage
                    .record_frame(msg.stream.0, msg.epoch, msg.site, trace_id, cut_ns);
            }
            Message::Commit(msg) => {
                let mut span = self.frame_span("collect.commit", ctx);
                if span.is_recording() {
                    span.detail(format!("site={} epoch={}", msg.site, msg.epoch));
                }
                let mut st = self.state.lock();
                let entry = st.sites.entry(msg.site).or_default();
                if entry.quarantined {
                    return Err(CoordinatorError::Quarantined { site: msg.site });
                }
                entry.commit_epoch = entry.commit_epoch.max(msg.epoch);
                drop(st);
                let cut_ns = ctx.map_or(0, |c| c.cut_ns);
                self.lineage
                    .record_commit(msg.epoch, msg.site, clock::now_ns(), cut_ns);
            }
            Message::Ack(_) => {
                // Acks are transport control traffic flowing *toward*
                // sites; one arriving at the merge path means a confused
                // or hostile peer. Refuse it as a wire-level violation so
                // repeated offenders hit the quarantine counter.
                return Err(CoordinatorError::Wire(WireError::BadKind(6)));
            }
        }
        Ok(())
    }

    /// Streams for which a merged synopsis exists.
    pub fn streams(&self) -> Vec<StreamId> {
        self.state.lock().store.engine.stream_ids().collect()
    }

    /// Sites that have said hello.
    pub fn sites(&self) -> Vec<SiteId> {
        self.state
            .lock()
            .sites
            .iter()
            .filter(|(_, s)| s.announced)
            .map(|(&id, _)| id)
            .collect()
    }

    /// A copy of the merged global synopsis of one stream (sum of every
    /// site's contribution), if any site has reported it.
    pub fn merged_synopsis(&self, stream: StreamId) -> Option<SketchVector> {
        self.state.lock().store.engine.synopsis(stream).cloned()
    }

    /// One site's health, if the coordinator has heard of it.
    pub fn site_status(&self, site: SiteId) -> Option<SiteStatus> {
        let st = self.state.lock();
        st.sites.get(&site).map(|s| SiteStatus {
            site,
            announced_epoch: s.announced_epoch,
            commit_epoch: s.commit_epoch,
            quarantined: s.quarantined,
            needs_resync: s.needs_resync,
            wire_failures: s.wire_failures,
        })
    }

    /// Collection-wide health counters.
    pub fn health(&self) -> CollectionHealth {
        self.state.lock().health()
    }

    /// Force a site into quarantine without waiting for wire failures to
    /// accumulate. The transport layer uses this when a peer wedges (e.g.
    /// a slow consumer overflowing its send window): rather than letting
    /// queues grow, the server drops the connection and quarantines the
    /// site so siblings keep collecting. [`Coordinator::release_quarantine`]
    /// lifts it once the peer behaves again.
    pub fn quarantine(&self, site: SiteId) {
        let mut st = self.state.lock();
        let entry = st.sites.entry(site).or_default();
        if !entry.quarantined {
            self.metrics.quarantines.inc();
        }
        entry.quarantined = true;
    }

    /// Lift a site's quarantine and reset its failure counter (after the
    /// operator has dealt with the cause, or when the transport handler
    /// sees the quarantined site's retried `Hello`). The
    /// site's next frames are accepted again; its watermark state is
    /// untouched.
    pub fn release_quarantine(&self, site: SiteId) {
        let mut st = self.state.lock();
        if let Some(entry) = st.sites.get_mut(&site) {
            if entry.quarantined {
                self.metrics.quarantine_releases.inc();
            }
            entry.quarantined = false;
            entry.wire_failures = 0;
        }
    }

    /// Register a standing query on the store (see
    /// [`StreamEngine::subscribe`]); it is re-estimated whenever a
    /// committed change touches one of its streams.
    ///
    /// # Errors
    /// See [`StreamEngine::subscribe`].
    pub fn subscribe(
        &self,
        expr: SetExpr,
        options: SubscriptionOptions,
    ) -> Result<SubscriptionId, EngineError> {
        self.state.lock().store.engine.subscribe(expr, options)
    }

    /// Close a subscription round over committed state: re-estimate the
    /// subscriptions over streams committed since the previous round and
    /// return their notifications (see [`StreamEngine::publish_epoch`]).
    pub fn publish_epoch(&self) -> Vec<ChangeEvent> {
        self.state.lock().store.engine.publish_epoch()
    }

    /// Read the store's engine under the state lock — its metrics, its
    /// subscriptions, or a [`StreamEngine::evaluate`] over committed
    /// state. Frames wait while `f` runs, so keep it short.
    pub fn with_engine<R>(&self, f: impl FnOnce(&StreamEngine) -> R) -> R {
        f(&self.state.lock().store.engine)
    }

    /// Answer `|E|` and annotate the answer with per-stream staleness
    /// and collection health — the graceful-degradation contract: the
    /// answer is always served from the freshest merged state available,
    /// and the caller can see exactly how stale that is.
    pub fn query(&self, expr: &SetExpr) -> Result<AnnotatedEstimate, CoordinatorError> {
        let st = self.state.lock();
        let mut staleness = Vec::new();
        let mut lineage = Vec::new();
        for id in expr.streams() {
            if st.store.engine.synopsis(id).is_none() {
                return Err(CoordinatorError::UnknownStream(id));
            }
            staleness.push(st.staleness_of(id));
            // The witness: exactly which per-site epochs the merged vector
            // for this stream contains.
            for (&site, s) in &st.sites {
                if s.contributions.contains_key(&id) {
                    lineage.push(EpochWitness {
                        stream: id.0,
                        site,
                        epoch: s.watermarks.get(&id).copied().unwrap_or(0),
                    });
                }
            }
        }
        let estimate = st.store.engine.evaluate(expr).map_err(CoordinatorError::Estimate)?;
        self.metrics.queries.inc();
        Ok(AnnotatedEstimate {
            estimate,
            staleness,
            health: st.health(),
            lineage,
        })
    }
}

impl MetricSource for Coordinator {
    /// Counter samples plus gauges derived from coordinator state at
    /// scrape time (never maintained on the hot path): announced-site
    /// counts, and per-site commit epoch / epoch lag behind the most
    /// advanced site.
    fn collect(&self, out: &mut Vec<Sample>) {
        self.metrics.collect_counters(out);
        self.lineage.collect(out);
        let st = self.state.lock();
        let health = st.health();
        out.push(
            Sample::gauge("setstream_distributed_sites", health.sites as i64)
                .with_help("Sites announced to the coordinator"),
        );
        out.push(
            Sample::gauge(
                "setstream_distributed_sites_quarantined",
                health.quarantined as i64,
            )
            .with_help("Sites quarantined after repeated wire failures"),
        );
        out.push(
            Sample::gauge(
                "setstream_distributed_sites_lagging",
                health.lagging as i64,
            )
            .with_help("Sites lagging behind the collection watermark"),
        );
        out.push(
            Sample::gauge(
                "setstream_distributed_sites_resync_pending",
                health.resync_pending as i64,
            )
            .with_help("Sites awaiting a full resynchronization"),
        );
        let max_commit = st
            .sites
            .values()
            .map(|s| s.commit_epoch)
            .max()
            .unwrap_or(0);
        for (site, s) in &st.sites {
            let label = site.to_string();
            out.push(
                Sample::gauge(
                    "setstream_distributed_site_commit_epoch",
                    s.commit_epoch as i64,
                )
                .with_label("site", &label)
                .with_help("Last epoch durably committed by the site"),
            );
            out.push(
                Sample::gauge(
                    "setstream_distributed_site_epoch_lag",
                    (max_commit - s.commit_epoch) as i64,
                )
                .with_label("site", &label)
                .with_help("Epochs behind the most advanced site"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::wire::FrameKind;
    use setstream_core::{estimate, EstimatorOptions};
    use setstream_stream::Update;

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(64)
            .second_level(8)
            .seed(2024)
            .build()
    }

    fn deliver(site: &mut Site, coord: &Coordinator) {
        for frame in site.cut_epoch().unwrap().frames {
            coord.ingest_frame(&frame).unwrap();
        }
    }

    #[test]
    fn merged_synopsis_equals_single_site() {
        let fam = family();
        // Split one logical stream across two sites.
        let mut s1 = Site::new(1, fam);
        let mut s2 = Site::new(2, fam);
        let mut all = Site::new(3, fam);
        for e in 0..1000u64 {
            let u = Update::insert(StreamId(0), e, 1);
            if e % 2 == 0 {
                s1.observe(&u);
            } else {
                s2.observe(&u);
            }
            all.observe(&u);
        }
        let coord = Coordinator::new(fam);
        deliver(&mut s1, &coord);
        deliver(&mut s2, &coord);
        let merged = coord
            .query(&SetExpr::stream(0))
            .unwrap()
            .estimate
            .value;
        // Ground truth comparison: the single-site synopsis, pushed through
        // the same query path, gives the exact same estimate (identical
        // counters ⇒ identical estimate).
        let direct = estimate::expression(
            &SetExpr::stream(0),
            &[(StreamId(0), all.synopsis(StreamId(0)).unwrap())],
            &EstimatorOptions::default(),
        )
        .unwrap()
        .value;
        assert_eq!(merged, direct);
    }

    #[test]
    fn expression_queries_over_sites() {
        let fam = family();
        let mut site = Site::new(1, fam);
        // A = 0..2000, B = 1000..3000 → |A∩B| = 1000.
        for e in 0..2000u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        for e in 1000..3000u64 {
            site.observe(&Update::insert(StreamId(1), e, 1));
        }
        let coord = Coordinator::new(fam);
        deliver(&mut site, &coord);
        let est = coord
            .query(&"A & B".parse().unwrap())
            .unwrap()
            .estimate;
        let rel = (est.value - 1000.0).abs() / 1000.0;
        assert!(rel < 0.4, "estimate {}", est.value);
    }

    #[test]
    fn repeated_cumulative_snapshots_replace_not_double_count() {
        // Regression for the periodic-collection footgun: a site that
        // ships its (growing) cumulative synopsis twice, as two resyncs,
        // must contribute its traffic exactly once.
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        let resync = |site: &mut Site| {
            let _ = site.cut_epoch().unwrap(); // cut, but never delivered
            for frame in site.resync_frames().unwrap() {
                coord.ingest_frame(&frame).unwrap();
            }
        };
        for e in 0..1500u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        resync(&mut site); // first cumulative synopsis
        for e in 1500..2000u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        resync(&mut site); // second cumulative synopsis of the SAME site

        let est = coord.query(&SetExpr::stream(0)).unwrap().estimate.value;
        let direct = estimate::expression(
            &SetExpr::stream(0),
            &[(StreamId(0), site.synopsis(StreamId(0)).unwrap())],
            &EstimatorOptions::default(),
        )
        .unwrap()
        .value;
        assert_eq!(
            est, direct,
            "second snapshot must replace the first, not merge on top of it"
        );
    }

    #[test]
    fn dirty_streams_drain_once_per_collection_round() {
        // A subscription round re-estimates only the roots over streams
        // committed since the previous round.
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        let options = SubscriptionOptions::builder().build().unwrap();
        for text in ["A", "D", "A | D", "B"] {
            coord.subscribe(text.parse().unwrap(), options).unwrap();
        }
        let evaluated = || coord.with_engine(|e| e.subscription_metrics().nodes_evaluated.get());
        let round = |frames: &[Bytes]| {
            for frame in frames {
                let _ = coord.ingest_frame(frame);
            }
            let before = evaluated();
            coord.publish_epoch();
            evaluated() - before
        };
        assert_eq!(round(&[]), 4, "the first round evaluates every root");
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site.observe(&Update::insert(StreamId(3), 2, 1));
        assert_eq!(round(&site.cut_epoch().unwrap().frames), 3, "A, D and A | D");
        // Drained: a round with no new commits re-estimates nothing.
        assert_eq!(round(&[]), 0);
        // Epoch cuts ship deltas only for changed streams, so only the
        // roots over the touched stream come back dirty.
        site.observe(&Update::insert(StreamId(3), 9, 1));
        let cut = site.cut_epoch().unwrap();
        assert_eq!(round(&cut.frames), 2, "D and A | D");
        // A refused duplicate commits nothing.
        assert_eq!(round(&cut.frames), 0);
    }

    #[test]
    fn coin_mismatch_is_rejected() {
        let coord = Coordinator::new(family());
        let other = SketchFamily::builder().copies(64).seed(999).build();
        let mut site = Site::new(5, other);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let frames = site.cut_epoch().unwrap().frames;
        let err = coord.ingest_frame(&frames[0]).unwrap_err();
        assert!(matches!(err, CoordinatorError::CoinMismatch { site: 5 }));
    }

    #[test]
    fn unknown_stream_query_errors() {
        let coord = Coordinator::new(family());
        let err = coord
            .query(&"A & B".parse().unwrap())
            .unwrap_err();
        assert!(matches!(err, CoordinatorError::UnknownStream(StreamId(0))));
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let fam = family();
        let mut site = Site::new(1, fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let frames = site.cut_epoch().unwrap().frames;
        let mut bad = frames[1].to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        let err = Coordinator::new(fam).ingest_frame(&Bytes::from(bad)).unwrap_err();
        assert!(matches!(err, CoordinatorError::Wire(_)));
    }

    #[test]
    fn concurrent_ingestion_from_many_sites() {
        let fam = family();
        let coord = std::sync::Arc::new(Coordinator::new(fam));
        let mut site_frames = Vec::new();
        for sid in 0..8u32 {
            let mut site = Site::new(sid, fam);
            for e in 0..500u64 {
                site.observe(&Update::insert(StreamId(0), (sid as u64) * 500 + e, 1));
            }
            site_frames.push(site.cut_epoch().unwrap().frames);
        }
        crossbeam::thread::scope(|scope| {
            for frames in &site_frames {
                let coord = coord.clone();
                scope.spawn(move |_| {
                    for f in frames {
                        coord.ingest_frame(f).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(coord.sites().len(), 8);
        let est = coord.query(&SetExpr::stream(0)).unwrap().estimate.value;
        let rel = (est - 4000.0).abs() / 4000.0;
        assert!(rel < 0.3, "estimate {est}");
    }

    fn deliver_cut(cut: &crate::site::EpochCut, coord: &Coordinator) {
        for frame in &cut.frames {
            coord.ingest_frame(frame).unwrap();
        }
    }

    #[test]
    fn epoch_deltas_accumulate_and_duplicates_are_typed_rejections() {
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        for e in 0..600u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let first = site.cut_epoch().unwrap();
        deliver_cut(&first, &coord);
        for e in 600..900u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let second = site.cut_epoch().unwrap();
        deliver_cut(&second, &coord);

        // Merged state equals the site's cumulative synopsis exactly.
        let merged = coord.merged_synopsis(StreamId(0)).unwrap();
        for (m, s) in merged
            .sketches()
            .iter()
            .zip(site.synopsis(StreamId(0)).unwrap().sketches())
        {
            assert_eq!(m.counters(), s.counters());
        }

        // Re-delivering epoch 2's delta is a typed StaleEpoch rejection.
        let delta_frame = &second.frames[1];
        match coord.ingest_frame(delta_frame) {
            Err(CoordinatorError::StaleEpoch { have: 2, got: 2, .. }) => {}
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        // And the merged state is unchanged.
        let after = coord.merged_synopsis(StreamId(0)).unwrap();
        for (a, b) in after.sketches().iter().zip(merged.sketches()) {
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    fn epoch_gap_is_rejected_and_flags_resync() {
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let first = site.cut_epoch().unwrap();
        deliver_cut(&first, &coord);

        // Epoch 2 is lost entirely; epoch 3 arrives chaining from 2.
        site.observe(&Update::insert(StreamId(0), 2, 1));
        let _lost = site.cut_epoch().unwrap();
        site.observe(&Update::insert(StreamId(0), 3, 1));
        let third = site.cut_epoch().unwrap();
        let delta = &third.frames[1];
        match coord.ingest_frame(delta) {
            Err(CoordinatorError::EpochGap {
                expected_prev: 1,
                got_prev: 2,
                epoch: 3,
                ..
            }) => {}
            other => panic!("expected EpochGap, got {other:?}"),
        }
        assert!(coord.site_status(1).unwrap().needs_resync);

        // The resync heals it: contribution replaced, watermark realigned.
        for f in site.resync_frames().unwrap() {
            coord.ingest_frame(&f).unwrap();
        }
        assert!(!coord.site_status(1).unwrap().needs_resync);
        let merged = coord.merged_synopsis(StreamId(0)).unwrap();
        for (m, s) in merged
            .sketches()
            .iter()
            .zip(site.synopsis(StreamId(0)).unwrap().sketches())
        {
            assert_eq!(m.counters(), s.counters());
        }
        // And the chain continues: epoch 4 applies cleanly.
        site.observe(&Update::insert(StreamId(0), 4, 1));
        let fourth = site.cut_epoch().unwrap();
        deliver_cut(&fourth, &coord);
        assert_eq!(
            coord
                .merged_synopsis(StreamId(0))
                .unwrap()
                .sketches()[0]
                .total_count(),
            4
        );
    }

    #[test]
    fn stale_restore_is_flagged_on_hello() {
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let first = site.cut_epoch().unwrap();
        let wal = first.checkpoint.clone();
        deliver_cut(&first, &coord);
        site.observe(&Update::insert(StreamId(0), 2, 1));
        deliver_cut(&site.cut_epoch().unwrap(), &coord);
        assert_eq!(coord.site_status(1).unwrap().commit_epoch, 2);

        // The site comes back from the epoch-1 checkpoint: its hello
        // announces resume_epoch 1 < commit 2 → resync flagged.
        let restored = Site::restore_from_bytes(&wal).unwrap();
        coord.ingest_frame(&restored.hello_frame().unwrap()).unwrap();
        assert!(coord.site_status(1).unwrap().needs_resync);
    }

    #[test]
    fn repeated_wire_failures_quarantine_and_release_recovers() {
        let fam = family();
        let mut site = Site::new(4, fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let frames = site.cut_epoch().unwrap().frames;
        let coord = Coordinator::new(fam).with_quarantine_after(3);

        let mut corrupt = frames[1].to_vec();
        corrupt[frames[1].len() / 2] ^= 0xff;
        let corrupt = Bytes::from(corrupt);
        for _ in 0..3 {
            assert!(matches!(
                coord.ingest_frame_from(4, &corrupt),
                Err(CoordinatorError::Wire(_))
            ));
        }
        // Quarantined now: even pristine frames are refused.
        assert!(coord.site_status(4).unwrap().quarantined);
        assert!(matches!(
            coord.ingest_frame_from(4, &frames[1]),
            Err(CoordinatorError::Quarantined { site: 4 })
        ));
        assert_eq!(coord.health().quarantined, 1);

        // Release → the site works again.
        coord.release_quarantine(4);
        coord.ingest_frame_from(4, &frames[1]).unwrap();
        assert_eq!(coord.health().quarantined, 0);
    }

    #[test]
    fn queries_survive_partial_failure_with_staleness_annotation() {
        let fam = family();
        let coord = Coordinator::new(fam).with_quarantine_after(1);
        let mut healthy = Site::new(1, fam);
        let mut flaky = Site::new(2, fam);
        for e in 0..800u64 {
            healthy.observe(&Update::insert(StreamId(0), e, 1));
            flaky.observe(&Update::insert(StreamId(0), e + 400, 1));
        }
        // Both sites deliver epoch 1.
        for cut in [healthy.cut_epoch().unwrap(), flaky.cut_epoch().unwrap()] {
            for f in &cut.frames {
                coord.ingest_frame(f).unwrap();
            }
        }
        // Flaky site advances but only garbage arrives → quarantined.
        flaky.observe(&Update::insert(StreamId(0), 9999, 1));
        coord.ingest_frame_from(2, &Bytes::from_static(b"garbage")).unwrap_err();
        assert!(coord.site_status(2).unwrap().quarantined);
        // Healthy site keeps going.
        healthy.observe(&Update::insert(StreamId(0), 5000, 1));
        let cut = healthy.cut_epoch().unwrap();
        for f in &cut.frames {
            coord.ingest_frame_from(1, f).unwrap();
        }

        let annotated = coord
            .query(&"A".parse().unwrap())
            .unwrap();
        assert_eq!(annotated.health.quarantined, 1);
        assert_eq!(annotated.staleness.len(), 1);
        let s = annotated.staleness[0];
        assert_eq!(s.reporting_sites, 2);
        assert_eq!(s.oldest_epoch, 1, "flaky site is one epoch behind");
        assert_eq!(s.newest_epoch, 2);
        assert!(annotated.estimate.value > 0.0);
    }

    #[test]
    fn metrics_count_verdicts_and_transitions() {
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam).with_quarantine_after(2);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let first = site.cut_epoch().unwrap();
        deliver_cut(&first, &coord);
        let m = coord.metrics();
        // hello + one delta + commit accepted.
        assert_eq!(m.frames_for(FrameKind::Hello), 1);
        assert_eq!(m.frames_for(FrameKind::Delta), 1);
        assert_eq!(m.frames_for(FrameKind::Commit), 1);
        assert_eq!(m.rejections_total(), 0);

        // Replay the delta: typed stale_epoch rejection.
        coord.ingest_frame(&first.frames[1]).unwrap_err();
        assert_eq!(m.rejections_for("stale_epoch"), 1);

        // A lost epoch makes the next delta a gap → resync flagged, and
        // the cumulative resync heals it.
        site.observe(&Update::insert(StreamId(0), 2, 1));
        let _lost = site.cut_epoch().unwrap();
        site.observe(&Update::insert(StreamId(0), 3, 1));
        let third = site.cut_epoch().unwrap();
        coord.ingest_frame(&third.frames[1]).unwrap_err();
        assert_eq!(m.rejections_for("epoch_gap"), 1);
        assert_eq!(m.resync_flags.get(), 1);
        for f in site.resync_frames().unwrap() {
            coord.ingest_frame(&f).unwrap();
        }
        assert_eq!(m.resyncs_healed.get(), 1);

        // Two corrupt frames trip quarantine; release pairs with it.
        let mut bad = first.frames[1].to_vec();
        bad[10] ^= 0xff;
        let bad = Bytes::from(bad);
        coord.ingest_frame_from(1, &bad).unwrap_err();
        coord.ingest_frame_from(1, &bad).unwrap_err();
        assert_eq!(m.quarantines.get(), 1);
        assert_eq!(m.rejections_for("wire"), 2);
        coord.ingest_frame_from(1, &first.frames[0]).unwrap_err();
        assert_eq!(m.rejections_for("quarantined"), 1);
        coord.release_quarantine(1);
        assert_eq!(m.quarantine_releases.get(), 1);

        // Queries are counted, and the exporter surface carries both the
        // counters and the state-derived gauges.
        let _ = coord.query(&"A".parse().unwrap()).unwrap();
        assert_eq!(m.queries.get(), 1);
        let mut samples = Vec::new();
        coord.collect(&mut samples);
        let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"setstream_distributed_frames_total"));
        assert!(names.contains(&"setstream_distributed_frames_rejected_total"));
        assert!(names.contains(&"setstream_distributed_sites"));
        assert!(names.contains(&"setstream_distributed_site_commit_epoch"));
        // The lineage ring exports through the same source.
        assert!(names.contains(&"setstream_lineage_retained"));
        assert!(names.contains(&"setstream_lineage_dropped_total"));
    }

    #[test]
    fn lineage_follows_cut_to_commit_and_names_retransmitters() {
        use setstream_obs::RingRecorder;

        let fam = family();
        let recorder = std::sync::Arc::new(RingRecorder::new(64));
        let trace = TraceHandle::new(recorder.clone());
        let mut site = Site::new(7, fam);
        site.set_trace(trace.clone());
        let coord = Coordinator::new(fam).with_trace(trace, "coordinator");

        site.observe(&Update::insert(StreamId(0), 1, 1));
        let cut = site.cut_epoch().unwrap();
        deliver_cut(&cut, &coord);

        let entries = coord.lineage().query(Some(0), Some(1));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.sites, vec![7]);
        assert_eq!(e.fanin, 1);
        assert_ne!(e.trace_id, 0, "trace id travels in the frame extension");
        assert!(e.cut_ns > 0);
        assert!(e.is_committed());
        assert!(e.commit_ns >= e.cut_ns, "cut→commit latency is non-negative");

        // A relay would pick the stream's context up from here.
        let ctx = coord.stream_context(StreamId(0)).unwrap();
        assert_eq!(ctx.trace.trace_id, e.trace_id);

        // Replaying the delta is a StaleEpoch — lineage names the
        // retransmitting site.
        coord.ingest_frame(&cut.frames[1]).unwrap_err();
        let e = &coord.lineage().query(Some(0), Some(1))[0];
        assert_eq!(e.retransmits, 1);
        assert_eq!(e.retransmit_sites, vec![7]);

        // And the span ring holds cut → merge → commit in ONE trace, with
        // the merge parented on the originating cut span.
        let events = recorder.events();
        let cut_span = events.iter().find(|e| e.name == "site.cut_epoch").unwrap();
        assert!(events.iter().any(|e| e.name == "collect.merge"
            && e.trace_id == cut_span.trace_id
            && e.parent_id == cut_span.id));
        assert!(events
            .iter()
            .any(|e| e.name == "collect.commit" && e.trace_id == cut_span.trace_id));
    }

    #[test]
    fn untraced_frames_still_populate_lineage() {
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        deliver_cut(&site.cut_epoch().unwrap(), &coord);
        let entries = coord.lineage().snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].trace_id, 0);
        assert_eq!(entries[0].cut_ns, 0, "no extension, no cut timestamp");
        assert!(entries[0].is_committed());
        assert!(coord.stream_context(StreamId(0)).is_none());
    }

    /// The store's invariant, checked against a from-scratch sum of the
    /// per-site contributions: equal cells and an equal occupancy
    /// summary in every copy.
    fn assert_store_is_the_sum(coord: &Coordinator, streams: u32) -> Result<(), String> {
        let st = coord.state.lock();
        for stream in (0..streams).map(StreamId) {
            let mut sum: Option<SketchVector> = None;
            for site in st.sites.values() {
                if let Some(contribution) = site.contributions.get(&stream) {
                    match sum.as_mut() {
                        None => sum = Some(contribution.clone()),
                        Some(s) => s.merge_from(contribution).unwrap(),
                    }
                }
            }
            let store = st.store.engine.synopsis(stream);
            let (store, sum) = match (store, &sum) {
                (None, None) => continue,
                (Some(store), Some(sum)) => (store, sum),
                (store, _) => {
                    return Err(format!(
                        "stream {stream}: store present {}, sum present {}",
                        store.is_some(),
                        sum.is_some()
                    ))
                }
            };
            for (k, (a, b)) in store.sketches().iter().zip(sum.sketches()).enumerate() {
                let same = a.counters() == b.counters()
                    && a.total_count() == b.total_count()
                    && a.occupied_levels() == b.occupied_levels()
                    && a.multi_levels() == b.multi_levels()
                    && a.row_mask() == b.row_mask()
                    && (0..a.levels()).all(|l| a.sign_words(l) == b.sign_words(l));
                if !same {
                    return Err(format!("stream {stream} copy {k}: store differs from the sum"));
                }
            }
        }
        Ok(())
    }

    #[derive(Debug, Clone)]
    enum StoreOp {
        Observe { site: usize, stream: u32, element: u64, insert: bool },
        /// Cut an epoch and deliver its frames; `keep` drops some (a gap
        /// when a delta goes missing).
        Cut { site: usize, keep: u8 },
        /// Re-deliver the site's last cut (duplicates).
        Replay { site: usize },
        /// Ship the site's cumulative resync (replacing snapshots).
        Resync { site: usize },
        /// Restore the site from its last checkpoint and deliver its
        /// hello (a stale restore once it has cut since).
        Crash { site: usize },
        Quarantine { site: usize },
        Release { site: usize },
    }

    fn store_op(sites: usize, streams: u32) -> impl proptest::strategy::Strategy<Value = StoreOp> {
        use proptest::prelude::*;
        prop_oneof![
            (0..sites, 0..streams, 0u64..64, any::<bool>()).prop_map(
                |(site, stream, element, insert)| StoreOp::Observe { site, stream, element, insert }
            ),
            (0..sites, any::<u8>()).prop_map(|(site, keep)| StoreOp::Cut { site, keep }),
            (0..sites).prop_map(|site| StoreOp::Replay { site }),
            (0..sites).prop_map(|site| StoreOp::Resync { site }),
            (0..sites).prop_map(|site| StoreOp::Crash { site }),
            (0..sites).prop_map(|site| StoreOp::Quarantine { site }),
            (0..sites).prop_map(|site| StoreOp::Release { site }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn store_equals_the_sum_of_contributions_after_every_frame(
            ops in proptest::collection::vec(store_op(3, 3), 1..80),
        ) {
            let fam = SketchFamily::builder().copies(4).second_level(4).seed(77).build();
            let coord = Coordinator::new(fam);
            let mut sites: Vec<Site> = (0..3).map(|i| Site::new(i, fam)).collect();
            let mut last_cut: Vec<Vec<Bytes>> = vec![Vec::new(); 3];
            let mut checkpoints: Vec<Option<Vec<u8>>> = vec![None; 3];
            use proptest::prelude::TestCaseError;
            let deliver = |site: usize, frames: &[Bytes]| -> Result<(), TestCaseError> {
                for frame in frames {
                    let _ = coord.ingest_frame_from(site as SiteId, frame);
                    assert_store_is_the_sum(&coord, 3).map_err(TestCaseError::fail)?;
                }
                Ok(())
            };
            for op in ops {
                match op {
                    StoreOp::Observe { site, stream, element, insert } => {
                        let u = if insert {
                            Update::insert(StreamId(stream), element, 1)
                        } else {
                            Update::delete(StreamId(stream), element, 1)
                        };
                        sites[site].observe(&u);
                    }
                    StoreOp::Cut { site, keep } => {
                        let cut = sites[site].cut_epoch().unwrap();
                        checkpoints[site] = Some(cut.checkpoint);
                        let kept: Vec<Bytes> = cut
                            .frames
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| keep >> (i % 8) & 1 == 1 || keep < 64)
                            .map(|(_, f)| f.clone())
                            .collect();
                        deliver(site, &kept)?;
                        last_cut[site] = cut.frames;
                    }
                    StoreOp::Replay { site } => deliver(site, &last_cut[site].clone())?,
                    StoreOp::Resync { site } => {
                        deliver(site, &sites[site].resync_frames().unwrap())?;
                    }
                    StoreOp::Crash { site } => {
                        if let Some(wal) = &checkpoints[site] {
                            sites[site] = Site::restore_from_bytes(wal).unwrap();
                            deliver(site, &[sites[site].hello_frame().unwrap()])?;
                        }
                    }
                    StoreOp::Quarantine { site } => coord.quarantine(site as SiteId),
                    StoreOp::Release { site } => coord.release_quarantine(site as SiteId),
                }
            }
        }
    }

    #[test]
    fn query_lineage_witness_names_contributing_epochs() {
        let fam = family();
        let coord = Coordinator::new(fam);
        let mut s1 = Site::new(1, fam);
        let mut s2 = Site::new(2, fam);
        s1.observe(&Update::insert(StreamId(0), 1, 1));
        s2.observe(&Update::insert(StreamId(0), 2, 1));
        deliver_cut(&s1.cut_epoch().unwrap(), &coord);
        deliver_cut(&s2.cut_epoch().unwrap(), &coord);
        // Site 1 advances one epoch further: the witness must show the
        // per-site watermarks the merged answer actually contains.
        s1.observe(&Update::insert(StreamId(0), 3, 1));
        deliver_cut(&s1.cut_epoch().unwrap(), &coord);

        let ann = coord.query(&"A".parse().unwrap()).unwrap();
        assert_eq!(
            ann.lineage(),
            &[
                EpochWitness { stream: 0, site: 1, epoch: 2 },
                EpochWitness { stream: 0, site: 2, epoch: 1 },
            ]
        );
    }
}
