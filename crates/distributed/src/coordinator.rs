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
//! Thread-safe: sites may deliver frames concurrently (ingestion takes a
//! short [`parking_lot::Mutex`] critical section per frame), while queries
//! snapshot under the same lock. Linearity of the sketches guarantees the
//! merged synopsis equals a single-site synopsis of the combined traffic,
//! regardless of delivery order.

use crate::metrics::CoordinatorMetrics;
use crate::site::{Epoch, SiteId};
use crate::wire::{self, DecodedFrame, FrameContext, Message, WireError};
use bytes::Bytes;
use parking_lot::Mutex;
use setstream_core::{
    estimate, EpochWitness, Estimate, EstimateError, EstimatorOptions, SketchFamily,
    SketchVector,
};
use setstream_expr::SetExpr;
use setstream_hash::clock;
use setstream_obs::{LineageRing, MetricSource, Sample, TraceHandle};
use setstream_stream::StreamId;
use std::collections::{BTreeMap, BTreeSet};
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
    /// A synopsis arrived that is incompatible with the family.
    Estimate(EstimateError),
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
    /// `true` for the epoch-accounting rejections that a cumulative
    /// resync from the site will heal (retransmitting the same frame
    /// cannot).
    pub fn wants_resync(&self) -> bool {
        matches!(
            self,
            CoordinatorError::StaleEpoch { .. } | CoordinatorError::EpochGap { .. }
        )
    }

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
            CoordinatorError::Estimate(e) => write!(f, "estimation error: {e}"),
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
        CoordinatorError::Estimate(e)
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

#[derive(Default)]
struct State {
    /// Per-site bookkeeping (watermarks, contributions, quarantine).
    sites: BTreeMap<SiteId, SiteState>,
    /// Frames ingested (diagnostics).
    frames: u64,
    /// Streams whose merged synopsis changed since the last drain —
    /// the delta-frame feed for an engine's subscription dirty set.
    dirty: BTreeSet<StreamId>,
    /// The last trace context applied per stream — what a relay re-ships
    /// upstream so one trace spans site → relay → root coordinator.
    stream_ctx: BTreeMap<StreamId, FrameContext>,
}

impl State {
    fn merged_vector(&self, stream: StreamId) -> Option<SketchVector> {
        let mut merged: Option<SketchVector> = None;
        for st in self.sites.values() {
            if let Some(contribution) = st.contributions.get(&stream) {
                match merged.as_mut() {
                    None => merged = Some(contribution.clone()),
                    Some(m) => m
                        .merge_from(contribution)
                        // analyze: allow(panic) — every stored contribution passed family validation on ingest
                        .expect("contributions validated on ingest"),
                }
            }
        }
        merged
    }

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

/// Epoch-lineage entries a coordinator retains by default — enough for
/// hundreds of sites over many collection rounds while bounding memory.
const DEFAULT_LINEAGE_CAPACITY: usize = 1024;

/// The query-processing coordinator.
pub struct Coordinator {
    family: SketchFamily,
    options: EstimatorOptions,
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
            options: EstimatorOptions::default(),
            quarantine_after: 8,
            state: Mutex::new(State::default()),
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

    /// Override the estimator options used for queries.
    pub fn with_options(mut self, options: EstimatorOptions) -> Self {
        options.validate();
        self.options = options;
        self
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
    /// track `track` (e.g. `coordinator`, `relay-2`). Frames carrying a
    /// trace-context extension produce *child* spans of the originating
    /// site cut, so one trace id follows an epoch across processes.
    pub fn with_trace(mut self, trace: TraceHandle, track: impl Into<String>) -> Self {
        self.trace = trace;
        self.track = track.into();
        self
    }

    /// Override how many `(stream, epoch)` lineage entries the provenance
    /// ring retains (default 1024; minimum 1). Evictions are counted in
    /// `setstream_lineage_dropped_total`.
    pub fn with_lineage_capacity(mut self, capacity: usize) -> Self {
        self.lineage = Arc::new(LineageRing::new(capacity));
        self
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
                st.frames += 1;
                let entry = st.sites.entry(hello.site).or_default();
                entry.announced = true;
                entry.announced_epoch = hello.resume_epoch;
                if hello.resume_epoch < entry.commit_epoch {
                    // The site restored from a checkpoint older than what
                    // we already applied — its epoch numbering is about to
                    // collide with history. Only a cumulative resync can
                    // realign it.
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
                let mut st = self.state.lock();
                st.frames += 1;
                let entry = st.sites.entry(msg.site).or_default();
                if entry.quarantined {
                    return Err(CoordinatorError::Quarantined { site: msg.site });
                }
                let watermark = entry.watermarks.get(&msg.stream).copied().unwrap_or(0);
                if msg.epoch < watermark {
                    drop(st);
                    self.lineage
                        .record_retransmit(msg.stream.0, msg.epoch, msg.site);
                    return Err(CoordinatorError::StaleEpoch {
                        site: msg.site,
                        stream: msg.stream,
                        have: watermark,
                        got: msg.epoch,
                    });
                }
                // Cumulative snapshot: REPLACE the previous contribution.
                // Re-merging it would double-count all prior traffic.
                entry.contributions.insert(msg.stream, msg.vector);
                entry.watermarks.insert(msg.stream, msg.epoch);
                if entry.needs_resync {
                    self.metrics.resyncs_healed.inc();
                }
                entry.needs_resync = false;
                st.dirty.insert(msg.stream);
                if let Some(c) = ctx {
                    st.stream_ctx.insert(msg.stream, c);
                }
                drop(st);
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
                let mut st = self.state.lock();
                st.frames += 1;
                let entry = st.sites.entry(msg.site).or_default();
                if entry.quarantined {
                    return Err(CoordinatorError::Quarantined { site: msg.site });
                }
                let watermark = entry.watermarks.get(&msg.stream).copied().unwrap_or(0);
                if msg.epoch <= watermark {
                    drop(st);
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
                match entry.contributions.get_mut(&msg.stream) {
                    Some(existing) => existing.merge_from(&msg.vector)?,
                    None => {
                        entry.contributions.insert(msg.stream, msg.vector);
                    }
                }
                entry.watermarks.insert(msg.stream, msg.epoch);
                st.dirty.insert(msg.stream);
                if let Some(c) = ctx {
                    st.stream_ctx.insert(msg.stream, c);
                }
                drop(st);
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
                st.frames += 1;
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
            Message::Flush => {
                self.state.lock().frames += 1;
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
        let st = self.state.lock();
        let mut out: Vec<StreamId> = Vec::new();
        for site in st.sites.values() {
            for &stream in site.contributions.keys() {
                if !out.contains(&stream) {
                    out.push(stream);
                }
            }
        }
        out.sort_unstable_by_key(|s| s.0);
        out
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

    /// Total frames ingested.
    pub fn frames_ingested(&self) -> u64 {
        self.state.lock().frames
    }

    /// The merged global synopsis of one stream (sum of every site's
    /// contribution), if any site has reported it.
    pub fn merged_synopsis(&self, stream: StreamId) -> Option<SketchVector> {
        self.state.lock().merged_vector(stream)
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
    /// operator or the collection driver has dealt with the cause). The
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

    /// Streams whose merged synopsis changed since the previous drain.
    /// Pairs with `StreamEngine::note_dirty`: a relay that forwards
    /// coordinator state into a local engine calls this once per round
    /// so subscription epochs re-estimate only what the sites touched.
    pub fn drain_dirty_streams(&self) -> Vec<StreamId> {
        let mut st = self.state.lock();
        std::mem::take(&mut st.dirty).into_iter().collect()
    }

    /// Answer `|E|` and annotate the answer with per-stream staleness
    /// and collection health — the graceful-degradation contract: the
    /// answer is always served from the freshest merged state available,
    /// and the caller can see exactly how stale that is.
    pub fn query(&self, expr: &SetExpr) -> Result<AnnotatedEstimate, CoordinatorError> {
        let st = self.state.lock();
        let mut merged: Vec<(StreamId, SketchVector)> = Vec::new();
        let mut staleness = Vec::new();
        let mut lineage = Vec::new();
        for id in expr.streams() {
            let v = st
                .merged_vector(id)
                .ok_or(CoordinatorError::UnknownStream(id))?;
            merged.push((id, v));
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
        let pairs: Vec<(StreamId, &SketchVector)> =
            merged.iter().map(|(id, v)| (*id, v)).collect();
        let estimate = estimate::expression(expr, &pairs, &self.options)?;
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
    use setstream_stream::Update;

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(64)
            .second_level(8)
            .seed(2024)
            .build()
    }

    fn deliver(site: &Site, coord: &Coordinator) {
        for frame in site.snapshot_frames().unwrap() {
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
        deliver(&s1, &coord);
        deliver(&s2, &coord);
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
        deliver(&site, &coord);
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
        // ships its (growing) cumulative snapshot twice must contribute
        // its traffic exactly once.
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        for e in 0..1500u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        deliver(&site, &coord); // first periodic snapshot
        for e in 1500..2000u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        deliver(&site, &coord); // second periodic snapshot of the SAME site

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
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Coordinator::new(fam);
        assert!(coord.drain_dirty_streams().is_empty());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site.observe(&Update::insert(StreamId(3), 2, 1));
        for frame in site.cut_epoch().unwrap().frames {
            coord.ingest_frame(&frame).unwrap();
        }
        assert_eq!(
            coord.drain_dirty_streams(),
            vec![StreamId(0), StreamId(3)]
        );
        // Drained: a second drain with no new frames reports nothing.
        assert!(coord.drain_dirty_streams().is_empty());
        // Epoch cuts ship deltas only for changed streams, so only the
        // touched stream comes back dirty.
        site.observe(&Update::insert(StreamId(3), 9, 1));
        for frame in site.cut_epoch().unwrap().frames {
            coord.ingest_frame(&frame).unwrap();
        }
        assert_eq!(coord.drain_dirty_streams(), vec![StreamId(3)]);
    }

    #[test]
    fn coin_mismatch_is_rejected() {
        let coord = Coordinator::new(family());
        let other = SketchFamily::builder().copies(64).seed(999).build();
        let mut site = Site::new(5, other);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let frames = site.snapshot_frames().unwrap();
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
        let frames = site.snapshot_frames().unwrap();
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
            site_frames.push(site.snapshot_frames().unwrap());
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
        let frames = site.snapshot_frames().unwrap();
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
