//! A site: one observer in the distributed-streams model.
//!
//! Each site sees a part of the global update traffic (e.g. one IP
//! router's element-management system in the paper's motivating setup),
//! maintains a [`SketchVector`] per logical stream using the family's
//! stored coins, and **continuously** ships its synopses to the
//! coordinator.
//!
//! # Epoch-based continuous collection
//!
//! The paper's deployment ships synopses *periodically, forever* — so a
//! site cannot simply re-send cumulative snapshots and have the
//! coordinator add them (that double-counts all prior traffic). Instead
//! collection is organised into **epochs**:
//!
//! 1. [`Site::cut_epoch`] advances the site's epoch counter, computes a
//!    **delta frame** per stream (counter changes since the stream's last
//!    shipped epoch — exact, by sketch linearity), and captures a sealed
//!    write-ahead checkpoint of the post-cut state. Persist the
//!    checkpoint *before* shipping the frames: the invariant the
//!    recovery protocol relies on is `durable epoch ≥ coordinator
//!    watermark`.
//! 2. The frames ship (see [`crate::session::Collector::collect`]); the
//!    coordinator applies each delta only if its `(epoch, prev_epoch)`
//!    stamps chain onto the per-`(site, stream)` watermark, so drops,
//!    duplicates and reordering can never corrupt the merged synopsis.
//! 3. After a crash, [`Site::restore_from_bytes`] resumes from the last
//!    durable checkpoint and the next `Hello` carries `resume_epoch`; any
//!    divergence surfaces as an epoch gap and is healed by a cumulative
//!    resync ([`Site::resync_frames`]), which *replaces* the site's
//!    contribution at the coordinator.
//!
//! A [`crate::Relay`] speaks the same protocol upstream: both frame
//! their cuts and resyncs through one crate-private epoch writer.

use crate::codec::{self, CodecError};
use crate::epoch::EpochWriter;
use crate::wire::{FrameContext, WireError};
use bytes::Bytes;
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Serialize, Serializer};
use setstream_core::{SketchFamily, SketchVector};
use setstream_engine::durable::{self, DurableError, DurableKind};
use setstream_hash::clock;
use setstream_obs::TraceHandle;
use setstream_stream::{StreamId, Update};
use std::collections::BTreeMap;
use std::fmt;

/// Site identity carried in every frame.
pub type SiteId = u32;

/// Collection epoch counter. Epoch 0 means "never cut"; the first cut
/// produces epoch 1.
pub type Epoch = u64;

/// The hello message announcing a site and its coins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// Sender.
    pub site: SiteId,
    /// Family the site builds synopses with; the coordinator refuses
    /// sites whose coins differ from its own.
    pub family: SketchFamily,
    /// The epoch the site resumes from: its last durable cut (0 for a
    /// fresh site). The coordinator compares this with its own commit
    /// watermark to detect a site restored from a stale checkpoint.
    pub resume_epoch: Epoch,
}

/// One stream's **cumulative** synopsis, shipped by a resync.
///
/// Replace semantics at the coordinator: a later synopsis from the same
/// `(site, stream)` supersedes the previous contribution — it is never
/// merged on top of it, so repeated resyncs cannot double-count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynopsisMessage {
    /// Sender.
    pub site: SiteId,
    /// Which logical stream this synopsis summarizes.
    pub stream: StreamId,
    /// The sender's last cut epoch, which this synopsis is current as of.
    pub epoch: Epoch,
    /// The synopsis itself.
    pub vector: SketchVector,
}

/// One stream's **delta** for one epoch: counter changes since the
/// stream's last shipped epoch. Merged additively at the coordinator,
/// guarded by the epoch watermark chain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeltaMessage {
    /// Sender.
    pub site: SiteId,
    /// Which logical stream the delta belongs to.
    pub stream: StreamId,
    /// The epoch this delta closes.
    pub epoch: Epoch,
    /// The epoch this stream last shipped a delta in (0 = first ever).
    /// The coordinator applies the delta only if this equals its current
    /// watermark for `(site, stream)` — anything else is a duplicate or
    /// a gap, never silently merged.
    pub prev_epoch: Epoch,
    /// Position of this delta within its epoch's frame batch.
    pub seq: u32,
    /// The counter changes (an exact synopsis of the epoch's traffic).
    pub vector: SketchVector,
}

/// Epoch terminator: all `deltas` delta frames of `epoch` were emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochCommit {
    /// Sender.
    pub site: SiteId,
    /// The epoch being committed.
    pub epoch: Epoch,
    /// Number of delta frames in the epoch.
    pub deltas: u32,
}

/// Everything [`Site::cut_epoch`] produces: the wire frames to ship and
/// the sealed write-ahead checkpoint to persist *first*.
#[derive(Debug, Clone)]
pub struct EpochCut {
    /// The epoch that was cut.
    pub epoch: Epoch,
    /// `Hello`, one `Delta` per changed stream, `Commit`.
    pub frames: Vec<Bytes>,
    /// Sealed checkpoint of the post-cut state (see
    /// [`Site::restore_from_bytes`]). Persist before shipping `frames`.
    pub checkpoint: Vec<u8>,
}

/// A site's durable state at an epoch boundary — the write-ahead
/// snapshot. Serialized with the workspace codec and sealed in the
/// versioned, checksummed [`setstream_engine::durable`] container.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteCheckpoint {
    /// Site identity.
    pub site: SiteId,
    /// Stored coins.
    pub family: SketchFamily,
    /// Last cut epoch.
    pub epoch: Epoch,
    /// Per-stream cumulative synopses as of the cut.
    pub streams: Vec<(StreamId, SketchVector)>,
    /// Per-stream epoch each stream last shipped a delta in.
    pub shipped: Vec<(StreamId, Epoch)>,
}

/// Serializes a site's state exactly as the [`SiteCheckpoint`] it
/// would build, field for field, but borrowing the baselines.
struct CheckpointRef<'a>(&'a Site);

impl Serialize for CheckpointRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (writer, baselines) = (&self.0.writer, &self.0.baselines);
        let mut out = serializer.serialize_struct("SiteCheckpoint", 5)?;
        out.serialize_field("site", &writer.site)?;
        out.serialize_field("family", &writer.family)?;
        out.serialize_field("epoch", &writer.epoch)?;
        out.serialize_field("streams", &Pairs(baselines))?;
        out.serialize_field("shipped", &Pairs(&writer.shipped))?;
        out.end()
    }
}

/// A map serialized as the `Vec<(K, V)>` it would collect into.
struct Pairs<'a, K, V>(&'a BTreeMap<K, V>);

impl<K: Serialize, V: Serialize> Serialize for Pairs<'_, K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for pair in self.0 {
            seq.serialize_element(&pair)?;
        }
        seq.end()
    }
}

/// Why a checkpoint could not be restored.
#[derive(Debug)]
pub enum RestoreError {
    /// The blob failed container validation (corrupt, truncated, future
    /// version, wrong kind).
    Durable(DurableError),
    /// The payload failed to decode.
    Codec(CodecError),
    /// A stream's synopsis was built with different coins than the
    /// checkpoint's family claims.
    FamilyMismatch {
        /// The offending stream.
        stream: StreamId,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Durable(e) => write!(f, "checkpoint container invalid: {e}"),
            RestoreError::Codec(e) => write!(f, "checkpoint payload invalid: {e}"),
            RestoreError::FamilyMismatch { stream } => {
                write!(f, "checkpoint stream {stream} uses foreign coins")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<DurableError> for RestoreError {
    fn from(e: DurableError) -> Self {
        RestoreError::Durable(e)
    }
}

impl From<CodecError> for RestoreError {
    fn from(e: CodecError) -> Self {
        RestoreError::Codec(e)
    }
}

/// A stream-processing site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Identity, coins, epoch chain, and whether a resync is owed.
    pub(crate) writer: EpochWriter,
    streams: BTreeMap<StreamId, SketchVector>,
    /// Per-stream state as of the last cut — the subtrahend of the next
    /// delta, and exactly what the checkpoint persists.
    baselines: BTreeMap<StreamId, SketchVector>,
    /// Span sink for epoch cuts and collection rounds; a no-op handle
    /// (the default) costs one branch per span site. Not persisted in
    /// checkpoints — a restored site starts with a no-op handle.
    trace: TraceHandle,
}

impl Site {
    /// A site using the shared `family` coins.
    pub fn new(id: SiteId, family: SketchFamily) -> Self {
        Site {
            writer: EpochWriter::new(id, family),
            streams: BTreeMap::new(),
            baselines: BTreeMap::new(),
            trace: TraceHandle::noop(),
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.writer.site
    }

    /// Record epoch-cut and collection spans into `trace` (e.g. a
    /// [`setstream_obs::RingRecorder`]).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The site's trace handle (no-op unless [`Self::set_trace`] was
    /// called).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The family (stored coins) in use.
    pub fn family(&self) -> &SketchFamily {
        &self.writer.family
    }

    /// The last cut epoch (0 = never cut).
    pub fn epoch(&self) -> Epoch {
        self.writer.epoch
    }

    /// `true` between a checkpoint restore and the next
    /// [`Self::resync_frames`]: the site cannot know whether its last
    /// pre-crash cut was delivered, so its state must be re-announced
    /// cumulatively before delta collection is trustworthy again.
    /// [`crate::session::Collector::collect`] honours this automatically.
    pub fn recovering(&self) -> bool {
        self.writer.owes_resync
    }

    /// Route one update into the synopsis of its stream, creating the
    /// synopsis on first sight.
    pub fn observe(&mut self, update: &Update) {
        self.streams
            .entry(update.stream)
            .or_insert_with(|| self.writer.family.new_vector())
            .process(update);
    }

    /// Observe a batch of updates, grouped by stream and driven through
    /// the synopsis batch path. Bit-for-bit identical to calling
    /// [`Self::observe`] per tuple (sketch linearity).
    pub fn observe_batch(&mut self, updates: &[Update]) {
        let mut groups: BTreeMap<StreamId, Vec<Update>> = BTreeMap::new();
        for u in updates {
            groups.entry(u.stream).or_default().push(*u);
        }
        for (stream, group) in groups {
            self.streams
                .entry(stream)
                .or_insert_with(|| self.writer.family.new_vector())
                .update_batch(&group);
        }
    }

    /// Streams this site has observed.
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.streams.keys().copied()
    }

    /// Direct access to a stream's synopsis (e.g. for local queries).
    pub fn synopsis(&self, stream: StreamId) -> Option<&SketchVector> {
        self.streams.get(&stream)
    }

    /// The hello frame for this site, announcing its resume epoch.
    pub fn hello_frame(&self) -> Result<Bytes, WireError> {
        self.writer.hello(None)
    }

    /// Close the current epoch: advance the epoch counter, emit one
    /// delta frame per stream whose counters changed since its last
    /// shipped epoch, roll the baselines forward, and seal a write-ahead
    /// checkpoint of the post-cut state.
    ///
    /// The caller must persist [`EpochCut::checkpoint`] *before* shipping
    /// [`EpochCut::frames`] — that ordering is what makes a crash at any
    /// point recoverable without double-counting (the durable epoch is
    /// then always ≥ the coordinator's watermark).
    ///
    /// When tracing is enabled ([`Self::set_trace`]), the cut opens a
    /// `site.cut_epoch` root span and every frame of the batch carries its
    /// context plus the cut wall clock as a wire extension, so relays and
    /// the coordinator parent their merge/commit spans under this cut and
    /// can histogram true cut→commit latency. With the default no-op
    /// handle the frames are bit-identical to the pre-extension format —
    /// that emission gate is the version gate.
    pub fn cut_epoch(&mut self) -> Result<EpochCut, WireError> {
        let trace = self.trace.clone();
        let mut span = trace.span("site.cut_epoch");
        if span.is_recording() {
            span.track(format!("site-{}", self.id()));
        }
        let ctx = span.is_recording().then(|| FrameContext {
            trace: span.context(),
            cut_ns: clock::now_ns(),
        });
        // One stream's delta at a time: live − baseline, or the whole
        // synopsis for a stream first seen in this epoch.
        let changes = self.streams.iter().map(|(&stream, live)| {
            let change = match self.baselines.get(&stream) {
                Some(base) => live
                    .delta_since(base)
                    // analyze: allow(panic) — the baseline was cloned from this very synopsis
                    .expect("baseline minted from the site family"),
                None => live.clone(),
            };
            (stream, change, ctx)
        });
        let frames = self.writer.cut(changes, ctx)?;
        for (&stream, live) in &self.streams {
            self.baselines.insert(stream, live.clone());
        }
        let checkpoint = self.checkpoint_bytes()?;
        if span.is_recording() {
            span.detail(format!(
                "epoch={} frames={} checkpoint_bytes={}",
                self.epoch(),
                frames.len(),
                checkpoint.len()
            ));
        }
        Ok(EpochCut {
            epoch: self.epoch(),
            frames,
            checkpoint,
        })
    }

    /// Cumulative resync frames: `Hello`, one epoch-stamped `Synopsis`
    /// per stream *as of the last cut*, and a `Commit`. The coordinator
    /// replaces the site's whole contribution with these, which heals any
    /// watermark divergence (crash recovery from an older checkpoint,
    /// lost epochs, and so on).
    ///
    /// Ships the baselines, not the live synopses: traffic observed since
    /// the last cut belongs to the *next* epoch's delta and must not leak
    /// into the resync, or it would be counted twice.
    pub fn resync_frames(&mut self) -> Result<Vec<Bytes>, WireError> {
        let store = self
            .baselines
            .iter()
            .map(|(&stream, v)| (stream, v.clone(), None));
        self.writer.resync(store)
    }

    /// The site's durable state at the last epoch boundary — a
    /// [`SiteCheckpoint`] serialized with the workspace codec and sealed
    /// in the versioned, checksummed durable container. Captures the
    /// baselines, not the live synopses: a restore lands exactly on the
    /// last cut, never in the middle of an epoch. Encoded straight from
    /// the borrowed baselines; nothing is cloned.
    pub fn checkpoint_bytes(&self) -> Result<Vec<u8>, WireError> {
        let payload = codec::to_bytes(&CheckpointRef(self))?;
        Ok(durable::seal(DurableKind::SiteCheckpoint, &payload))
    }

    /// Rebuild a site from a checkpoint. The restored site resumes at the
    /// checkpoint's epoch with live state equal to the cut state; traffic
    /// observed after that cut is gone (the model forbids replay) — what
    /// recovery guarantees is *consistency*: no loss of durable epochs
    /// and no double-counting, surfaced to the coordinator through
    /// `Hello { resume_epoch }` and the watermark chain.
    pub fn restore(checkpoint: SiteCheckpoint) -> Result<Self, RestoreError> {
        let mut streams = BTreeMap::new();
        for (stream, vector) in checkpoint.streams {
            if vector.family() != &checkpoint.family {
                return Err(RestoreError::FamilyMismatch { stream });
            }
            streams.insert(stream, vector);
        }
        let writer = EpochWriter {
            epoch: checkpoint.epoch,
            shipped: checkpoint.shipped.into_iter().collect(),
            owes_resync: true,
            ..EpochWriter::new(checkpoint.site, checkpoint.family)
        };
        Ok(Site {
            writer,
            baselines: streams.clone(),
            streams,
            trace: TraceHandle::noop(),
        })
    }

    /// Unseal, decode and [`Self::restore`] a checkpoint blob. Corrupt,
    /// truncated or future-version blobs are clean typed errors.
    pub fn restore_from_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        let payload = durable::unseal(bytes, DurableKind::SiteCheckpoint)?;
        let checkpoint: SiteCheckpoint = codec::from_bytes(payload)?;
        Self::restore(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_payload, FrameKind};

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(4)
            .levels(16)
            .second_level(4)
            .seed(42)
            .build()
    }

    #[test]
    fn observe_routes_by_stream() {
        let mut site = Site::new(7, family());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site.observe(&Update::insert(StreamId(1), 2, 3));
        site.observe(&Update::delete(StreamId(1), 2, 1));
        assert_eq!(site.streams().count(), 2);
        assert_eq!(
            site.synopsis(StreamId(1)).unwrap().sketches()[0].total_count(),
            2
        );
        assert!(site.synopsis(StreamId(9)).is_none());
    }

    #[test]
    fn batch_observation_matches_scalar() {
        let updates: Vec<Update> = (0..12_000u64)
            .map(|i| Update {
                stream: StreamId((i % 4) as u32),
                element: i.wrapping_mul(0x9e37) % 3000,
                delta: if i % 9 == 0 { -1 } else { 1 },
            })
            .collect();
        let mut scalar = Site::new(1, family());
        for u in &updates {
            scalar.observe(u);
        }
        let mut batched = Site::new(1, family());
        batched.observe_batch(&updates);
        for stream in scalar.streams() {
            let want = scalar.synopsis(stream).unwrap();
            let got = batched.synopsis(stream).unwrap();
            for (a, b) in want.sketches().iter().zip(got.sketches()) {
                assert_eq!(a.counters(), b.counters(), "stream {stream}");
            }
        }
    }

    #[test]
    fn resync_contains_hello_synopses_commit() {
        let mut site = Site::new(3, family());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site.observe(&Update::insert(StreamId(5), 2, 1));
        let _ = site.cut_epoch().unwrap();
        let frames = site.resync_frames().unwrap();
        assert_eq!(frames.len(), 4); // hello + 2 synopses + commit

        let (kind, hello): (_, Hello) = decode_payload(frames[0].clone()).unwrap();
        assert_eq!(kind, FrameKind::Hello);
        assert_eq!(hello.site, 3);
        assert_eq!(&hello.family, site.family());
        assert_eq!(hello.resume_epoch, 1);

        let (kind, syn): (_, SynopsisMessage) = decode_payload(frames[1].clone()).unwrap();
        assert_eq!(kind, FrameKind::Synopsis);
        assert_eq!(syn.stream, StreamId(0));
        assert_eq!(syn.epoch, 1);

        let (kind, commit): (_, EpochCommit) = decode_payload(frames[3].clone()).unwrap();
        assert_eq!(kind, FrameKind::Commit);
        assert_eq!(
            commit,
            EpochCommit {
                site: 3,
                epoch: 1,
                deltas: 2
            }
        );
    }

    #[test]
    fn snapshot_is_nondestructive() {
        let mut site = Site::new(1, family());
        site.observe(&Update::insert(StreamId(0), 9, 2));
        let _ = site.cut_epoch().unwrap();
        let _ = site.resync_frames().unwrap();
        site.observe(&Update::insert(StreamId(0), 10, 1));
        assert_eq!(
            site.synopsis(StreamId(0)).unwrap().sketches()[0].total_count(),
            3
        );
        assert_eq!(site.epoch(), 1, "a resync cuts no epoch");
    }

    /// Decode the delta frames of a cut into (stream, message) pairs.
    fn decode_deltas(cut: &EpochCut) -> Vec<DeltaMessage> {
        cut.frames
            .iter()
            .filter_map(|f| match decode_payload::<DeltaMessage>(f.clone()) {
                Ok((FrameKind::Delta, msg)) => Some(msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn epoch_deltas_sum_to_the_cumulative_synopsis() {
        let mut site = Site::new(1, family());
        let mut reference = family().new_vector();
        let mut merged = family().new_vector();
        for round in 0..3u64 {
            for e in 0..300u64 {
                let u = Update::insert(StreamId(0), round * 1000 + e, 1);
                site.observe(&u);
                reference.process(&u);
            }
            let cut = site.cut_epoch().unwrap();
            assert_eq!(cut.epoch, round + 1);
            let deltas = decode_deltas(&cut);
            assert_eq!(deltas.len(), 1);
            merged.merge_from(&deltas[0].vector).unwrap();
        }
        for (m, r) in merged.sketches().iter().zip(reference.sketches()) {
            assert_eq!(m.counters(), r.counters());
        }
    }

    #[test]
    fn unchanged_streams_are_skipped_and_prev_epoch_chains() {
        let mut site = Site::new(1, family());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site.observe(&Update::insert(StreamId(1), 2, 1));
        let first = site.cut_epoch().unwrap();
        assert_eq!(decode_deltas(&first).len(), 2);

        // Only stream 1 changes in epoch 2.
        site.observe(&Update::insert(StreamId(1), 3, 1));
        let second = site.cut_epoch().unwrap();
        let deltas = decode_deltas(&second);
        assert_eq!(deltas.len(), 1, "unchanged stream must not ship");
        assert_eq!(deltas[0].stream, StreamId(1));
        assert_eq!(deltas[0].epoch, 2);
        assert_eq!(deltas[0].prev_epoch, 1);

        // Stream 0 reappears in epoch 3 chaining from epoch 1, not 2.
        site.observe(&Update::insert(StreamId(0), 4, 1));
        let third = site.cut_epoch().unwrap();
        let deltas = decode_deltas(&third);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].stream, StreamId(0));
        assert_eq!(deltas[0].epoch, 3);
        assert_eq!(deltas[0].prev_epoch, 1);
    }

    #[test]
    fn cancelled_but_touched_epoch_still_ships() {
        let mut site = Site::new(1, family());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let _ = site.cut_epoch().unwrap();
        // Net-zero epoch: one insert, one unrelated delete.
        site.observe(&Update::insert(StreamId(0), 50, 1));
        site.observe(&Update::delete(StreamId(0), 60, 1));
        let cut = site.cut_epoch().unwrap();
        assert_eq!(decode_deltas(&cut).len(), 1, "non-null delta must ship");
    }

    #[test]
    fn checkpoint_restores_to_the_exact_cut_state() {
        let mut site = Site::new(9, family());
        for e in 0..500u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let cut = site.cut_epoch().unwrap();
        // Post-cut traffic that the checkpoint must NOT contain.
        site.observe(&Update::insert(StreamId(0), 999_999, 1));

        let restored = Site::restore_from_bytes(&cut.checkpoint).unwrap();
        assert_eq!(restored.id(), 9);
        assert_eq!(restored.epoch(), 1);
        let original_at_cut = &site.baselines[&StreamId(0)];
        let restored_live = restored.synopsis(StreamId(0)).unwrap();
        for (a, b) in original_at_cut.sketches().iter().zip(restored_live.sketches()) {
            assert_eq!(a.counters(), b.counters());
        }
        // The hello frame announces the resume epoch.
        let (_, hello): (_, Hello) =
            decode_payload(restored.hello_frame().unwrap()).unwrap();
        assert_eq!(hello.resume_epoch, 1);
    }

    #[test]
    fn borrowed_checkpoint_encoding_matches_the_owned_checkpoint() {
        let mut site = Site::new(9, family());
        for e in 0..300u64 {
            site.observe(&Update::insert(StreamId((e % 3) as u32), e, 1));
        }
        let cut = site.cut_epoch().unwrap();
        let owned = SiteCheckpoint {
            site: site.id(),
            family: *site.family(),
            epoch: site.epoch(),
            streams: site.baselines.iter().map(|(&s, v)| (s, v.clone())).collect(),
            shipped: site.writer.shipped.iter().map(|(&s, &e)| (s, e)).collect(),
        };
        let payload = durable::unseal(&cut.checkpoint, DurableKind::SiteCheckpoint).unwrap();
        assert_eq!(payload, codec::to_bytes(&owned).unwrap());
    }

    /// Only the occupied levels travel: at the `setstream site` shape
    /// (r = 64, s = 8, 64 levels) a 500-update epoch touches about
    /// log₂ 500 ≈ 9 of the 64 rows of each sketch.
    #[test]
    fn delta_frames_and_checkpoints_are_sparse() {
        let fam = SketchFamily::builder().copies(64).second_level(8).seed(7).build();
        let dense = fam.vector_bytes();
        let mut site = Site::new(1, fam);
        for epoch in 0..2u64 {
            for e in 0..500u64 {
                site.observe(&Update::insert(StreamId(0), epoch * 10_000 + e, 1));
            }
            let cut = site.cut_epoch().unwrap();
            let delta = &cut.frames[1];
            assert!(
                delta.len() < dense / 10,
                "epoch {epoch}: delta frame {} bytes vs dense {dense}",
                delta.len()
            );
            assert!(
                cut.checkpoint.len() < dense / 4,
                "epoch {epoch}: checkpoint {} bytes vs dense {dense}",
                cut.checkpoint.len()
            );
        }
    }

    #[test]
    fn corrupt_or_truncated_checkpoints_are_clean_errors() {
        let mut site = Site::new(1, family());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let cut = site.cut_epoch().unwrap();
        let blob = cut.checkpoint;

        for i in (0..blob.len()).step_by(7) {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(
                matches!(Site::restore_from_bytes(&bad), Err(RestoreError::Durable(_))),
                "flip at {i}"
            );
        }
        assert!(Site::restore_from_bytes(&blob[..blob.len() / 2]).is_err());
        assert!(Site::restore_from_bytes(b"not a checkpoint").is_err());
        // The pristine blob still restores.
        assert!(Site::restore_from_bytes(&blob).is_ok());
    }

    #[test]
    fn traced_cuts_attach_one_context_to_every_frame() {
        use crate::wire::decode_frame_parts;
        use setstream_obs::RingRecorder;
        use std::sync::Arc;

        let mut site = Site::new(4, family());
        site.set_trace(setstream_obs::TraceHandle::new(Arc::new(RingRecorder::new(8))));
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site.observe(&Update::insert(StreamId(1), 2, 1));
        let cut = site.cut_epoch().unwrap();
        let contexts: Vec<_> = cut
            .frames
            .iter()
            .map(|f| decode_frame_parts(f.clone()).unwrap().2)
            .collect();
        assert_eq!(contexts.len(), 4); // hello + 2 deltas + commit
        let first = contexts[0].expect("traced cut attaches a context");
        assert!(first.trace.is_active());
        assert!(first.cut_ns > 0);
        assert!(
            contexts.iter().all(|c| *c == Some(first)),
            "every frame of the batch shares the cut's context"
        );
    }

    #[test]
    fn untraced_cuts_ship_extension_free_frames() {
        use crate::wire::{decode_frame_parts, EXT_FLAG};
        let mut site = Site::new(4, family());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let cut = site.cut_epoch().unwrap();
        for frame in &cut.frames {
            assert_eq!(frame[4] & EXT_FLAG, 0, "no-op trace must not emit extensions");
            assert_eq!(decode_frame_parts(frame.clone()).unwrap().2, None);
        }
    }

    #[test]
    fn traced_resyncs_ship_extension_free_frames() {
        use crate::wire::{decode_frame_parts, EXT_FLAG};
        use setstream_obs::RingRecorder;
        use std::sync::Arc;

        let mut site = Site::new(4, family());
        site.set_trace(TraceHandle::new(Arc::new(RingRecorder::new(8))));
        site.observe(&Update::insert(StreamId(0), 1, 1));
        site.observe(&Update::insert(StreamId(1), 2, 1));
        let _ = site.cut_epoch().unwrap();
        let frames = site.resync_frames().unwrap();
        assert_eq!(frames.len(), 4); // hello + 2 synopses + commit
        for frame in &frames {
            assert_eq!(frame[4] & EXT_FLAG, 0, "a site resync carries no context");
            assert_eq!(decode_frame_parts(frame.clone()).unwrap().2, None);
        }
    }

    #[test]
    fn resync_ships_baselines_not_live_traffic() {
        let mut site = Site::new(1, family());
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let _ = site.cut_epoch().unwrap();
        site.observe(&Update::insert(StreamId(0), 2, 1)); // uncut traffic
        let frames = site.resync_frames().unwrap();
        let (_, msg): (_, SynopsisMessage) = decode_payload(frames[1].clone()).unwrap();
        assert_eq!(msg.epoch, 1);
        assert_eq!(
            msg.vector.sketches()[0].total_count(),
            1,
            "uncut traffic must not leak into the resync"
        );
        // The uncut update still ships with the next delta.
        let cut = site.cut_epoch().unwrap();
        let deltas = decode_deltas(&cut);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].vector.sketches()[0].total_count(), 1);
    }
}
