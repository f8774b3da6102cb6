//! The upstream batch format, written once for every epoch source.
//!
//! A [`crate::Site`] and a [`crate::Relay`] both present themselves
//! upstream as one site: they cut numbered epochs, and they heal any
//! divergence with a cumulative resync. [`EpochWriter`] holds that
//! identity — site id, coins, epoch counter, each stream's `prev_epoch`
//! chain and the owed-resync flag — and frames both batch shapes:
//!
//! * a cut: `Hello`, one `Delta` per changed stream chained by
//!   `prev_epoch`, `Commit`;
//! * a resync: `Hello`, one replacing `Synopsis` per stream, `Commit`.

use crate::site::{DeltaMessage, Epoch, EpochCommit, Hello, SiteId, SynopsisMessage};
use crate::wire::{encode_frame_traced, FrameContext, FrameKind, WireError};
use bytes::Bytes;
use setstream_core::{SketchFamily, SketchVector};
use setstream_stream::StreamId;
use std::collections::BTreeMap;

/// One stream's change (or state), with the trace context its frame
/// carries.
pub(crate) type StreamFrame = (StreamId, SketchVector, Option<FrameContext>);

/// An epoch source's upstream identity and epoch chain.
#[derive(Debug, Clone)]
pub(crate) struct EpochWriter {
    /// Sender.
    pub(crate) site: SiteId,
    /// Coins announced in every `Hello`.
    pub(crate) family: SketchFamily,
    /// Last cut epoch (0 = never cut).
    pub(crate) epoch: Epoch,
    /// The epoch each stream last shipped in: the `prev_epoch` of its
    /// next delta.
    pub(crate) shipped: BTreeMap<StreamId, Epoch>,
    /// A resync is owed without any demand: a site restored from a
    /// checkpoint cannot know whether its last cut was delivered, and a
    /// relay whose delivery failed lost the sums it took.
    pub(crate) owes_resync: bool,
}

impl EpochWriter {
    /// A fresh writer for site `site`: never cut, nothing shipped.
    pub(crate) fn new(site: SiteId, family: SketchFamily) -> Self {
        EpochWriter {
            site,
            family,
            epoch: 0,
            shipped: BTreeMap::new(),
            owes_resync: false,
        }
    }

    /// The `Hello` that opens every batch, announcing the current epoch.
    pub(crate) fn hello(&self, ctx: Option<&FrameContext>) -> Result<Bytes, WireError> {
        let hello = Hello {
            site: self.site,
            family: self.family,
            resume_epoch: self.epoch,
        };
        encode_frame_traced(FrameKind::Hello, &hello, ctx)
    }

    /// Cut the next epoch: `Hello` (carrying `ctx`), one `Delta` per
    /// change, `Commit`. A stream that shipped before and whose change is
    /// null is skipped; one that never shipped ships even when null, so
    /// the receiver learns it exists. The `Commit` carries the last delta
    /// context given, or `ctx` when no delta carried one.
    pub(crate) fn cut(
        &mut self,
        changes: impl IntoIterator<Item = StreamFrame>,
        ctx: Option<FrameContext>,
    ) -> Result<Vec<Bytes>, WireError> {
        self.epoch += 1;
        let mut frames = vec![self.hello(ctx.as_ref())?];
        let mut last = ctx;
        let mut seq = 0u32;
        for (stream, vector, ctx) in changes {
            let prev = self.shipped.get(&stream).copied();
            if prev.is_some() && vector.is_null() {
                continue;
            }
            last = ctx.or(last);
            let delta = DeltaMessage {
                site: self.site,
                stream,
                epoch: self.epoch,
                prev_epoch: prev.unwrap_or(0),
                seq,
                vector,
            };
            frames.push(encode_frame_traced(FrameKind::Delta, &delta, ctx.as_ref())?);
            self.shipped.insert(stream, self.epoch);
            seq += 1;
        }
        frames.push(self.commit(seq, last.as_ref())?);
        Ok(frames)
    }

    /// A cumulative resync stamped with the last cut epoch: `Hello`, one
    /// `Synopsis` per stream of `store` (each carrying its own context),
    /// `Commit`. Every stream's next delta chains from this epoch, and no
    /// resync is owed any more.
    pub(crate) fn resync(
        &mut self,
        store: impl IntoIterator<Item = StreamFrame>,
    ) -> Result<Vec<Bytes>, WireError> {
        let mut frames = vec![self.hello(None)?];
        let mut count = 0u32;
        for (stream, vector, ctx) in store {
            let synopsis = SynopsisMessage {
                site: self.site,
                stream,
                epoch: self.epoch,
                vector,
            };
            frames.push(encode_frame_traced(
                FrameKind::Synopsis,
                &synopsis,
                ctx.as_ref(),
            )?);
            self.shipped.insert(stream, self.epoch);
            count += 1;
        }
        frames.push(self.commit(count, None)?);
        self.owes_resync = false;
        Ok(frames)
    }

    /// The `Commit` closing the current epoch's batch of `deltas` frames.
    fn commit(&self, deltas: u32, ctx: Option<&FrameContext>) -> Result<Bytes, WireError> {
        let commit = EpochCommit {
            site: self.site,
            epoch: self.epoch,
            deltas,
        };
        encode_frame_traced(FrameKind::Commit, &commit, ctx)
    }
}
