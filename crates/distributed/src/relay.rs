//! Intermediate relay aggregation.
//!
//! Sketch linearity (cell-wise `i64` addition) means delta frames do not
//! have to travel all the way to the root coordinator individually: an
//! intermediate *relay* can merge its children's contributions and ship
//! a single compact delta per `(stream, epoch)` upstream. The relay is
//! exact — the merged counters are bit-identical to what the root would
//! have computed from the raw frames — so a relay tree changes fan-in
//! and bandwidth, never answers.
//!
//! A [`Relay`] wraps a child-facing [`Coordinator`] (the same watermark
//! machinery sites already speak) and presents itself *upstream* as one
//! ordinary site: it cuts its own epochs with [`Relay::cut_upstream`]
//! (delta = merged child state − last shipped baseline) and heals
//! upstream divergence with [`Relay::resync_upstream`] (cumulative
//! baselines, replace semantics). Two properties make this sound:
//!
//! * **Mid-batch cuts are safe.** A cut taken while children are
//!   mid-epoch just ships less; the remainder rides the next cut.
//!   Linearity guarantees nothing is lost or double-counted.
//! * **Negative deltas are expected.** When a child resyncs after a
//!   crash-restore, its *replaced* contribution can shrink the relay's
//!   merged state; the next upstream delta then carries negative
//!   counters, which the `i64` cells absorb exactly.
//!
//! [`RelayNode`] bundles the pieces into a runnable 2-level topology
//! element: a child-facing TCP server and an upstream [`TcpCollector`],
//! driven by periodic [`RelayNode::flush_upstream`] calls.

use crate::coordinator::Coordinator;
use crate::metrics::TransportMetrics;
use crate::site::{DeltaMessage, Epoch, EpochCommit, Hello, SiteId, SynopsisMessage};
use crate::transport::{
    CoordinatorServer, ServerHandle, ServerRole, TcpCollector, TransportError, TransportOptions,
};
use crate::wire::{encode_frame, encode_frame_traced, FrameContext, FrameKind, WireError};
use bytes::Bytes;
use setstream_core::{SketchFamily, SketchVector};
use setstream_stream::StreamId;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Merge-and-forward state: a child-facing [`Coordinator`] plus the
/// baseline ledger that turns its merged synopses into upstream deltas.
pub struct Relay {
    id: SiteId,
    family: SketchFamily,
    downstream: Arc<Coordinator>,
    /// Last upstream-shipped merged state per stream.
    baselines: BTreeMap<StreamId, SketchVector>,
    /// Epoch each stream last shipped in (the upstream `prev_epoch`
    /// chain).
    shipped: BTreeMap<StreamId, Epoch>,
    /// The relay's own upstream epoch counter.
    epoch: Epoch,
}

impl Relay {
    /// A relay presenting itself upstream as site `id`.
    pub fn new(id: SiteId, family: SketchFamily) -> Self {
        Relay::with_coordinator(id, Coordinator::new(family))
    }

    /// A relay around a custom-built child-facing coordinator — the hook
    /// for tracing and lineage tuning, e.g.
    /// `Coordinator::new(family).with_trace(trace, "relay-2")` so the
    /// relay's merge spans join each originating site cut's trace.
    pub fn with_coordinator(id: SiteId, downstream: Coordinator) -> Self {
        Relay {
            id,
            family: *downstream.family(),
            downstream: Arc::new(downstream),
            baselines: BTreeMap::new(),
            shipped: BTreeMap::new(),
            epoch: 0,
        }
    }

    /// The child-facing coordinator — hand this to a
    /// [`CoordinatorServer`] (or feed it frames directly in tests).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.downstream
    }

    /// The relay's upstream site identity.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The relay's current upstream epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Cut the relay's next upstream epoch: one delta frame per stream
    /// whose merged child state changed since the last cut, bracketed by
    /// `Hello` and `Commit`. Rolls the baselines forward.
    ///
    /// Trace propagation: each upstream delta re-ships the stream's last
    /// child frame context *verbatim* (same trace id, span id, and cut
    /// timestamp), so the root coordinator's merge spans parent directly
    /// onto the originating site cut and cut→commit latency stays
    /// end-to-end rather than per-hop. Under fan-in the last contributor's
    /// context wins — the lineage ring, not the trace, is the exhaustive
    /// record of who contributed.
    pub fn cut_upstream(&mut self) -> Result<Vec<Bytes>, WireError> {
        self.epoch += 1;
        let mut frames = vec![encode_frame(
            FrameKind::Hello,
            &Hello {
                site: self.id,
                family: self.family,
                resume_epoch: self.epoch,
            },
        )?];
        let mut seq = 0u32;
        let mut last_ctx: Option<FrameContext> = None;
        for stream in self.downstream.streams() {
            let Some(merged) = self.downstream.merged_synopsis(stream) else {
                continue;
            };
            let (delta, prev) = match self.baselines.get(&stream) {
                Some(base) => {
                    let delta = merged
                        .delta_since(base)
                        // analyze: allow(panic) — the baseline was cloned from this same downstream family
                        .expect("baseline minted from the relay family");
                    if delta.is_null() {
                        continue; // unchanged since last cut
                    }
                    (delta, self.shipped.get(&stream).copied().unwrap_or(0))
                }
                None => (merged.clone(), 0),
            };
            let ctx = self.downstream.stream_context(stream);
            if ctx.is_some() {
                last_ctx = ctx;
            }
            frames.push(encode_frame_traced(
                FrameKind::Delta,
                &DeltaMessage {
                    site: self.id,
                    stream,
                    epoch: self.epoch,
                    prev_epoch: prev,
                    seq,
                    vector: delta,
                },
                ctx.as_ref(),
            )?);
            self.shipped.insert(stream, self.epoch);
            self.baselines.insert(stream, merged);
            seq += 1;
        }
        frames.push(encode_frame_traced(
            FrameKind::Commit,
            &EpochCommit {
                site: self.id,
                epoch: self.epoch,
                deltas: seq,
            },
            last_ctx.as_ref(),
        )?);
        Ok(frames)
    }

    /// Cumulative upstream resync: the shipped baselines as epoch-stamped
    /// snapshots (replace semantics upstream). Heals any watermark
    /// divergence, exactly like [`crate::site::Site::resync_frames`].
    pub fn resync_upstream(&mut self) -> Result<Vec<Bytes>, WireError> {
        let mut frames = vec![encode_frame(
            FrameKind::Hello,
            &Hello {
                site: self.id,
                family: self.family,
                resume_epoch: self.epoch,
            },
        )?];
        let mut count = 0u32;
        for (&stream, vector) in &self.baselines {
            let ctx = self.downstream.stream_context(stream);
            frames.push(encode_frame_traced(
                FrameKind::Synopsis,
                &SynopsisMessage {
                    site: self.id,
                    stream,
                    epoch: self.epoch,
                    vector: vector.clone(),
                },
                ctx.as_ref(),
            )?);
            self.shipped.insert(stream, self.epoch);
            count += 1;
        }
        frames.push(encode_frame(
            FrameKind::Commit,
            &EpochCommit {
                site: self.id,
                epoch: self.epoch,
                deltas: count,
            },
        )?);
        Ok(frames)
    }
}

/// A runnable relay: child-facing TCP server + upstream collection
/// client, driven by periodic [`RelayNode::flush_upstream`] calls.
pub struct RelayNode {
    relay: Relay,
    server: ServerHandle,
    upstream: TcpCollector,
}

impl RelayNode {
    /// Bind `listen` for child sites and aggregate toward `upstream`.
    pub fn spawn(
        listen: &str,
        upstream: SocketAddr,
        id: SiteId,
        family: SketchFamily,
        opts: TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Result<RelayNode, TransportError> {
        RelayNode::spawn_with(listen, upstream, Relay::new(id, family), opts, metrics)
    }

    /// Like [`RelayNode::spawn`] but around a pre-built [`Relay`] — the
    /// hook for a trace-recording child-facing coordinator
    /// ([`Relay::with_coordinator`]).
    pub fn spawn_with(
        listen: &str,
        upstream: SocketAddr,
        relay: Relay,
        opts: TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Result<RelayNode, TransportError> {
        let server = CoordinatorServer::spawn(
            listen,
            Arc::clone(relay.coordinator()),
            ServerRole::Relay,
            opts,
            Arc::clone(&metrics),
        )?;
        let collector = TcpCollector::new(upstream, opts, metrics);
        Ok(RelayNode {
            relay,
            server,
            upstream: collector,
        })
    }

    /// The relay's upstream site identity.
    pub fn id(&self) -> SiteId {
        self.relay.id()
    }

    /// The address child sites should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The child-facing coordinator (for health/metric registration).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        self.relay.coordinator()
    }

    /// The relay's merge-and-forward state.
    pub fn relay(&self) -> &Relay {
        &self.relay
    }

    /// Cut an upstream epoch from the current merged child state and
    /// ship it through the epoch loop ([`crate::session::Collector::deliver`]),
    /// honouring upstream resync demands.
    pub fn flush_upstream(&mut self) -> Result<(), TransportError> {
        let frames = self.relay.cut_upstream()?;
        self.upstream
            .deliver(self.relay.epoch(), frames, &mut self.relay)?;
        Ok(())
    }

    /// Stop the child-facing server and drop the upstream connection.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use setstream_stream::Update;

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(8)
            .second_level(4)
            .seed(0xbeef)
            .build()
    }

    /// Feed child frames straight into the relay's coordinator (no
    /// sockets), flush upstream frames straight into a root coordinator,
    /// and check the root is bit-identical to the sites' own state.
    #[test]
    fn relay_merge_is_exact_and_chainable() {
        let fam = family();
        let mut relay = Relay::new(1000, fam);
        let root = Coordinator::new(fam);

        let mut sites: Vec<Site> = (1..=3).map(|id| Site::new(id, fam)).collect();
        for round in 0..3u64 {
            for (i, site) in sites.iter_mut().enumerate() {
                for e in 0..100u64 {
                    site.observe(&Update::insert(
                        StreamId((i % 2) as u32),
                        round * 10_000 + (i as u64) * 1000 + e,
                        1,
                    ));
                }
                let cut = site.cut_epoch().unwrap();
                for frame in &cut.frames {
                    relay
                        .coordinator()
                        .ingest_frame_from(site.id(), frame)
                        .unwrap();
                }
            }
            // Relay cut after every round: deltas chain epoch to epoch.
            for frame in relay.cut_upstream().unwrap() {
                root.ingest_frame_from(1000, &frame).unwrap();
            }
        }

        for stream in [StreamId(0), StreamId(1)] {
            let direct = relay.coordinator().merged_synopsis(stream).unwrap();
            let relayed = root.merged_synopsis(stream).unwrap();
            for (d, r) in direct.sketches().iter().zip(relayed.sketches()) {
                assert_eq!(d.counters(), r.counters());
            }
        }
    }

    #[test]
    fn mid_batch_cut_ships_remainder_next_epoch() {
        let fam = family();
        let mut relay = Relay::new(1000, fam);
        let root = Coordinator::new(fam);

        let mut site = Site::new(1, fam);
        for e in 0..100u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let cut = site.cut_epoch().unwrap();
        // Deliver only part of the child's batch before the relay cuts:
        // hello + first delta, no commit.
        for frame in cut.frames.iter().take(2) {
            relay.coordinator().ingest_frame_from(1, frame).unwrap();
        }
        for frame in relay.cut_upstream().unwrap() {
            root.ingest_frame_from(1000, &frame).unwrap();
        }
        // The rest of the child batch lands, and the next relay cut
        // ships the remainder.
        for frame in cut.frames.iter().skip(2) {
            relay.coordinator().ingest_frame_from(1, frame).unwrap();
        }
        for frame in relay.cut_upstream().unwrap() {
            root.ingest_frame_from(1000, &frame).unwrap();
        }

        let direct = site.synopsis(StreamId(0)).unwrap();
        let relayed = root.merged_synopsis(StreamId(0)).unwrap();
        for (d, r) in direct.sketches().iter().zip(relayed.sketches()) {
            assert_eq!(d.counters(), r.counters());
        }
    }

    #[test]
    fn child_resync_shrink_yields_negative_delta_and_stays_exact() {
        let fam = family();
        let mut relay = Relay::new(1000, fam);
        let root = Coordinator::new(fam);

        // Child ships an epoch through the relay.
        let mut site = Site::new(1, fam);
        for e in 0..200u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let keep = site.cut_epoch().unwrap();
        for frame in &keep.frames {
            relay.coordinator().ingest_frame_from(1, frame).unwrap();
        }
        for frame in relay.cut_upstream().unwrap() {
            root.ingest_frame_from(1000, &frame).unwrap();
        }

        // The child crashes and is restored from the epoch-1 checkpoint,
        // then observes different traffic and resyncs — its replaced
        // contribution at the relay may shrink.
        let mut site = Site::restore_from_bytes(&keep.checkpoint).unwrap();
        for e in 0..50u64 {
            site.observe(&Update::insert(StreamId(0), 10_000 + e, 1));
        }
        let _ = site.cut_epoch().unwrap();
        for frame in site.resync_frames().unwrap() {
            relay.coordinator().ingest_frame_from(1, &frame).unwrap();
        }
        for frame in relay.cut_upstream().unwrap() {
            root.ingest_frame_from(1000, &frame).unwrap();
        }

        let direct = relay.coordinator().merged_synopsis(StreamId(0)).unwrap();
        let relayed = root.merged_synopsis(StreamId(0)).unwrap();
        for (d, r) in direct.sketches().iter().zip(relayed.sketches()) {
            assert_eq!(d.counters(), r.counters());
        }
    }

    #[test]
    fn resync_upstream_heals_a_cold_root() {
        let fam = family();
        let mut relay = Relay::new(1000, fam);

        let mut site = Site::new(1, fam);
        for e in 0..100u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let cut = site.cut_epoch().unwrap();
        for frame in &cut.frames {
            relay.coordinator().ingest_frame_from(1, frame).unwrap();
        }
        // Two relay cuts go nowhere (upstream was down).
        let _ = relay.cut_upstream().unwrap();
        let _ = relay.cut_upstream().unwrap();

        // A fresh root receives only the cumulative resync.
        let root = Coordinator::new(fam);
        for frame in relay.resync_upstream().unwrap() {
            root.ingest_frame_from(1000, &frame).unwrap();
        }
        let direct = site.synopsis(StreamId(0)).unwrap();
        let relayed = root.merged_synopsis(StreamId(0)).unwrap();
        for (d, r) in direct.sketches().iter().zip(relayed.sketches()) {
            assert_eq!(d.counters(), r.counters());
        }
    }

    #[test]
    fn relay_propagates_site_trace_context_to_the_root() {
        use setstream_obs::{RingRecorder, TraceHandle};

        let fam = family();
        let recorder = Arc::new(RingRecorder::new(64));
        let trace = TraceHandle::new(recorder.clone());

        let mut site = Site::new(3, fam);
        site.set_trace(trace.clone());
        let mut relay = Relay::with_coordinator(
            1000,
            Coordinator::new(fam).with_trace(trace.clone(), "relay-1000"),
        );
        let root = Coordinator::new(fam).with_trace(trace, "root");

        site.observe(&Update::insert(StreamId(0), 1, 1));
        let cut = site.cut_epoch().unwrap();
        for frame in &cut.frames {
            relay.coordinator().ingest_frame_from(3, frame).unwrap();
        }
        for frame in relay.cut_upstream().unwrap() {
            root.ingest_frame_from(1000, &frame).unwrap();
        }

        // The root's lineage entry keeps the originating cut's trace id
        // and timestamp (end-to-end, not per-hop), credited to the relay's
        // upstream identity.
        let events = recorder.events();
        let cut_span = events.iter().find(|e| e.name == "site.cut_epoch").unwrap();
        let entries = root.lineage().snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].trace_id, cut_span.trace_id);
        assert_eq!(entries[0].sites, vec![1000]);
        assert!(entries[0].cut_ns > 0);
        assert!(entries[0].is_committed());

        // One trace spans three tracks: the site, the relay, the root.
        let tracks: Vec<&str> = events
            .iter()
            .filter(|e| e.trace_id == cut_span.trace_id)
            .map(|e| e.track.as_str())
            .collect();
        assert!(tracks.contains(&"site-3"), "{tracks:?}");
        assert!(tracks.contains(&"relay-1000"), "{tracks:?}");
        assert!(tracks.contains(&"root"), "{tracks:?}");
    }
}
