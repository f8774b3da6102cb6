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
//! ordinary site. That coordinator folds every committed child change
//! into its store and into a per-stream **unshipped sum**;
//! [`Relay::cut_upstream`] takes the sum as its epoch's deltas, and
//! [`Relay::resync_upstream`] heals upstream divergence by shipping the
//! store itself (replace semantics) and clearing the sum. Three
//! properties make this sound:
//!
//! * **Mid-batch cuts are safe.** A cut taken while children are
//!   mid-epoch just ships less; the remainder rides the next cut.
//!   Linearity guarantees nothing is lost or double-counted.
//! * **Negative deltas are expected.** When a child resyncs after a
//!   crash-restore, its *replaced* contribution can shrink the relay's
//!   merged state; the next upstream delta then carries negative
//!   counters, which the wrapping `i64` cells absorb exactly.
//! * **Undelivered cuts are resynced.** A cut whose delivery fails took
//!   its sum with it, so the relay owes a resync: its next delivery
//!   ships the store once the cut is through.
//!
//! [`RelayNode`] bundles the pieces into a runnable 2-level topology
//! element: a child-facing TCP server and an upstream [`TcpCollector`],
//! driven by periodic [`RelayNode::flush_upstream`] calls.

use crate::coordinator::Coordinator;
use crate::epoch::EpochWriter;
use crate::metrics::TransportMetrics;
use crate::session::{Collector, Link};
use crate::site::{Epoch, SiteId};
use crate::transport::{
    CoordinatorServer, ServerHandle, ServerRole, TcpCollector, TransportError, TransportOptions,
};
use crate::wire::WireError;
use bytes::Bytes;
use setstream_core::SketchFamily;
use std::net::SocketAddr;
use std::sync::Arc;

/// Merge-and-forward state: a child-facing [`Coordinator`] that keeps
/// the unshipped sum, plus the upstream epoch chain.
pub struct Relay {
    downstream: Arc<Coordinator>,
    /// The upstream identity and epoch chain. Owes a resync when a cut's
    /// delivery failed after its sum was taken.
    pub(crate) writer: EpochWriter,
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
            writer: EpochWriter::new(id, *downstream.family()),
            downstream: Arc::new(downstream.track_unshipped()),
        }
    }

    /// The child-facing coordinator — hand this to a
    /// [`CoordinatorServer`] (or feed it frames directly in tests).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.downstream
    }

    /// The relay's upstream site identity.
    pub fn id(&self) -> SiteId {
        self.writer.site
    }

    /// The relay's current upstream epoch.
    pub fn epoch(&self) -> Epoch {
        self.writer.epoch
    }

    /// Cut the relay's next upstream epoch: one delta frame per stream
    /// whose merged child state changed since the last cut — the sum of
    /// the child changes committed since then — bracketed by `Hello` and
    /// `Commit`.
    ///
    /// Trace propagation: each upstream delta re-ships the stream's last
    /// child frame context *verbatim* (same trace id, span id, and cut
    /// timestamp), so the root coordinator's merge spans parent directly
    /// onto the originating site cut and cut→commit latency stays
    /// end-to-end rather than per-hop. Under fan-in the last contributor's
    /// context wins — the lineage ring, not the trace, is the exhaustive
    /// record of who contributed.
    pub fn cut_upstream(&mut self) -> Result<Vec<Bytes>, WireError> {
        let downstream = &self.downstream;
        let changes = downstream
            .take_unshipped()
            .into_iter()
            .map(|(stream, delta)| (stream, delta, downstream.stream_context(stream)));
        self.writer.cut(changes, None)
    }

    /// Cumulative upstream resync: the child-facing store as
    /// epoch-stamped snapshots (replace semantics upstream), taken under
    /// the lock that clears the unshipped sum — so the next cut ships
    /// exactly what commits after it. Heals any watermark divergence,
    /// exactly like [`crate::site::Site::resync_frames`]. Each snapshot
    /// carries its stream's last child context.
    pub fn resync_upstream(&mut self) -> Result<Vec<Bytes>, WireError> {
        let downstream = &self.downstream;
        let store = downstream
            .take_store()
            .into_iter()
            .map(|(stream, vector)| (stream, vector, downstream.stream_context(stream)));
        self.writer.resync(store)
    }

    /// Cut the next upstream epoch and run it through `upstream`'s epoch
    /// loop ([`Collector::deliver`]), honouring resync demands and any
    /// resync owed by an earlier failed delivery.
    ///
    /// # Errors
    /// See [`Collector::deliver`]; the relay then owes a resync.
    fn flush(&mut self, upstream: &mut Collector<impl Link>) -> Result<(), TransportError> {
        let delivered = self
            .cut_upstream()
            .map_err(TransportError::from)
            .and_then(|frames| upstream.deliver(self.writer.epoch, frames, self));
        if delivered.is_err() {
            self.writer.owes_resync = true;
        }
        delivered.map(drop)
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

    /// Cut an upstream epoch from the current merged child state and
    /// ship it through the epoch loop ([`crate::session::Collector::deliver`]),
    /// honouring upstream resync demands.
    pub fn flush_upstream(&mut self) -> Result<(), TransportError> {
        self.relay.flush(&mut self.upstream)
    }

    /// Stop the child-facing server and drop the upstream connection.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{Hello, Site};
    use crate::wire::{encode_frame, FrameKind};
    use setstream_core::SketchVector;
    use setstream_stream::{StreamId, Update};

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
    fn frames_committed_before_the_relay_wraps_its_coordinator_ship_first() {
        let fam = family();
        let mut site = Site::new(1, fam);
        site.observe(&Update::insert(StreamId(0), 7, 1));
        let children = Coordinator::new(fam);
        for frame in site.cut_epoch().unwrap().frames {
            children.ingest_frame_from(1, &frame).unwrap();
        }
        let mut relay = Relay::with_coordinator(1000, children);
        let root = Coordinator::new(fam);
        for frame in relay.cut_upstream().unwrap() {
            root.ingest_frame_from(1000, &frame).unwrap();
        }
        let relayed = root.merged_synopsis(StreamId(0)).unwrap();
        let direct = site.synopsis(StreamId(0)).unwrap();
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

    #[derive(Debug, Clone)]
    enum RelayOp {
        /// A child observes `updates`, cuts, and delivers the first
        /// `keep` frames of the cut; the rest land before its next cut.
        Child { site: usize, updates: Vec<(u32, u64, bool)>, keep: usize },
        /// A child crashes, restores its last checkpoint (its undelivered
        /// frames are gone) and resyncs to the relay.
        Crash { site: usize },
        /// The relay flushes upstream; a `lost` flush runs over a link
        /// that drops frames and gives up after one attempt.
        Flush { lost: bool },
        /// The root demands a resync (a stale hello in the relay's name);
        /// the next flush answers it.
        Demand,
        /// The relay ships a resync straight away, with child changes
        /// committed since its last cut.
        Resync,
    }

    fn relay_op() -> impl proptest::strategy::Strategy<Value = RelayOp> {
        use proptest::prelude::*;
        let update = (0u32..2, 0u64..16, any::<bool>());
        prop_oneof![
            (0usize..3, proptest::collection::vec(update, 0..12), 0usize..5)
                .prop_map(|(site, updates, keep)| RelayOp::Child { site, updates, keep }),
            (0usize..3).prop_map(|site| RelayOp::Crash { site }),
            any::<bool>().prop_map(|lost| RelayOp::Flush { lost }),
            Just(RelayOp::Demand),
            Just(RelayOp::Resync),
        ]
    }

    fn same_cells(a: Option<SketchVector>, b: Option<SketchVector>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => a
                .sketches()
                .iter()
                .zip(b.sketches())
                .all(|(x, y)| x.counters() == y.counters()),
            _ => false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn root_equals_the_relay_store_after_every_flush(
            ops in proptest::collection::vec(relay_op(), 1..40),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use crate::network::{FaultSpec, MemoryPipe};

            let fam = SketchFamily::builder().copies(4).second_level(4).seed(31).build();
            let root = Arc::new(Coordinator::new(fam));
            let mut relay = Relay::new(1000, fam);
            let metrics = Arc::new(TransportMetrics::new());
            let pipe = |spec: FaultSpec, attempts: u32, seed: u64| {
                let opts = TransportOptions::builder().max_attempts(attempts).build().unwrap();
                MemoryPipe::new(Arc::clone(&root), spec, seed, opts, Arc::clone(&metrics)).unwrap()
            };
            let mut upstream = pipe(FaultSpec::reliable(), 8, seed);
            let lossy = FaultSpec { drop: 0.5, ..FaultSpec::reliable() };
            let mut sites: Vec<Site> = (0..3).map(|i| Site::new(i, fam)).collect();
            let mut pending: Vec<Vec<Bytes>> = vec![Vec::new(); 3];
            let mut checkpoints: Vec<Option<Vec<u8>>> = vec![None; 3];
            let children = Arc::clone(relay.coordinator());
            let child = |site: &Site, frames: &[Bytes]| {
                for frame in frames {
                    let _ = children.ingest_frame_from(site.id(), frame);
                }
            };
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    RelayOp::Child { site, updates, keep } => {
                        child(&sites[site], &std::mem::take(&mut pending[site]));
                        for (stream, element, insert) in updates {
                            sites[site].observe(&if insert {
                                Update::insert(StreamId(stream), element, 1)
                            } else {
                                Update::delete(StreamId(stream), element, 1)
                            });
                        }
                        let cut = sites[site].cut_epoch().unwrap();
                        let keep = keep.min(cut.frames.len());
                        child(&sites[site], &cut.frames[..keep]);
                        pending[site] = cut.frames[keep..].to_vec();
                        checkpoints[site] = Some(cut.checkpoint);
                    }
                    RelayOp::Crash { site } => {
                        if let Some(wal) = &checkpoints[site] {
                            sites[site] = Site::restore_from_bytes(wal).unwrap();
                            pending[site].clear();
                            let frames = sites[site].resync_frames().unwrap();
                            child(&sites[site], &frames);
                        }
                    }
                    RelayOp::Demand => {
                        let hello = encode_frame(
                            FrameKind::Hello,
                            &Hello { site: relay.id(), family: fam, resume_epoch: 0 },
                        )
                        .unwrap();
                        let _ = root.ingest_frame_from(relay.id(), &hello);
                    }
                    RelayOp::Resync => {
                        for frame in relay.resync_upstream().unwrap() {
                            root.ingest_frame_from(relay.id(), &frame).unwrap();
                        }
                    }
                    RelayOp::Flush { lost: true } => {
                        let mut link = pipe(lossy, 1, seed ^ step as u64);
                        if relay.flush(&mut link).is_err() {
                            proptest::prop_assert!(relay.writer.owes_resync);
                        }
                    }
                    RelayOp::Flush { lost: false } => {
                        relay.flush(&mut upstream).unwrap();
                        proptest::prop_assert!(!relay.writer.owes_resync);
                        for stream in [StreamId(0), StreamId(1)] {
                            let store = relay.coordinator().merged_synopsis(stream);
                            proptest::prop_assert!(
                                same_cells(root.merged_synopsis(stream), store.clone()),
                                "step {}: root differs from the relay store on stream {}",
                                step,
                                stream
                            );
                            if pending.iter().all(Vec::is_empty) {
                                let mut sum: Option<SketchVector> = None;
                                for v in sites.iter().filter_map(|s| s.synopsis(stream)) {
                                    match sum.as_mut() {
                                        None => sum = Some(v.clone()),
                                        Some(acc) => acc.merge_from(v).unwrap(),
                                    }
                                }
                                proptest::prop_assert!(
                                    same_cells(store, sum),
                                    "step {}: relay store differs from the child sum on stream {}",
                                    step,
                                    stream
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The relay's trace rules, read off its own frames: a cut's Hello
    /// carries no context, each Delta re-ships its stream's last child
    /// context unchanged, and the Commit carries the last context a Delta
    /// carried; a resync puts each stream's context on its Synopsis only.
    #[test]
    fn relay_frames_carry_their_streams_child_contexts() {
        use crate::wire::decode_frame_parts;
        use setstream_obs::{RingRecorder, TraceHandle};

        let fam = family();
        let trace = TraceHandle::new(Arc::new(RingRecorder::new(64)));
        let mut relay = Relay::new(1000, fam);
        // Sites 3 and 4 trace their cuts on streams 0 and 1; site 5, on
        // stream 2, does not.
        let mut child_ctx = Vec::new();
        for (id, stream) in [(3, 0), (4, 1), (5, 2)] {
            let mut site = Site::new(id, fam);
            if id != 5 {
                site.set_trace(trace.clone());
            }
            site.observe(&Update::insert(StreamId(stream), 1, 1));
            let cut = site.cut_epoch().unwrap();
            child_ctx.push(decode_frame_parts(cut.frames[0].clone()).unwrap().2);
            for frame in &cut.frames {
                relay.coordinator().ingest_frame_from(id, frame).unwrap();
            }
        }
        assert!(child_ctx[0].is_some() && child_ctx[1].is_some() && child_ctx[2].is_none());
        assert_ne!(child_ctx[0], child_ctx[1]);
        let contexts = |frames: Vec<Bytes>| -> Vec<_> {
            frames
                .into_iter()
                .map(|f| decode_frame_parts(f).unwrap().2)
                .collect()
        };

        let cut = contexts(relay.cut_upstream().unwrap());
        let (ctx0, ctx1) = (child_ctx[0], child_ctx[1]);
        assert_eq!(
            cut,
            vec![None, ctx0, ctx1, None, ctx1],
            "hello, 3 deltas, commit"
        );

        let resync = contexts(relay.resync_upstream().unwrap());
        assert_eq!(
            resync,
            vec![None, ctx0, ctx1, None, None],
            "hello, 3 synopses, commit"
        );
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
