//! The in-memory network: the fault layer both transports share, and the
//! in-memory driver of the collection protocol.
//!
//! The paper's deployment ships synopses from sites to a central
//! processor "periodically" over a real network; frames can be dropped,
//! corrupted, duplicated, reordered, delayed or cut short in flight.
//! [`LossyLink`] injects those faults from a seeded [`FaultSpec`], one
//! link per connection; the TCP proxy
//! ([`crate::transport::FaultyListener`]) and the [`MemoryPipe`] both run
//! it, so a fault script means the same thing on either transport.
//!
//! [`MemoryPipe`] is the second driver of
//! [`crate::session::CollectionSession`]: frames cross a [`LossyLink`]
//! into an in-process [`CoordinatorHandler`] — the same handler a
//! [`crate::transport::CoordinatorServer`] runs — and its ack frames come
//! back. A read that finds no ack once the link has drained empty is a
//! timeout, and back-offs are counted but never slept, so in-memory
//! collection runs exactly the protocol remote peers speak at no wall
//! time.

use crate::coordinator::Coordinator;
use crate::metrics::TransportMetrics;
use crate::session::{Collector, Event, Link};
use crate::transport::{
    AckMessage, CoordinatorHandler, FrameHandler, FrameReader, ServerRole, TransportError,
    TransportOptions,
};
use crate::wire::{decode_message, DecodedFrame, Message};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setstream_obs::Counter;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Fault model for a simulated link.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a surviving frame has one byte corrupted.
    pub corrupt: f64,
    /// Probability a surviving frame is delivered twice.
    pub duplicate: f64,
    /// Shuffle delivery order within a round.
    pub reorder: bool,
    /// Probability a surviving frame is cut short. A cut frame poisons a
    /// byte stream, so the connection dies at it: that frame, everything
    /// offered after it, and every held-back frame are lost.
    pub truncate: f64,
    /// Probability a surviving frame is held back one delivery round.
    pub delay: f64,
    /// When nonzero, reordering shuffles within consecutive bursts of
    /// this many frames instead of the whole round — models switch-queue
    /// jitter rather than wholesale scrambling. Only meaningful with
    /// `reorder` set.
    pub reorder_burst: u32,
    /// When nonzero, the link blacks out the first [`partition_for`]
    /// frames of every `partition_every`-frame window, counted over the
    /// frames offered on the whole path (see [`LossyLink::with_path`]).
    /// Models a recurring partition.
    ///
    /// [`partition_for`]: FaultSpec::partition_for
    pub partition_every: u64,
    /// Length of each partition window, in frames. A value ≥
    /// `partition_every` is a permanent blackout.
    pub partition_for: u64,
}

/// A [`FaultSpec`] field that is not a probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpecError {
    /// Which probability field is out of range.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault probability `{}` = {} outside [0, 1]",
            self.field, self.value
        )
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultSpec {
    /// A perfect link.
    pub fn reliable() -> Self {
        FaultSpec {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: false,
            truncate: 0.0,
            delay: 0.0,
            reorder_burst: 0,
            partition_every: 0,
            partition_for: 0,
        }
    }

    /// A nasty link: 30% drops, 10% corruption, 10% duplication,
    /// reordering, 5% truncation, 10% one-round delays.
    pub fn nasty() -> Self {
        FaultSpec {
            drop: 0.3,
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: true,
            truncate: 0.05,
            delay: 0.1,
            ..FaultSpec::reliable()
        }
    }

    /// Check every probability is in `[0, 1]` (and not NaN).
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        for (field, value) in [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("duplicate", self.duplicate),
            ("truncate", self.truncate),
            ("delay", self.delay),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultSpecError { field, value });
            }
        }
        Ok(())
    }
}

/// The fault seed for soak/acceptance tests: `SETSTREAM_FAULT_SEED` if
/// set and parseable, else `default`. Pair with [`SeedEcho`] so a red run
/// prints the seed it used and replays deterministically.
pub fn fault_seed(default: u64) -> u64 {
    match std::env::var("SETSTREAM_FAULT_SEED") {
        Ok(v) => v.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Drop guard that prints `SETSTREAM_FAULT_SEED=<seed>` to stderr when
/// the owning thread is panicking — i.e. exactly when a seeded test goes
/// red — so the failure can be replayed with
/// `SETSTREAM_FAULT_SEED=<seed> cargo test ...`.
#[derive(Debug)]
pub struct SeedEcho {
    seed: u64,
}

impl SeedEcho {
    /// Guard the current scope with `seed`.
    pub fn new(seed: u64) -> Self {
        SeedEcho { seed }
    }

    /// The seed this guard will echo.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Drop for SeedEcho {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "test failed under fault seed — replay with SETSTREAM_FAULT_SEED={}",
                self.seed
            );
        }
    }
}

/// A seeded, fault-injecting unidirectional link: one connection's worth
/// of the network path.
#[derive(Debug)]
pub struct LossyLink {
    spec: FaultSpec,
    rng: StdRng,
    in_flight: Vec<Bytes>,
    delayed: Vec<Bytes>,
    /// Frames offered on the whole path, shared by every connection over
    /// it: the partition-window phase.
    path: Arc<Counter>,
    /// A truncation killed this connection.
    cut: bool,
    /// Total frames accepted for transmission.
    pub sent: u64,
    /// Frames dropped by the link (including partition blackouts).
    pub dropped: u64,
    /// Frames corrupted by the link.
    pub corrupted: u64,
    /// Truncations (each one killed its connection).
    pub truncated: u64,
}

impl LossyLink {
    /// A link with the given faults and deterministic seed.
    pub fn new(spec: FaultSpec, seed: u64) -> Result<Self, FaultSpecError> {
        spec.validate()?;
        Ok(LossyLink {
            spec,
            rng: StdRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            delayed: Vec::new(),
            path: Arc::new(Counter::new()),
            cut: false,
            sent: 0,
            dropped: 0,
            corrupted: 0,
            truncated: 0,
        })
    }

    /// Count the partition phase on `path`, a counter shared by every
    /// connection over the same network path, so that reconnecting never
    /// resets a partition window.
    pub fn with_path(mut self, path: Arc<Counter>) -> Self {
        self.path = path;
        self
    }

    /// Start the next connection over the same path, seeded with `seed`:
    /// frames in flight or held back die with the old connection; the
    /// partition phase and the fault tallies carry on.
    pub fn reconnect(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.in_flight.clear();
        self.delayed.clear();
        self.cut = false;
    }

    /// Whether a truncation killed this connection.
    pub fn is_cut(&self) -> bool {
        self.cut
    }

    /// Whether nothing is in flight or held back.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.delayed.is_empty()
    }

    /// Offer a frame for transmission.
    ///
    /// Extra fault draws (`truncate`, `delay`) only consume RNG state
    /// when their probability is nonzero, so seeded schedules for the
    /// original drop/corrupt/duplicate specs are unchanged.
    pub fn send(&mut self, frame: Bytes) {
        self.sent += 1;
        if self.cut {
            return;
        }
        if self.spec.partition_every > 0 {
            self.path.inc();
            if (self.path.get() - 1) % self.spec.partition_every < self.spec.partition_for {
                self.dropped += 1;
                return;
            }
        }
        if self.rng.gen_bool(self.spec.drop) {
            self.dropped += 1;
            return;
        }
        if self.spec.truncate > 0.0 && self.rng.gen_bool(self.spec.truncate) {
            self.truncated += 1;
            self.cut = true;
            self.delayed.clear();
            return;
        }
        let frame = if self.rng.gen_bool(self.spec.corrupt) {
            self.corrupted += 1;
            let mut bytes = frame.to_vec();
            if !bytes.is_empty() {
                let i = self.rng.gen_range(0..bytes.len());
                // analyze: allow(indexing) — `i` drawn from `0..bytes.len()` on a non-empty buffer
                bytes[i] ^= 1 << self.rng.gen_range(0..8);
            }
            Bytes::from(bytes)
        } else {
            frame
        };
        if self.rng.gen_bool(self.spec.duplicate) {
            self.in_flight.push(frame.clone());
        }
        if self.spec.delay > 0.0 && self.rng.gen_bool(self.spec.delay) {
            self.delayed.push(frame);
        } else {
            self.in_flight.push(frame);
        }
    }

    /// Drain everything currently in flight (one delivery round). Frames
    /// the `delay` fault held back join the *next* round's traffic.
    pub fn drain(&mut self) -> Vec<Bytes> {
        if self.spec.reorder {
            if self.spec.reorder_burst > 1 {
                // Shuffle within consecutive bursts only.
                let burst = self.spec.reorder_burst as usize;
                for chunk in self.in_flight.chunks_mut(burst) {
                    for i in (1..chunk.len()).rev() {
                        let j = self.rng.gen_range(0..=i);
                        chunk.swap(i, j);
                    }
                }
            } else {
                // Fisher–Yates with the link's own RNG.
                for i in (1..self.in_flight.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    self.in_flight.swap(i, j);
                }
            }
        }
        let out = std::mem::take(&mut self.in_flight);
        self.in_flight = std::mem::take(&mut self.delayed);
        out
    }
}

/// The in-memory driver of a [`crate::session::CollectionSession`]: one
/// site's connection through a [`LossyLink`] into an in-process
/// [`CoordinatorHandler`].
///
/// A read drains the link — every round, including what the delay fault
/// held back — before it returns the first ack, so no frame outlives the
/// exchange that sent it; with no ack it is a timeout, or a lost
/// connection if a truncation cut the link. The handler's end frames the
/// byte stream with a [`FrameReader`], like a socket server: a desync
/// drops the connection server-side after the acks it already produced,
/// so later reads time out.
/// Each reconnect opens connection `i` with link seed `seed + i`, as the
/// TCP proxy does.
pub struct PipeLink {
    handler: CoordinatorHandler,
    link: LossyLink,
    seed: u64,
    conn: u64,
    reader: FrameReader,
    max_frame: usize,
    /// The handler's end dropped this connection after a desync.
    desynced: bool,
    acks: VecDeque<AckMessage>,
    metrics: Arc<TransportMetrics>,
}

/// In-memory collection client: a [`crate::session::CollectionSession`]
/// driven over a [`PipeLink`].
pub type MemoryPipe = Collector<PipeLink>;

impl MemoryPipe {
    /// A pipe from one site into `coordinator`, faulted by `spec` from
    /// `seed`. Frames, acks, retransmits, timeouts and back-offs count
    /// into `metrics`, and the handler's acks into `acks_sent`.
    pub fn new(
        coordinator: Arc<Coordinator>,
        spec: FaultSpec,
        seed: u64,
        opts: TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Result<Self, TransportError> {
        let link = PipeLink {
            handler: CoordinatorHandler::new(
                coordinator,
                Arc::clone(&metrics),
                ServerRole::Coordinator,
                &opts,
            ),
            link: LossyLink::new(spec, seed)?,
            seed,
            conn: 0,
            reader: FrameReader::new(opts.max_frame()),
            max_frame: opts.max_frame(),
            desynced: false,
            acks: VecDeque::new(),
            metrics: Arc::clone(&metrics),
        };
        Ok(Collector::with_link(link, &opts, metrics))
    }
}

impl PipeLink {
    /// The fault layer, with its tallies over every connection so far.
    pub fn faults(&self) -> &LossyLink {
        &self.link
    }

    /// The handler's end of the connection: frame the bytes and hand
    /// whole frames to the handler, queueing its acks for the client.
    fn deliver(&mut self, bytes: &[u8]) {
        if self.desynced {
            return;
        }
        self.reader.extend(bytes);
        loop {
            match self.reader.next_frame() {
                Ok(Some(frame)) => {
                    for reply in self.handler.on_frame(self.conn, frame) {
                        self.metrics.frames_in.inc();
                        self.metrics.bytes_in.add(reply.len() as u64);
                        if let Ok(DecodedFrame {
                            message: Message::Ack(ack),
                            ..
                        }) = decode_message(reply)
                        {
                            self.acks.push_back(ack);
                        }
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    self.metrics.desyncs.inc();
                    self.handler.on_wire_error(self.conn, &e);
                    self.handler.on_disconnect(self.conn);
                    self.desynced = true;
                    return;
                }
            }
        }
    }
}

impl Link for PipeLink {
    fn send(&mut self, frames: &[Bytes]) -> Result<bool, TransportError> {
        for frame in frames {
            self.metrics.frames_out.inc();
            self.metrics.bytes_out.add(frame.len() as u64);
            self.link.send(frame.clone());
        }
        Ok(true)
    }

    fn recv(&mut self) -> Event {
        while !self.link.is_idle() {
            for bytes in self.link.drain() {
                self.deliver(&bytes);
            }
        }
        match self.acks.pop_front() {
            Some(ack) => Event::Ack(ack),
            None if self.link.is_cut() => Event::Lost,
            None => Event::Timeout,
        }
    }

    fn reconnect(&mut self) {
        if !self.desynced {
            self.handler.on_disconnect(self.conn);
        }
        self.conn += 1;
        self.link.reconnect(self.seed.wrapping_add(self.conn));
        self.reader = FrameReader::new(self.max_frame);
        self.desynced = false;
        self.acks.clear();
    }

    fn backoff(&mut self, _attempt: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use setstream_core::SketchFamily;
    use setstream_stream::{StreamId, Update};

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(32)
            .second_level(8)
            .seed(5)
            .build()
    }

    /// A site with traffic on three streams: one cut is Hello, three
    /// deltas and a Commit.
    fn busy_site(id: u32) -> Site {
        let mut site = Site::new(id, family());
        for e in 0..2000u64 {
            site.observe(&Update::insert(StreamId((e % 3) as u32), e, 1));
        }
        site
    }

    fn opts(max_attempts: u32) -> TransportOptions {
        TransportOptions::builder()
            .max_attempts(max_attempts)
            .build()
            .unwrap()
    }

    fn pipe(coord: &Arc<Coordinator>, spec: FaultSpec, seed: u64, attempts: u32) -> MemoryPipe {
        let metrics = Arc::new(TransportMetrics::new());
        MemoryPipe::new(Arc::clone(coord), spec, seed, opts(attempts), metrics).unwrap()
    }

    fn assert_matches_site(coord: &Coordinator, site: &Site) {
        for stream in site.streams() {
            let merged = coord.merged_synopsis(stream).unwrap();
            for (m, s) in merged
                .sketches()
                .iter()
                .zip(site.synopsis(stream).unwrap().sketches())
            {
                assert_eq!(m.counters(), s.counters(), "stream {stream}");
            }
        }
    }

    #[test]
    fn reliable_link_delivers_in_one_round() {
        let coord = Arc::new(Coordinator::new(family()));
        let metrics = Arc::new(TransportMetrics::new());
        let mut pipe = MemoryPipe::new(
            Arc::clone(&coord),
            FaultSpec::reliable(),
            1,
            opts(3),
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut site = busy_site(1);
        let cut = site.cut_epoch().unwrap();
        let frames = cut.frames.len() as u64;
        pipe.ship(cut.epoch, cut.frames).unwrap();
        pipe.flush().unwrap();
        assert_eq!(pipe.in_flight(), 0);
        assert_eq!(pipe.link().faults().sent, frames);
        assert_eq!(metrics.frames_out.get(), frames);
        assert_eq!(metrics.retransmits.get(), 0);
        assert_eq!(metrics.acks_sent.get(), 1);
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn nasty_link_converges_to_exact_state() {
        let coord = Arc::new(Coordinator::new(family()));
        let mut pipe = pipe(&coord, FaultSpec::nasty(), 99, 64);
        let mut site = busy_site(1);
        let report = pipe.collect(&mut site).unwrap();
        assert!(report.attempts > 1, "faults should force retransmission");
        let faults = pipe.link().faults();
        assert!(faults.dropped > 0 || faults.corrupted > 0);
        // The merged synopsis must be identical despite duplicates,
        // corruption and reordering.
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn total_blackout_reports_incomplete() {
        let coord = Arc::new(Coordinator::new(family()));
        let drop_all = FaultSpec {
            drop: 1.0,
            ..FaultSpec::reliable()
        };
        let mut pipe = pipe(&coord, drop_all, 3, 5);
        let mut site = busy_site(1);
        let cut = site.cut_epoch().unwrap();
        let frames = cut.frames.len();
        pipe.ship(cut.epoch, cut.frames).unwrap();
        match pipe.flush() {
            Err(TransportError::Undelivered { missing, attempts }) => {
                assert_eq!(missing, frames);
                assert_eq!(attempts, 5);
            }
            other => panic!("expected Undelivered, got {other:?}"),
        }
        assert_eq!(pipe.link().faults().sent, 5 * frames as u64);
    }

    #[test]
    fn coin_mismatch_is_fatal_not_retried() {
        let other = SketchFamily::builder()
            .copies(32)
            .second_level(8)
            .seed(6)
            .build();
        let mut site = Site::new(2, other);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let coord = Arc::new(Coordinator::new(family()));
        let mut pipe = pipe(&coord, FaultSpec::reliable(), 4, 10);
        match pipe.collect(&mut site) {
            Err(TransportError::Refused { site: 2, epoch: 1 }) => {}
            other => panic!("expected Refused, got {other:?}"),
        }
        assert_eq!(
            pipe.link().faults().sent,
            3,
            "one attempt: hello, delta, commit"
        );
    }

    #[test]
    fn link_stats_are_tracked() {
        let mut link = LossyLink::new(
            FaultSpec {
                drop: 0.5,
                ..FaultSpec::reliable()
            },
            7,
        )
        .unwrap();
        for _ in 0..1000 {
            link.send(Bytes::from_static(b"xyz"));
        }
        assert_eq!(link.sent, 1000);
        assert!(link.dropped > 400 && link.dropped < 600, "{}", link.dropped);
        assert_eq!(link.drain().len() as u64, 1000 - link.dropped);
        assert!(link.drain().is_empty(), "drain empties the link");
    }

    #[test]
    fn duplicates_do_not_double_merge() {
        let coord = Arc::new(Coordinator::new(family()));
        let dup_all = FaultSpec {
            duplicate: 1.0,
            ..FaultSpec::reliable()
        };
        let mut pipe = pipe(&coord, dup_all, 11, 3);
        let mut site = busy_site(1);
        let report = pipe.collect(&mut site).unwrap();
        assert_eq!(report.attempts, 1);
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn partition_window_blackholes_in_cycles() {
        let mut link = LossyLink::new(
            FaultSpec {
                partition_every: 10,
                partition_for: 4,
                ..FaultSpec::reliable()
            },
            0,
        )
        .unwrap();
        for _ in 0..30 {
            link.send(Bytes::from_static(b"frame"));
        }
        // First 4 of every 10 frames vanish: 3 windows × 4 frames.
        assert_eq!(link.dropped, 12);
        assert_eq!(link.drain().len(), 18);
        // The phase belongs to the path: a reconnect does not reset it.
        link.reconnect(1);
        for _ in 0..10 {
            link.send(Bytes::from_static(b"frame"));
        }
        assert_eq!(link.dropped, 16);
    }

    #[test]
    fn permanent_partition_recovers_after_spec_swap() {
        // partition_for >= partition_every is a total blackout; a healed
        // path is a new pipe to the same coordinator, and the epoch the
        // blackout swallowed heals by resync.
        let coord = Arc::new(Coordinator::new(family()));
        let dark = FaultSpec {
            partition_every: 1,
            partition_for: 1,
            ..FaultSpec::reliable()
        };
        let mut site = busy_site(1);
        assert!(pipe(&coord, dark, 0, 3).collect(&mut site).is_err());
        for e in 2000..2100u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let report = pipe(&coord, FaultSpec::reliable(), 0, 3)
            .collect(&mut site)
            .unwrap();
        assert_eq!(report.resyncs, 1, "the swallowed epoch leaves a gap");
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn delayed_frames_arrive_next_round() {
        let mut link = LossyLink::new(
            FaultSpec {
                delay: 1.0,
                ..FaultSpec::reliable()
            },
            0,
        )
        .unwrap();
        link.send(Bytes::from_static(b"late"));
        assert!(link.drain().is_empty(), "delayed out of this round");
        assert_eq!(link.drain().len(), 1, "and into the next");
    }

    #[test]
    fn truncation_is_survivable_loss() {
        let coord = Arc::new(Coordinator::new(family()));
        let truncating = FaultSpec {
            truncate: 0.5,
            ..FaultSpec::reliable()
        };
        let mut pipe = pipe(&coord, truncating, 13, 64);
        let mut site = busy_site(1);
        let report = pipe.collect(&mut site).unwrap();
        assert!(
            pipe.link().faults().truncated > 0,
            "seed must exercise truncation"
        );
        assert!(report.attempts > 1, "a cut connection is a failed attempt");
        assert_eq!(
            coord.metrics().rejections_for("wire"),
            0,
            "cut frames never arrive"
        );
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn truncation_kills_the_connection_at_the_cut_frame() {
        let mut link = LossyLink::new(
            FaultSpec {
                truncate: 1.0,
                delay: 1.0,
                ..FaultSpec::reliable()
            },
            0,
        )
        .unwrap();
        link.send(Bytes::from_static(b"cut"));
        link.send(Bytes::from_static(b"after"));
        assert!(link.is_cut());
        assert!(link.is_idle(), "nothing survives the cut");
        link.reconnect(1);
        assert!(!link.is_cut(), "a fresh connection is whole");
    }

    #[test]
    fn reorder_burst_shuffles_within_bursts_only() {
        let mut link = LossyLink::new(
            FaultSpec {
                reorder: true,
                reorder_burst: 4,
                ..FaultSpec::reliable()
            },
            3,
        )
        .unwrap();
        for i in 0..16u8 {
            link.send(Bytes::from(vec![i]));
        }
        for (burst, chunk) in link.drain().chunks(4).enumerate() {
            for b in chunk {
                let v = b[0] as usize;
                assert!(
                    v / 4 == burst,
                    "frame {v} escaped burst {burst} — burst reorder must be local"
                );
            }
        }
    }

    #[test]
    fn fault_seed_prefers_env_and_seed_echo_is_quiet_on_success() {
        // No env override in the test environment → default wins. (Tests
        // run in-process; we avoid mutating the process environment.)
        if std::env::var("SETSTREAM_FAULT_SEED").is_err() {
            assert_eq!(fault_seed(77), 77);
        }
        let echo = SeedEcho::new(42);
        assert_eq!(echo.seed(), 42);
        drop(echo); // not panicking → silent
    }

    #[test]
    fn invalid_fault_spec_is_a_typed_error() {
        let bad = FaultSpec {
            drop: 1.5,
            ..FaultSpec::reliable()
        };
        let err = bad.validate().unwrap_err();
        assert_eq!(err.field, "drop");
        assert_eq!(err.value, 1.5);
        assert!(LossyLink::new(bad, 0).is_err());
        let coord = Arc::new(Coordinator::new(family()));
        let metrics = Arc::new(TransportMetrics::new());
        assert!(matches!(
            MemoryPipe::new(coord, bad, 0, opts(1), metrics),
            Err(TransportError::Faults(_))
        ));
        let nan = FaultSpec {
            corrupt: f64::NAN,
            ..FaultSpec::reliable()
        };
        assert_eq!(nan.validate().unwrap_err().field, "corrupt");
    }

    #[test]
    fn collection_over_nasty_link_matches_ground_truth() {
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Arc::new(Coordinator::new(fam));
        let mut pipe = pipe(&coord, FaultSpec::nasty(), 17, 64);
        for epoch in 0..3 {
            for e in 0..400u64 {
                site.observe(&Update::insert(StreamId(0), epoch * 1000 + e, 1));
            }
            let report = pipe.collect(&mut site).unwrap();
            assert_eq!(report.epoch, epoch + 1);
            assert!(!report.checkpoint.is_empty());
        }
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn collection_survives_quarantine_with_backoff() {
        let fam = family();
        let mut site = Site::new(3, fam);
        // Quarantine trips on the very first corrupt frame, and only the
        // retried Hello of a backed-off attempt lifts it.
        let coord = Arc::new(Coordinator::new(fam).with_quarantine_after(1));
        let corrupting = FaultSpec {
            corrupt: 0.4,
            ..FaultSpec::reliable()
        };
        let metrics = Arc::new(TransportMetrics::new());
        let mut pipe = MemoryPipe::new(
            Arc::clone(&coord),
            corrupting,
            23,
            opts(256),
            Arc::clone(&metrics),
        )
        .unwrap();
        for e in 0..300u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let report = pipe.collect(&mut site).unwrap();
        assert!(
            report.attempts > 1,
            "corruption should have tripped quarantine"
        );
        assert!(coord.metrics().quarantines.get() >= 1);
        assert_eq!(
            coord.metrics().quarantines.get(),
            coord.metrics().quarantine_releases.get()
        );
        assert!(metrics.backoff_sleeps.get() >= 1, "quarantine backs off");
        assert!(!coord.site_status(3).unwrap().quarantined);
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn collection_blackout_is_undelivered() {
        let fam = family();
        let mut site = Site::new(1, fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let coord = Arc::new(Coordinator::new(fam));
        let drop_all = FaultSpec {
            drop: 1.0,
            ..FaultSpec::reliable()
        };
        match pipe(&coord, drop_all, 0, 2).collect(&mut site) {
            Err(TransportError::Undelivered {
                missing,
                attempts: 2,
            }) => {
                assert!(missing > 0);
            }
            other => panic!("expected Undelivered, got {other:?}"),
        }
    }

    #[test]
    fn crash_restart_resyncs_and_converges() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let mut pipe = pipe(&coord, FaultSpec::nasty(), 31, 64);

        let mut site = Site::new(9, fam);
        for e in 0..500u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        pipe.collect(&mut site).unwrap();

        // Epoch 2 is cut and WAL'd but never shipped — then the site dies.
        for e in 500..700u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let lost_cut = site.cut_epoch().unwrap();
        drop(site);

        // Restart from the epoch-2 WAL: the first delta after restart
        // chains from epoch 2, the coordinator is at 1 → gap → resync.
        let mut site = Site::restore_from_bytes(&lost_cut.checkpoint).unwrap();
        for e in 700..900u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let report = pipe.collect(&mut site).unwrap();
        assert!(report.resyncs >= 1, "gap must force a resync");
        assert_matches_site(&coord, &site);
    }
}
