//! The client half of the collection protocol, free of I/O.
//!
//! A [`CollectionSession`] makes every decision a collection client
//! makes: which epochs are in flight, how much credit is left, what an
//! ack means, when an epoch's attempt budget is spent, and when to
//! reconnect, back off or resync. [`Event`]s go in (acks, timeouts, lost
//! connections) and [`Request`]s come out (frames to send or resend,
//! reconnects, back-offs); the session never touches a socket, a thread
//! or a clock.
//!
//! A [`Link`] performs the requests. [`Collector`] pairs one session with
//! one link, so both transports run the same protocol:
//!
//! * [`crate::transport::TcpCollector`] — the socket driver;
//! * [`crate::network::MemoryPipe`] — frames cross a seeded
//!   [`crate::network::LossyLink`] into an in-process
//!   [`crate::transport::CoordinatorHandler`], and its acks come back.
//!
//! [`Collector::deliver`] is the one epoch loop for sites and relays:
//! ship a cut, flush, answer resync demands with a cumulative resync, and
//! give up once the attempt budget is spent.

use crate::metrics::TransportMetrics;
use crate::relay::Relay;
use crate::site::{Epoch, Site};
use crate::transport::{AckMessage, TransportError, TransportOptions};
use crate::wire::WireError;
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;

/// What a driver saw while waiting for an ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An ack frame arrived.
    Ack(AckMessage),
    /// No ack in time: a TCP read deadline passed, or the in-memory pipe
    /// drained empty.
    Timeout,
    /// The connection is unusable: end of stream, a desync, a failed
    /// write, or a truncating link.
    Lost,
}

/// Something a session asks its driver to do, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Write these frames on the current connection, opening one first if
    /// there is none.
    Send(Vec<Bytes>),
    /// Drop the current connection; the next `Send` opens a fresh one.
    Reconnect,
    /// Wait out the back-off before retry `attempt` (1-based).
    Backoff(u32),
}

/// One unacknowledged epoch batch.
#[derive(Debug)]
struct PendingEpoch {
    epoch: Epoch,
    frames: Vec<Bytes>,
    attempts: u32,
}

/// The collection client's state machine.
///
/// Every epoch batch gets `max_attempts` attempts. A failed attempt is an
/// incomplete or quarantined ack (charged to that epoch) or a timeout or
/// lost connection (charged to the oldest epoch in flight); when the last
/// attempt fails the session ends with [`TransportError::Undelivered`].
/// A resync demand discards every epoch in flight — the cumulative resync
/// supersedes them — and a coin refusal is final after one attempt.
#[derive(Debug)]
pub struct CollectionSession {
    credit_window: usize,
    max_attempts: u32,
    metrics: Arc<TransportMetrics>,
    pending: VecDeque<PendingEpoch>,
    needs_resync: bool,
    /// Retries charged over the session's lifetime.
    retries: u64,
}

impl CollectionSession {
    /// A session with `opts`' credit window and attempt budget, counting
    /// retransmits, timeouts, back-offs and credit stalls into `metrics`.
    pub fn new(opts: &TransportOptions, metrics: Arc<TransportMetrics>) -> Self {
        CollectionSession {
            credit_window: opts.credit_window(),
            max_attempts: opts.max_attempts(),
            metrics,
            pending: VecDeque::new(),
            needs_resync: false,
            retries: 0,
        }
    }

    /// Epochs in flight (unacknowledged).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Whether an ack is still owed: epochs are in flight and no resync
    /// demand has discarded them.
    pub fn awaiting_ack(&self) -> bool {
        !self.pending.is_empty() && !self.needs_resync
    }

    /// Whether one more epoch fits in the credit window.
    pub fn has_credit(&self) -> bool {
        self.pending.len() < self.credit_window
    }

    /// Take one epoch batch into the window; the returned request is its
    /// first transmission. Check [`Self::has_credit`] first.
    pub fn ship(&mut self, epoch: Epoch, frames: Vec<Bytes>) -> Request {
        self.pending.push_back(PendingEpoch {
            epoch,
            frames: frames.clone(),
            attempts: 1,
        });
        Request::Send(frames)
    }

    /// React to one event with the requests to perform next.
    ///
    /// # Errors
    /// [`TransportError::Undelivered`] when an epoch's last attempt
    /// failed, and [`TransportError::Refused`] when the peer refused the
    /// sender's stored coins.
    pub fn on_event(&mut self, event: Event) -> Result<Vec<Request>, TransportError> {
        match event {
            Event::Ack(ack) => self.on_ack(ack),
            Event::Timeout => {
                self.metrics.timeouts.inc();
                self.charge(0)?;
                self.metrics.backoff_sleeps.inc();
                let mut requests = vec![Request::Backoff(1)];
                requests.extend(self.resend_all());
                Ok(requests)
            }
            Event::Lost => {
                self.charge(0)?;
                Ok(self.resend_all())
            }
        }
    }

    /// Take a cumulative resync batch into the window. It reuses the
    /// epoch number of the cut it supersedes, so it starts on a fresh
    /// connection: no ack of the superseded batch can then be taken for
    /// its own. Epochs still in flight are resent there first.
    pub fn resync(&mut self, epoch: Epoch, frames: Vec<Bytes>) -> Vec<Request> {
        let mut requests = self.resend_all();
        requests.push(self.ship(epoch, frames));
        requests
    }

    /// Take the resync demand: `true` once per demand.
    pub fn take_resync(&mut self) -> bool {
        std::mem::take(&mut self.needs_resync)
    }

    fn on_ack(&mut self, ack: AckMessage) -> Result<Vec<Request>, TransportError> {
        let Some(pos) = self.pending.iter().position(|p| p.epoch == ack.epoch) else {
            return Ok(Vec::new()); // an epoch we no longer track
        };
        if ack.refused {
            return Err(TransportError::Refused {
                site: ack.site,
                epoch: ack.epoch,
            });
        }
        if ack.needs_resync {
            self.pending.clear();
            self.needs_resync = true;
            return Ok(Vec::new());
        }
        if ack.complete && !ack.quarantined {
            self.pending.remove(pos);
            return Ok(Vec::new());
        }
        // Frames lost in flight, or quarantined: retransmit the batch —
        // after a back-off when quarantined, whose retried Hello is what
        // lifts the quarantine at the peer.
        let attempt = self.charge(pos)?;
        let mut requests = Vec::with_capacity(2);
        if ack.quarantined {
            self.metrics.backoff_sleeps.inc();
            requests.push(Request::Backoff(attempt));
        }
        if let Some(entry) = self.pending.get(pos) {
            self.metrics.retransmits.add(entry.frames.len() as u64);
            requests.push(Request::Send(entry.frames.clone()));
        }
        Ok(requests)
    }

    /// Charge one retry to the epoch at `pos`, or fail if its last
    /// attempt just failed; returns the attempt now starting.
    fn charge(&mut self, pos: usize) -> Result<u32, TransportError> {
        let Some(entry) = self.pending.get_mut(pos) else {
            return Ok(0);
        };
        if entry.attempts >= self.max_attempts {
            return Err(TransportError::Undelivered {
                missing: entry.frames.len(),
                attempts: entry.attempts,
            });
        }
        entry.attempts += 1;
        self.retries += 1;
        Ok(entry.attempts)
    }

    /// Reconnect and retransmit every pending batch in epoch order.
    fn resend_all(&self) -> Vec<Request> {
        let mut requests = vec![Request::Reconnect];
        for entry in &self.pending {
            self.metrics.retransmits.add(entry.frames.len() as u64);
            requests.push(Request::Send(entry.frames.clone()));
        }
        requests
    }
}

/// The I/O half of a collection client: performs a session's requests
/// and reports what came back.
pub trait Link {
    /// Write `frames` in order, opening a connection first if there is
    /// none. `Ok(false)` means the connection died mid-write.
    ///
    /// # Errors
    /// No connection could be opened.
    fn send(&mut self, frames: &[Bytes]) -> Result<bool, TransportError>;
    /// Wait for the next ack.
    fn recv(&mut self) -> Event;
    /// Drop the current connection; the next send opens a fresh one.
    fn reconnect(&mut self);
    /// Wait out the back-off before retry `attempt` (1-based).
    fn backoff(&mut self, attempt: u32);
}

/// What the epoch loop needs from whoever cuts epochs: a [`Site`] or a
/// [`Relay`].
pub trait EpochSource {
    /// The last cut epoch.
    fn epoch(&self) -> Epoch;
    /// Cumulative resync frames as of the last cut.
    ///
    /// # Errors
    /// Framing the state failed.
    fn resync_frames(&mut self) -> Result<Vec<Bytes>, WireError>;
    /// Whether a resync is owed without any demand (a site restored from
    /// a checkpoint).
    fn recovering(&self) -> bool;
}

impl EpochSource for Site {
    fn epoch(&self) -> Epoch {
        Site::epoch(self)
    }

    fn resync_frames(&mut self) -> Result<Vec<Bytes>, WireError> {
        Site::resync_frames(self)
    }

    fn recovering(&self) -> bool {
        Site::recovering(self)
    }
}

impl EpochSource for Relay {
    fn epoch(&self) -> Epoch {
        Relay::epoch(self)
    }

    fn resync_frames(&mut self) -> Result<Vec<Bytes>, WireError> {
        self.resync_upstream()
    }

    fn recovering(&self) -> bool {
        false
    }
}

/// What one [`Collector::collect`] run did.
#[derive(Debug, Clone)]
pub struct CollectionReport {
    /// The epoch that was cut and shipped.
    pub epoch: Epoch,
    /// Transmission attempts: 1 plus every retry charged while the
    /// collection ran.
    pub attempts: u32,
    /// Cumulative resyncs shipped.
    pub resyncs: u32,
    /// The site's sealed post-cut checkpoint — persist this before
    /// acknowledging the epoch upstream, and feed it to
    /// [`Site::restore_from_bytes`] after a crash.
    pub checkpoint: Vec<u8>,
}

/// A collection client: one [`CollectionSession`] driven over one
/// [`Link`].
///
/// [`Collector::ship`] enqueues one epoch's frames, blocking only while
/// the credit window is full; [`Collector::flush`] drains every pending
/// ack; [`Collector::collect`] runs a whole cycle for a site.
#[derive(Debug)]
pub struct Collector<L> {
    session: CollectionSession,
    link: L,
}

impl<L: Link> Collector<L> {
    /// Drive a fresh session over `link`.
    pub(crate) fn with_link(
        link: L,
        opts: &TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        Collector {
            session: CollectionSession::new(opts, metrics),
            link,
        }
    }

    /// The driver.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Epochs currently in flight (unacknowledged).
    pub fn in_flight(&self) -> usize {
        self.session.in_flight()
    }

    /// Enqueue one epoch's frames, waiting for credit if the window is
    /// full, then transmit them. A resync demand frees the window; the
    /// frames then ride behind the resync.
    ///
    /// # Errors
    /// See [`CollectionSession::on_event`]; also connect failures.
    pub fn ship(&mut self, epoch: Epoch, frames: Vec<Bytes>) -> Result<(), TransportError> {
        if !self.session.has_credit() {
            self.session.metrics.backpressure_stalls.inc();
        }
        while !self.session.has_credit() && self.session.awaiting_ack() {
            self.await_event()?;
        }
        let first = self.session.ship(epoch, frames);
        self.perform(vec![first])
    }

    /// Drain every pending ack. Returns [`TransportError::ResyncRequired`]
    /// (once) if the peer demanded a cumulative resync; ship
    /// [`Site::resync_frames`] and flush again.
    ///
    /// # Errors
    /// See [`Self::ship`].
    pub fn flush(&mut self) -> Result<(), TransportError> {
        while self.session.awaiting_ack() {
            self.await_event()?;
        }
        if self.session.take_resync() {
            return Err(TransportError::ResyncRequired);
        }
        Ok(())
    }

    /// The epoch loop: ship one cut epoch of `source`, flush, and answer
    /// each resync demand (or a restored source's owed resync) with its
    /// cumulative resync frames ([`CollectionSession::resync`]), at most
    /// `max_attempts` times. Returns the resyncs shipped.
    ///
    /// # Errors
    /// See [`Self::ship`]; [`TransportError::Undelivered`] when the
    /// resyncs run out.
    pub fn deliver(
        &mut self,
        epoch: Epoch,
        frames: Vec<Bytes>,
        source: &mut impl EpochSource,
    ) -> Result<u32, TransportError> {
        self.ship(epoch, frames)?;
        let mut resyncs = 0u32;
        loop {
            let demand = match self.flush() {
                Ok(()) => source.recovering(),
                Err(TransportError::ResyncRequired) => true,
                Err(e) => return Err(e),
            };
            if !demand {
                return Ok(resyncs);
            }
            resyncs += 1;
            if resyncs > self.session.max_attempts {
                return Err(TransportError::Undelivered {
                    missing: 0,
                    attempts: resyncs,
                });
            }
            let frames = source.resync_frames()?;
            let requests = self.session.resync(source.epoch(), frames);
            self.perform(requests)?;
        }
    }

    /// Run one full collection cycle for `site`: cut the next epoch, run
    /// the epoch loop, and hand back the site's sealed checkpoint.
    ///
    /// # Errors
    /// See [`Self::deliver`]; also framing failures of the cut.
    pub fn collect(&mut self, site: &mut Site) -> Result<CollectionReport, TransportError> {
        let cut = site.cut_epoch()?;
        let retries = self.session.retries;
        let resyncs = self.deliver(cut.epoch, cut.frames, site)?;
        Ok(CollectionReport {
            epoch: cut.epoch,
            attempts: u32::try_from(1 + self.session.retries - retries).unwrap_or(u32::MAX),
            resyncs,
            checkpoint: cut.checkpoint,
        })
    }

    /// Feed the next event to the session and perform its answer.
    fn await_event(&mut self) -> Result<(), TransportError> {
        let requests = self.session.on_event(self.link.recv())?;
        self.perform(requests)
    }

    /// Perform `requests` in order; a connection that dies mid-write is
    /// fed back as [`Event::Lost`] and the session's answer replaces the
    /// rest.
    fn perform(&mut self, requests: Vec<Request>) -> Result<(), TransportError> {
        let mut queue = VecDeque::from(requests);
        while let Some(request) = queue.pop_front() {
            match request {
                Request::Send(frames) => {
                    if !self.link.send(&frames)? {
                        queue = self.session.on_event(Event::Lost)?.into();
                    }
                }
                Request::Reconnect => self.link.reconnect(),
                Request::Backoff(attempt) => self.link.backoff(attempt),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(credit_window: usize, max_attempts: u32) -> CollectionSession {
        let opts = TransportOptions::builder()
            .credit_window(credit_window)
            .max_attempts(max_attempts)
            .build()
            .unwrap();
        CollectionSession::new(&opts, Arc::new(TransportMetrics::new()))
    }

    fn batch(tag: u8) -> Vec<Bytes> {
        vec![Bytes::from(vec![tag]), Bytes::from(vec![tag, tag])]
    }

    fn ack(epoch: Epoch) -> AckMessage {
        AckMessage {
            site: 1,
            epoch,
            complete: true,
            needs_resync: false,
            quarantined: false,
            refused: false,
        }
    }

    #[test]
    fn complete_ack_frees_credit() {
        let mut s = session(2, 4);
        assert_eq!(s.ship(1, batch(1)), Request::Send(batch(1)));
        s.ship(2, batch(2));
        assert!(!s.has_credit());
        assert!(s.on_event(Event::Ack(ack(2))).unwrap().is_empty());
        assert!(s.has_credit());
        assert_eq!(s.in_flight(), 1);
        // Acks for epochs no longer tracked are ignored.
        assert!(s.on_event(Event::Ack(ack(2))).unwrap().is_empty());
        assert!(s.on_event(Event::Ack(ack(1))).unwrap().is_empty());
        assert!(!s.awaiting_ack());
    }

    #[test]
    fn incomplete_and_quarantined_acks_resend_that_batch() {
        let mut s = session(4, 4);
        s.ship(1, batch(1));
        s.ship(2, batch(2));
        let incomplete = AckMessage {
            complete: false,
            ..ack(2)
        };
        assert_eq!(
            s.on_event(Event::Ack(incomplete)).unwrap(),
            vec![Request::Send(batch(2))]
        );
        let quarantined = AckMessage {
            quarantined: true,
            ..ack(2)
        };
        assert_eq!(
            s.on_event(Event::Ack(quarantined)).unwrap(),
            vec![Request::Backoff(3), Request::Send(batch(2))]
        );
        assert_eq!(s.metrics.retransmits.get(), 4);
        assert_eq!(s.metrics.backoff_sleeps.get(), 1);
    }

    #[test]
    fn timeouts_and_lost_connections_reconnect_and_resend_everything() {
        let mut s = session(4, 4);
        s.ship(1, batch(1));
        s.ship(2, batch(2));
        assert_eq!(
            s.on_event(Event::Timeout).unwrap(),
            vec![
                Request::Backoff(1),
                Request::Reconnect,
                Request::Send(batch(1)),
                Request::Send(batch(2)),
            ]
        );
        assert_eq!(
            s.on_event(Event::Lost).unwrap(),
            vec![
                Request::Reconnect,
                Request::Send(batch(1)),
                Request::Send(batch(2))
            ]
        );
        assert_eq!(s.metrics.timeouts.get(), 1);
        assert_eq!(s.retries, 2);
    }

    #[test]
    fn the_oldest_epoch_runs_out_of_attempts() {
        let mut s = session(4, 2);
        s.ship(1, batch(1));
        s.on_event(Event::Lost).unwrap();
        match s.on_event(Event::Timeout) {
            Err(TransportError::Undelivered {
                missing: 2,
                attempts: 2,
            }) => {}
            other => panic!("expected Undelivered, got {other:?}"),
        }
    }

    #[test]
    fn resync_demand_discards_the_window_once() {
        let mut s = session(4, 4);
        s.ship(1, batch(1));
        s.ship(2, batch(2));
        let demand = AckMessage {
            needs_resync: true,
            ..ack(1)
        };
        assert!(s.on_event(Event::Ack(demand)).unwrap().is_empty());
        assert_eq!(s.in_flight(), 0);
        assert!(!s.awaiting_ack());
        assert!(s.take_resync());
        assert!(!s.take_resync());
    }

    #[test]
    fn resync_starts_on_a_fresh_connection() {
        // The resync reuses the cut's epoch number: on the old connection a
        // late ack of the superseded batch would be taken for its own.
        let mut s = session(4, 4);
        assert_eq!(
            s.resync(3, batch(3)),
            vec![Request::Reconnect, Request::Send(batch(3))]
        );
        // An epoch shipped behind a resync demand is not stranded on the
        // connection the next resync drops.
        s.ship(4, batch(4));
        assert_eq!(
            s.resync(4, batch(5)),
            vec![
                Request::Reconnect,
                Request::Send(batch(3)),
                Request::Send(batch(4)),
                Request::Send(batch(5)),
            ]
        );
        assert_eq!(s.in_flight(), 3);
    }

    #[test]
    fn refusal_is_final() {
        let mut s = session(4, 8);
        s.ship(1, batch(1));
        let refused = AckMessage {
            complete: false,
            refused: true,
            ..ack(1)
        };
        match s.on_event(Event::Ack(refused)) {
            Err(TransportError::Refused { site: 1, epoch: 1 }) => {}
            other => panic!("expected Refused, got {other:?}"),
        }
        assert_eq!(s.retries, 0, "a refusal is never retried");
    }
}
