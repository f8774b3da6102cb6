//! Distributed-collection metrics: frame traffic, typed rejections,
//! quarantine and resync transitions, and transport activity.
//!
//! Two instruments live here:
//!
//! * [`CoordinatorMetrics`] rides inside every [`crate::Coordinator`] and
//!   counts what the watermark guards *decide* — frames accepted by kind,
//!   frames rejected by typed reason, quarantine and resync transitions.
//!   Register the coordinator itself (it implements
//!   [`MetricSource`]) to also export collect-time gauges derived from
//!   its state: announced sites, quarantined sites, per-site commit
//!   epochs and epoch lag.
//! * [`TransportMetrics`] is shared by the collection clients and
//!   servers built from it, on either transport: frames and bytes,
//!   retransmits, timeouts, back-offs, acks and relay merges.
//!
//! All counters are relaxed atomics ([`setstream_obs::Counter`]); the hot
//! ingest path pays one increment per frame verdict.
//!
//! analyze: allow(indexing) — counter arrays are sized to the static `KINDS`/`REASONS` tables and indexed only via their position lookups

use crate::wire::FrameKind;
use setstream_obs::{Counter, MetricSource, Sample};

/// Frame kinds in export order.
const KINDS: [FrameKind; 6] = [
    FrameKind::Hello,
    FrameKind::Synopsis,
    FrameKind::Delta,
    FrameKind::Commit,
    FrameKind::Flush,
    FrameKind::Ack,
];

/// Snake-case label value for a frame kind.
pub(crate) fn kind_label(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Hello => "hello",
        FrameKind::Synopsis => "synopsis",
        FrameKind::Delta => "delta",
        FrameKind::Commit => "commit",
        FrameKind::Flush => "flush",
        FrameKind::Ack => "ack",
    }
}

fn kind_index(kind: FrameKind) -> usize {
    // analyze: allow(panic) — the static KINDS table enumerates every FrameKind variant
    KINDS.iter().position(|&k| k == kind).expect("known kind")
}

/// Typed rejection reasons in export order. Mirrors
/// [`crate::coordinator::CoordinatorError`]; see
/// [`crate::coordinator::CoordinatorError::reason`].
pub(crate) const REASONS: [&str; 7] = [
    "wire",
    "coin_mismatch",
    "stale_epoch",
    "epoch_gap",
    "quarantined",
    "estimate",
    "unknown_stream",
];

pub(crate) fn reason_index(reason: &str) -> usize {
    REASONS
        .iter()
        .position(|&r| r == reason)
        // analyze: allow(panic) — the static REASONS table covers every CoordinatorError::reason string
        .expect("known rejection reason")
}

/// Counters maintained by a [`crate::Coordinator`] as frames arrive.
///
/// Names follow the `setstream_distributed_*` convention from DESIGN.md
/// §7. Gauges (site counts, per-site staleness) are not stored here —
/// they are derived from coordinator state at scrape time by the
/// coordinator's [`MetricSource`] impl.
#[derive(Debug, Default)]
pub struct CoordinatorMetrics {
    /// Frames accepted and applied, by kind (indexed like `KINDS`).
    frames_by_kind: [Counter; 6],
    /// Frames refused, by typed reason (indexed like `REASONS`).
    rejected_by_reason: [Counter; 7],
    /// Sites newly quarantined (transitions into quarantine, not refused
    /// frames — those land in `rejected{reason="quarantined"}`).
    pub quarantines: Counter,
    /// Quarantines lifted via [`crate::Coordinator::release_quarantine`]:
    /// by a quarantined site's retried `Hello`, or by an operator.
    pub quarantine_releases: Counter,
    /// Sites newly flagged for cumulative resync (epoch gap or stale
    /// restore).
    pub resync_flags: Counter,
    /// Resync flags cleared by an applied cumulative synopsis.
    pub resyncs_healed: Counter,
    /// Expression queries answered.
    pub queries: Counter,
}

impl CoordinatorMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one accepted frame.
    pub(crate) fn record_frame(&self, kind: FrameKind) {
        self.frames_by_kind[kind_index(kind)].inc();
    }

    /// Record one rejected frame by its typed reason label.
    pub(crate) fn record_rejection(&self, reason: &str) {
        self.rejected_by_reason[reason_index(reason)].inc();
    }

    /// Accepted frames of one kind.
    pub fn frames_for(&self, kind: FrameKind) -> u64 {
        self.frames_by_kind[kind_index(kind)].get()
    }

    /// Total accepted frames (all kinds).
    pub fn frames_total(&self) -> u64 {
        self.frames_by_kind.iter().map(Counter::get).sum()
    }

    /// Rejected frames for one reason label (see
    /// [`crate::coordinator::CoordinatorError::reason`]).
    pub fn rejections_for(&self, reason: &str) -> u64 {
        self.rejected_by_reason[reason_index(reason)].get()
    }

    /// Total rejected frames (all reasons).
    pub fn rejections_total(&self) -> u64 {
        self.rejected_by_reason.iter().map(Counter::get).sum()
    }

    /// Append the counter samples (the coordinator's [`MetricSource`]
    /// impl adds state-derived gauges on top).
    pub fn collect_counters(&self, out: &mut Vec<Sample>) {
        for (kind, counter) in KINDS.iter().zip(&self.frames_by_kind) {
            out.push(
                Sample::counter("setstream_distributed_frames_total", counter.get())
                    .with_label("kind", kind_label(*kind))
                    .with_help("Delta frames accepted by the coordinator, by kind"),
            );
        }
        for (reason, counter) in REASONS.iter().zip(&self.rejected_by_reason) {
            out.push(
                Sample::counter(
                    "setstream_distributed_frames_rejected_total",
                    counter.get(),
                )
                .with_label("reason", reason)
                .with_help("Delta frames rejected by the coordinator, by reason"),
            );
        }
        out.push(
            Sample::counter(
                "setstream_distributed_quarantines_total",
                self.quarantines.get(),
            )
            .with_help("Sites placed in quarantine"),
        );
        out.push(
            Sample::counter(
                "setstream_distributed_quarantine_releases_total",
                self.quarantine_releases.get(),
            )
            .with_help("Quarantines lifted by a retried hello or the operator"),
        );
        out.push(
            Sample::counter(
                "setstream_distributed_resync_flags_total",
                self.resync_flags.get(),
            )
            .with_help("Sites flagged for full resynchronization"),
        );
        out.push(
            Sample::counter(
                "setstream_distributed_resyncs_healed_total",
                self.resyncs_healed.get(),
            )
            .with_help("Resynchronizations completed"),
        );
        out.push(
            Sample::counter(
                "setstream_distributed_queries_total",
                self.queries.get(),
            )
            .with_help("Expression queries answered from merged state"),
        );
    }
}

/// Always-on counters for collection traffic: connection lifecycle,
/// retry/backoff activity, frame and byte traffic in both directions,
/// relay merges, and the backpressure safety valve.
///
/// One instance is shared by every [`crate::transport::FrameServer`],
/// [`crate::transport::TcpCollector`], [`crate::network::MemoryPipe`]
/// and [`crate::relay::RelayNode`] that was built from it; register it
/// with a [`setstream_obs::Registry`] to export the
/// `setstream_transport_*` families. The in-memory pipe records its
/// client's frames, bytes, retransmits, timeouts and back-offs and its
/// handler's acks; connects are TCP-only.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// TCP connections established: client connects plus server
    /// accepts (a process running both sides counts each).
    pub connects: Counter,
    /// Connect attempts that failed and were retried.
    pub connect_retries: Counter,
    /// Ack waits that timed out: a TCP read deadline, or an in-memory
    /// pipe drained empty.
    pub timeouts: Counter,
    /// Back-offs between attempts (the in-memory pipe counts them but
    /// does not sleep).
    pub backoff_sleeps: Counter,
    /// Connections the server closed because the peer stopped draining
    /// its responses (write-queue cap hit) — the no-unbounded-queues
    /// contract in action.
    pub backpressure_stalls: Counter,
    /// Connections dropped for poisoned framing (bad magic/kind or an
    /// oversize declared length mid-stream).
    pub desyncs: Counter,
    /// Frames retransmitted after a timeout, a lost connection, or an
    /// incomplete or quarantined ack — every frame of each resent epoch
    /// batch.
    pub retransmits: Counter,
    /// Child delta frames folded into a relay's merged state.
    pub relay_merges: Counter,
    /// Acknowledgement frames sent by servers.
    pub acks_sent: Counter,
    /// Frames received from peers (servers and clients).
    pub frames_in: Counter,
    /// Frames written to peers (servers and clients).
    pub frames_out: Counter,
    /// Bytes received from peers.
    pub bytes_in: Counter,
    /// Bytes written to peers.
    pub bytes_out: Counter,
}

impl TransportMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricSource for TransportMetrics {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(
            Sample::counter("setstream_transport_connects_total", self.connects.get())
                .with_help("TCP connections established (client connects and server accepts)"),
        );
        out.push(
            Sample::counter(
                "setstream_transport_connect_retries_total",
                self.connect_retries.get(),
            )
            .with_help("Failed connect attempts that were retried with backoff"),
        );
        out.push(
            Sample::counter("setstream_transport_timeouts_total", self.timeouts.get())
                .with_help("Ack waits that timed out"),
        );
        out.push(
            Sample::counter(
                "setstream_transport_backoff_sleeps_total",
                self.backoff_sleeps.get(),
            )
            .with_help("Back-offs between delivery attempts"),
        );
        out.push(
            Sample::counter(
                "setstream_transport_backpressure_stalls_total",
                self.backpressure_stalls.get(),
            )
            .with_help("Connections closed because the peer stopped draining responses"),
        );
        out.push(
            Sample::counter("setstream_transport_desyncs_total", self.desyncs.get())
                .with_help("Connections dropped for unrecoverable framing corruption"),
        );
        out.push(
            Sample::counter(
                "setstream_transport_retransmits_total",
                self.retransmits.get(),
            )
            .with_help("Frames retransmitted after a timeout, lost connection or incomplete ack"),
        );
        out.push(
            Sample::counter(
                "setstream_transport_relay_merges_total",
                self.relay_merges.get(),
            )
            .with_help("Child delta frames folded into a relay's merged state"),
        );
        out.push(
            Sample::counter("setstream_transport_acks_sent_total", self.acks_sent.get())
                .with_help("Epoch acknowledgement frames sent by servers"),
        );
        for (dir, frames, bytes) in [
            ("in", &self.frames_in, &self.bytes_in),
            ("out", &self.frames_out, &self.bytes_out),
        ] {
            out.push(
                Sample::counter("setstream_transport_frames_total", frames.get())
                    .with_label("direction", dir)
                    .with_help("Wire frames exchanged with collection peers, by direction"),
            );
            out.push(
                Sample::counter("setstream_transport_bytes_total", bytes.get())
                    .with_label("direction", dir)
                    .with_help("Wire bytes exchanged with collection peers, by direction"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_rejection_accounting() {
        let m = CoordinatorMetrics::new();
        m.record_frame(FrameKind::Delta);
        m.record_frame(FrameKind::Delta);
        m.record_frame(FrameKind::Hello);
        m.record_rejection("stale_epoch");
        m.record_rejection("wire");
        m.record_rejection("wire");
        assert_eq!(m.frames_for(FrameKind::Delta), 2);
        assert_eq!(m.frames_total(), 3);
        assert_eq!(m.rejections_for("wire"), 2);
        assert_eq!(m.rejections_total(), 3);
    }

    #[test]
    fn exported_sample_names_are_complete() {
        let m = CoordinatorMetrics::new();
        let mut out = Vec::new();
        m.collect_counters(&mut out);
        assert_eq!(out.len(), KINDS.len() + REASONS.len() + 5);
        assert!(out
            .iter()
            .all(|s| s.name.starts_with("setstream_distributed_")));
    }

    #[test]
    fn transport_samples_all_carry_help() {
        let m = TransportMetrics::new();
        m.connects.inc();
        m.bytes_out.add(100);
        let mut out = Vec::new();
        m.collect(&mut out);
        assert_eq!(out.len(), 13);
        assert!(out.iter().all(|s| s.name.starts_with("setstream_transport_")));
        // Every family's first sample documents itself, so the exposition
        // conformance test (`helped` count) covers the transport plane.
        for name in [
            "setstream_transport_connects_total",
            "setstream_transport_frames_total",
            "setstream_transport_bytes_total",
            "setstream_transport_backpressure_stalls_total",
        ] {
            assert!(
                out.iter().any(|s| s.name == name && s.help.is_some()),
                "{name} lacks HELP"
            );
        }
    }
}
