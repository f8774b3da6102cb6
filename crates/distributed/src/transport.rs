//! Real networked collection: a dependency-light nonblocking TCP layer
//! speaking the SSWL frame container.
//!
//! The client half of the protocol is the I/O-free
//! [`crate::session::CollectionSession`]; this module is its socket
//! driver ([`TcpLink`], [`TcpCollector`]) plus the serving half
//! ([`FrameServer`], [`CoordinatorHandler`]). The in-memory
//! [`crate::network::MemoryPipe`] drives the same session into the same
//! handler. Design points, in paper terms:
//!
//! * **Framing.** SSWL frames are self-delimiting
//!   (`magic | kind | len | payload | crc`), so the byte stream needs no
//!   extra envelope: [`FrameReader`] peels whole frames off a TCP stream,
//!   validating the header with [`wire::frame_size_hint`] *before*
//!   buffering — a hostile or desynchronized peer can never make it
//!   allocate more than one max-size frame.
//! * **Acks and credit.** The coordinator answers every `Commit` with an
//!   [`AckMessage`] ([`FrameKind::Ack`]). A site may have at most
//!   `credit_window` unacked epochs in flight; the window advances on
//!   complete acks. Incomplete acks (frames lost in flight) retransmit
//!   the whole epoch batch — duplicates are harmless because the
//!   coordinator's watermark chain refuses them (`StaleEpoch`) and the
//!   server's ledger counts refused-as-stale frames as applied.
//! * **Bounded everything.** Every buffer has a hard cap: read buffers
//!   via [`FrameReader`], server write queues via `send_buf`, the client
//!   pipeline via `credit_window`, connection counts via `max_conns`. A
//!   wedged peer (not reading its acks) overflows its write queue and is
//!   disconnected + quarantined — siblings never stall and the
//!   coordinator never grows memory.
//! * **Failure taxonomy.** Connect failures retry with bounded
//!   exponential backoff; read timeouts and lost connections reconnect
//!   and retransmit pending epochs; stream desync (bad magic mid-stream)
//!   kills the connection; CRC-corrupt frames are attributed to the site
//!   and feed the coordinator's quarantine machinery, which the site's
//!   retried `Hello` lifts; epoch gaps surface as `needs_resync` acks and
//!   heal with a cumulative resync; a coin mismatch is a `refused` ack
//!   and a final [`TransportError::Refused`].
//!
//! [`FaultyListener`] is the adversary: a TCP proxy that runs every
//! connection's frames through the same seeded [`LossyLink`] the
//! in-memory pipe uses, so soak tests exercise the whole recovery ladder
//! over real sockets.

use crate::coordinator::{Coordinator, CoordinatorError};
use crate::metrics::TransportMetrics;
use crate::network::{FaultSpec, FaultSpecError, LossyLink};
use crate::session::{Collector, Event, Link};
use crate::site::{Epoch, SiteId};
use crate::wire::{
    self, decode_message, encode_frame, DecodedFrame, FrameKind, Message, WireError, FRAME_OVERHEAD,
};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use setstream_obs::{Counter, Gauge};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Transport acknowledgement for one epoch batch, sent by the serving
/// side in answer to the batch's `Commit` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AckMessage {
    /// The site being acknowledged.
    pub site: SiteId,
    /// The epoch the ack refers to.
    pub epoch: Epoch,
    /// Every content frame of the epoch was applied (or was a harmless
    /// duplicate). `false` means frames were lost in flight: retransmit
    /// the batch.
    pub complete: bool,
    /// The coordinator's watermark chain diverged; the site must ship a
    /// cumulative resync. Supersedes any pending retransmissions.
    pub needs_resync: bool,
    /// The site is quarantined; back off before retrying.
    pub quarantined: bool,
    /// The coordinator refused the site's stored coins (a coin
    /// mismatch). Retrying cannot help.
    pub refused: bool,
}

// ---------------------------------------------------------------------
// Options

/// Knobs for the TCP transport. Construct via
/// [`TransportOptions::builder`]; the fields are private so every
/// instance has passed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportOptions {
    connect_timeout: Duration,
    io_timeout: Duration,
    idle_timeout: Duration,
    max_frame: usize,
    send_buf: usize,
    credit_window: usize,
    max_conns: usize,
    max_attempts: u32,
    backoff: Duration,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_frame: wire::MAX_PAYLOAD_LEN + FRAME_OVERHEAD,
            send_buf: 256 << 10,
            credit_window: 4,
            max_conns: 4096,
            max_attempts: 4,
            backoff: Duration::from_millis(10),
        }
    }
}

impl TransportOptions {
    /// Start from the defaults.
    pub fn builder() -> TransportOptionsBuilder {
        TransportOptionsBuilder {
            options: TransportOptions::default(),
        }
    }

    /// Timeout for establishing a connection.
    pub fn connect_timeout(&self) -> Duration {
        self.connect_timeout
    }

    /// Read/write timeout on established connections.
    pub fn io_timeout(&self) -> Duration {
        self.io_timeout
    }

    /// Server-side: disconnect peers silent for this long.
    pub fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Largest whole frame (header + payload + crc) either side will
    /// buffer.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Server-side per-connection write-queue cap in bytes; overflowing
    /// it is treated as a wedged peer.
    pub fn send_buf(&self) -> usize {
        self.send_buf
    }

    /// Maximum unacked epochs a site keeps in flight.
    pub fn credit_window(&self) -> usize {
        self.credit_window
    }

    /// Maximum concurrent connections a server accepts.
    pub fn max_conns(&self) -> usize {
        self.max_conns
    }

    /// Connect/retransmit attempts before giving up.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Base backoff between retries; doubles per attempt.
    pub fn backoff(&self) -> Duration {
        self.backoff
    }

    /// Backoff before retry number `attempt` (1-based), doubling and
    /// clamped so the shift cannot overflow.
    fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff * (1u32 << attempt.saturating_sub(1).min(10))
    }
}

/// A [`TransportOptions`] knob set to a value that cannot work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportOptionsError {
    /// Which knob is invalid.
    pub field: &'static str,
    /// The offending value (durations are reported in milliseconds).
    pub value: u64,
}

impl fmt::Display for TransportOptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transport option `{}` = {} must be at least 1",
            self.field, self.value
        )
    }
}

impl std::error::Error for TransportOptionsError {}

/// Validating builder for [`TransportOptions`].
#[derive(Debug, Clone)]
pub struct TransportOptionsBuilder {
    options: TransportOptions,
}

impl TransportOptionsBuilder {
    /// Timeout for establishing a connection.
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.options.connect_timeout = d;
        self
    }

    /// Read/write timeout on established connections.
    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.options.io_timeout = d;
        self
    }

    /// Server-side idle disconnect threshold.
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.options.idle_timeout = d;
        self
    }

    /// Largest whole frame either side will buffer.
    pub fn max_frame(mut self, bytes: usize) -> Self {
        self.options.max_frame = bytes;
        self
    }

    /// Server-side per-connection write-queue cap in bytes.
    pub fn send_buf(mut self, bytes: usize) -> Self {
        self.options.send_buf = bytes;
        self
    }

    /// Maximum unacked epochs in flight per site.
    pub fn credit_window(mut self, epochs: usize) -> Self {
        self.options.credit_window = epochs;
        self
    }

    /// Maximum concurrent connections a server accepts.
    pub fn max_conns(mut self, conns: usize) -> Self {
        self.options.max_conns = conns;
        self
    }

    /// Connect/retransmit attempts before giving up.
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.options.max_attempts = attempts;
        self
    }

    /// Base backoff between retries.
    pub fn backoff(mut self, d: Duration) -> Self {
        self.options.backoff = d;
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> Result<TransportOptions, TransportOptionsError> {
        let o = &self.options;
        for (field, value) in [
            ("credit_window", o.credit_window as u64),
            ("max_conns", o.max_conns as u64),
            ("max_attempts", o.max_attempts as u64),
            ("connect_timeout_ms", o.connect_timeout.as_millis() as u64),
            ("io_timeout_ms", o.io_timeout.as_millis() as u64),
        ] {
            if value == 0 {
                return Err(TransportOptionsError { field, value });
            }
        }
        if o.max_frame < FRAME_OVERHEAD {
            return Err(TransportOptionsError {
                field: "max_frame",
                value: o.max_frame as u64,
            });
        }
        Ok(self.options)
    }
}

// ---------------------------------------------------------------------
// Errors

/// Transport-layer failure.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure that survived the retry budget.
    Io(std::io::Error),
    /// Framing failure on our own side (encoding a frame).
    Wire(WireError),
    /// A [`FaultSpec`] with out-of-range probabilities.
    Faults(FaultSpecError),
    /// Invalid [`TransportOptions`].
    Options(TransportOptionsError),
    /// The peer demands a cumulative resync; pending epochs were
    /// discarded. Ship [`crate::Site::resync_frames`] and flush again.
    ResyncRequired,
    /// The coordinator refused the sender's stored coins. Final: it is
    /// never retried.
    Refused {
        /// The refused site.
        site: SiteId,
        /// The epoch whose ack carried the refusal.
        epoch: Epoch,
    },
    /// Attempt budget exhausted with epochs still unacknowledged.
    Undelivered {
        /// Frames of the failing epoch that never made it.
        missing: usize,
        /// Attempts used.
        attempts: u32,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o failure: {e}"),
            TransportError::Wire(e) => write!(f, "framing error: {e}"),
            TransportError::Faults(e) => write!(f, "invalid fault spec: {e}"),
            TransportError::Options(e) => write!(f, "invalid transport options: {e}"),
            TransportError::ResyncRequired => {
                write!(f, "peer demands a cumulative resync")
            }
            TransportError::Refused { site, epoch } => {
                write!(
                    f,
                    "coordinator refused site {site}'s stored coins (epoch {epoch})"
                )
            }
            TransportError::Undelivered { missing, attempts } => {
                write!(f, "{missing} frames undelivered after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

impl From<FaultSpecError> for TransportError {
    fn from(e: FaultSpecError) -> Self {
        TransportError::Faults(e)
    }
}

impl From<TransportOptionsError> for TransportError {
    fn from(e: TransportOptionsError) -> Self {
        TransportError::Options(e)
    }
}

// ---------------------------------------------------------------------
// Frame reader

/// Incremental SSWL frame extractor over a byte stream.
///
/// Feed raw socket bytes with [`FrameReader::extend`], pull whole frames
/// with [`FrameReader::next_frame`]. The header is validated before the
/// payload is buffered, so a peer can never force the reader past
/// `max_frame` bytes of memory; any header violation (bad magic, unknown
/// kind, oversize length) is a *desync* — the stream has no recoverable
/// framing from that point and the connection must be dropped.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    /// A reader refusing frames larger than `max_frame` total bytes.
    pub fn new(max_frame: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Buffer freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (bounded by one max-size frame plus one
    /// socket read).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extract the next whole frame, `Ok(None)` if more bytes are
    /// needed, or a [`WireError`] if the stream is desynchronized.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        let total = match wire::frame_size_hint(&self.buf)? {
            Some(total) => total,
            None => return Ok(None),
        };
        if total > self.max_frame {
            return Err(WireError::Oversize(total));
        }
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame: Vec<u8> = self.buf.drain(..total).collect();
        Ok(Some(Bytes::from(frame)))
    }
}

// ---------------------------------------------------------------------
// Client

/// Connect to `addr` with bounded exponential backoff (`max_attempts`
/// tries, `backoff` doubling). The returned stream is blocking with
/// read/write timeouts set.
pub fn connect_with_backoff(
    addr: SocketAddr,
    opts: &TransportOptions,
    metrics: &TransportMetrics,
) -> Result<TcpStream, TransportError> {
    let mut last = None;
    for attempt in 1..=opts.max_attempts() {
        if attempt > 1 {
            metrics.connect_retries.inc();
            metrics.backoff_sleeps.inc();
            thread::sleep(opts.backoff_for(attempt - 1));
        }
        match TcpStream::connect_timeout(&addr, opts.connect_timeout()) {
            Ok(stream) => {
                stream.set_read_timeout(Some(opts.io_timeout()))?;
                stream.set_write_timeout(Some(opts.io_timeout()))?;
                let _ = stream.set_nodelay(true);
                metrics.connects.inc();
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(TransportError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(ErrorKind::TimedOut, "connect failed")
    })))
}

/// The socket driver of a [`crate::session::CollectionSession`]: one
/// lazily opened TCP connection with read/write timeouts. A read timeout
/// is [`Event::Timeout`]; end of stream, a desync or a failed write is
/// [`Event::Lost`].
#[derive(Debug)]
pub struct TcpLink {
    addr: SocketAddr,
    opts: TransportOptions,
    metrics: Arc<TransportMetrics>,
    stream: Option<TcpStream>,
    reader: FrameReader,
}

/// Site-side TCP collection client: a
/// [`crate::session::CollectionSession`] driven over a [`TcpLink`].
pub type TcpCollector = Collector<TcpLink>;

impl TcpCollector {
    /// A collector shipping to `addr`. It connects on the first send.
    pub fn new(addr: SocketAddr, opts: TransportOptions, metrics: Arc<TransportMetrics>) -> Self {
        let link = TcpLink {
            addr,
            opts,
            metrics: Arc::clone(&metrics),
            stream: None,
            reader: FrameReader::new(opts.max_frame()),
        };
        Collector::with_link(link, &opts, metrics)
    }
}

impl Link for TcpLink {
    fn send(&mut self, frames: &[Bytes]) -> Result<bool, TransportError> {
        if self.stream.is_none() {
            self.stream = Some(connect_with_backoff(self.addr, &self.opts, &self.metrics)?);
            self.reader = FrameReader::new(self.opts.max_frame());
        }
        let Some(stream) = self.stream.as_mut() else {
            return Ok(false);
        };
        for frame in frames {
            if stream.write_all(frame).is_err() {
                self.stream = None;
                return Ok(false);
            }
            self.metrics.frames_out.inc();
            self.metrics.bytes_out.add(frame.len() as u64);
        }
        Ok(true)
    }

    fn recv(&mut self) -> Event {
        loop {
            match self.reader.next_frame() {
                Ok(Some(frame)) => {
                    self.metrics.frames_in.inc();
                    match decode_message(frame) {
                        Ok(DecodedFrame {
                            message: Message::Ack(ack),
                            ..
                        }) => return Event::Ack(ack),
                        Ok(_) => continue, // stray frame kinds are ignored
                        Err(_) => {
                            self.metrics.desyncs.inc();
                            return Event::Lost;
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => {
                    self.metrics.desyncs.inc();
                    return Event::Lost;
                }
            }
            let Some(stream) = self.stream.as_mut() else {
                return Event::Lost;
            };
            let mut buf = [0u8; 4096];
            match stream.read(&mut buf) {
                Ok(0) => return Event::Lost,
                Ok(n) => {
                    self.metrics.bytes_in.add(n as u64);
                    let Some(chunk) = buf.get(..n) else {
                        return Event::Lost;
                    };
                    self.reader.extend(chunk);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    return Event::Timeout;
                }
                Err(_) => return Event::Lost,
            }
        }
    }

    fn reconnect(&mut self) {
        self.stream = None;
    }

    fn backoff(&mut self, attempt: u32) {
        thread::sleep(self.opts.backoff_for(attempt));
    }
}

// ---------------------------------------------------------------------
// Server

/// Per-connection protocol logic plugged into [`FrameServer`].
///
/// `conn` identities are opaque, unique per accepted connection, and
/// never reused within a server's lifetime.
pub trait FrameHandler: Send + 'static {
    /// One well-formed frame arrived; return response frames to queue
    /// back to the same connection.
    fn on_frame(&mut self, conn: u64, frame: Bytes) -> Vec<Bytes>;
    /// The connection desynchronized (unparseable stream). It is dropped
    /// right after this call.
    fn on_wire_error(&mut self, _conn: u64, _err: &WireError) {}
    /// The connection's write queue overflowed (wedged peer). It is
    /// dropped right after this call.
    fn on_overflow(&mut self, _conn: u64) {}
    /// The connection is gone (EOF, error, idle timeout, overflow).
    fn on_disconnect(&mut self, _conn: u64) {}
}

/// One accepted connection's state inside the server loop.
struct ServerConn {
    stream: TcpStream,
    reader: FrameReader,
    outq: VecDeque<Bytes>,
    out_pos: usize,
    out_bytes: usize,
    last_activity: Instant,
}

/// Handle to a running [`FrameServer`] thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<Gauge>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the server loop to exit and wait for it.
    pub fn shutdown(&mut self) {
        self.stop.set(1);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Dependency-light nonblocking TCP frame server.
///
/// One thread runs a poll-style readiness loop over a nonblocking
/// listener and all accepted connections: accept, read (frames go to the
/// [`FrameHandler`]), write (queued responses), enforce caps (write
/// queue, connection count, idle timeout), and sleep briefly only when
/// nothing made progress.
pub struct FrameServer;

impl FrameServer {
    /// Bind `addr` and serve `handler` until the handle shuts down.
    pub fn spawn<H: FrameHandler>(
        addr: &str,
        handler: H,
        opts: TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Result<ServerHandle, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(Gauge::new());
        let flag = Arc::clone(&stop);
        let join = thread::Builder::new()
            .name(format!("sswl-server-{local}"))
            .spawn(move || serve_loop(listener, handler, opts, metrics, flag))?;
        Ok(ServerHandle {
            addr: local,
            stop,
            join: Some(join),
        })
    }
}

/// The server readiness loop (one iteration = one tick over every
/// connection).
fn serve_loop<H: FrameHandler>(
    listener: TcpListener,
    mut handler: H,
    opts: TransportOptions,
    metrics: Arc<TransportMetrics>,
    stop: Arc<Gauge>,
) {
    let mut conns: Vec<(u64, ServerConn)> = Vec::new();
    let mut next_id = 0u64;
    let mut buf = [0u8; 16384];
    while stop.get() == 0 {
        let mut progress = false;
        // Accept everything waiting, up to the connection cap.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if conns.len() >= opts.max_conns() || stream.set_nonblocking(true).is_err() {
                        continue; // refused: dropped on the floor
                    }
                    metrics.connects.inc();
                    conns.push((
                        next_id,
                        ServerConn {
                            stream,
                            reader: FrameReader::new(opts.max_frame()),
                            outq: VecDeque::new(),
                            out_pos: 0,
                            out_bytes: 0,
                            last_activity: Instant::now(),
                        },
                    ));
                    next_id += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (id, conn) in conns.iter_mut() {
            // Read phase: bounded rounds per tick so one firehose
            // connection cannot starve its siblings.
            let mut broken = false;
            // A desynced connection is dropped after this tick's write
            // phase, so the replies to frames it did process still go out.
            let mut desynced = false;
            'reads: for _ in 0..32 {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        broken = true;
                        break 'reads;
                    }
                    Ok(n) => {
                        progress = true;
                        conn.last_activity = now;
                        metrics.bytes_in.add(n as u64);
                        let Some(chunk) = buf.get(..n) else {
                            broken = true;
                            break 'reads;
                        };
                        conn.reader.extend(chunk);
                        loop {
                            match conn.reader.next_frame() {
                                Ok(Some(frame)) => {
                                    metrics.frames_in.inc();
                                    for resp in handler.on_frame(*id, frame) {
                                        conn.out_bytes += resp.len();
                                        metrics.frames_out.inc();
                                        conn.outq.push_back(resp);
                                    }
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    metrics.desyncs.inc();
                                    handler.on_wire_error(*id, &e);
                                    desynced = true;
                                    break 'reads;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'reads,
                    Err(_) => {
                        broken = true;
                        break 'reads;
                    }
                }
            }
            if broken {
                dead.push(*id);
                continue;
            }
            // Write phase: drain the queue until the socket pushes back.
            while let Some(front) = conn.outq.front() {
                let Some(slice) = front.get(conn.out_pos..) else {
                    broken = true;
                    break;
                };
                match conn.stream.write(slice) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        metrics.bytes_out.add(n as u64);
                        conn.out_pos += n;
                        if conn.out_pos >= front.len() {
                            conn.out_bytes = conn.out_bytes.saturating_sub(front.len());
                            conn.out_pos = 0;
                            conn.outq.pop_front();
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken || desynced {
                dead.push(*id);
                continue;
            }
            // Caps: a peer that will not drain its acks is wedged —
            // disconnect instead of growing memory.
            if conn.out_bytes > opts.send_buf() {
                metrics.backpressure_stalls.inc();
                handler.on_overflow(*id);
                dead.push(*id);
                continue;
            }
            if now.duration_since(conn.last_activity) > opts.idle_timeout() {
                dead.push(*id);
            }
        }
        if !dead.is_empty() {
            for id in &dead {
                handler.on_disconnect(*id);
            }
            conns.retain(|(id, _)| !dead.contains(id));
        }
        if !progress {
            thread::sleep(Duration::from_micros(200));
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator-facing handler

/// Which role a [`CoordinatorHandler`] server plays, for metric
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRole {
    /// The root coordinator.
    Coordinator,
    /// An intermediate relay; applied child frames count as relay
    /// merges.
    Relay,
}

/// Per-(connection, site, epoch) delivery bookkeeping backing honest
/// acks.
#[derive(Debug, Default)]
struct LedgerEntry {
    /// Distinct content frames applied (or refused as harmless
    /// duplicates): `(stream, seq)` for deltas, `(stream, MAX)` for
    /// resync synopses.
    applied: HashSet<(u32, u32)>,
    /// The commit's announced content-frame count, once seen.
    expected: Option<u32>,
}

/// [`FrameHandler`] gluing a [`Coordinator`] to the frame server: routes
/// frames by kind, binds connections to sites at `Hello`, keeps the
/// delivery ledger that makes `Ack.complete` honest, answers every
/// `Commit` with an [`AckMessage`], and feeds wedged-peer overflows into
/// the quarantine machinery.
pub struct CoordinatorHandler {
    coordinator: Arc<Coordinator>,
    metrics: Arc<TransportMetrics>,
    role: ServerRole,
    credit_window: usize,
    /// conn → site binding, learned from Hello (or any attributed frame).
    sites: HashMap<u64, SiteId>,
    /// Delivery ledger per connection and site, pruned to a bounded epoch
    /// window. Per connection because a resync reuses its cut's epoch
    /// number on a fresh connection: frames of the superseded batch still
    /// arriving on the old one must not count toward it.
    ledger: HashMap<(u64, SiteId), HashMap<Epoch, LedgerEntry>>,
    /// Hellos seen per quarantined site; the second one (the peer backed
    /// off and retried) lifts the quarantine.
    quarantine_hellos: HashMap<SiteId, u32>,
    /// Sites whose stored coins the coordinator refused, until a Hello
    /// with the right coins applies. Their acks carry `refused`.
    refused: HashSet<SiteId>,
}

impl CoordinatorHandler {
    /// A handler feeding `coordinator`.
    pub fn new(
        coordinator: Arc<Coordinator>,
        metrics: Arc<TransportMetrics>,
        role: ServerRole,
        opts: &TransportOptions,
    ) -> Self {
        CoordinatorHandler {
            coordinator,
            metrics,
            role,
            credit_window: opts.credit_window(),
            sites: HashMap::new(),
            ledger: HashMap::new(),
            quarantine_hellos: HashMap::new(),
            refused: HashSet::new(),
        }
    }

    /// Record an applied (or harmlessly stale) content frame.
    fn ledger_apply(&mut self, conn: u64, site: SiteId, epoch: Epoch, key: (u32, u32)) {
        let per_site = self.ledger.entry((conn, site)).or_default();
        per_site.entry(epoch).or_default().applied.insert(key);
        Self::prune_ledger(per_site, epoch, self.credit_window);
    }

    /// Record a commit's announced frame count.
    fn ledger_expect(&mut self, conn: u64, site: SiteId, epoch: Epoch, expected: u32) {
        let per_site = self.ledger.entry((conn, site)).or_default();
        per_site.entry(epoch).or_default().expected = Some(expected);
        Self::prune_ledger(per_site, epoch, self.credit_window);
    }

    /// Keep a bounded window of recent epochs per site so a chatty or
    /// confused peer cannot grow the ledger without bound.
    fn prune_ledger(per_site: &mut HashMap<Epoch, LedgerEntry>, epoch: Epoch, window: usize) {
        let keep = (2 * window as u64).max(4);
        if per_site.len() as u64 > keep {
            if let Some(min) = epoch.checked_sub(keep) {
                per_site.retain(|&e, _| e > min);
            }
        }
    }

    /// Is epoch `epoch` of `site` fully delivered on `conn` according to
    /// the ledger?
    fn ledger_complete(&self, conn: u64, site: SiteId, epoch: Epoch) -> bool {
        self.ledger
            .get(&(conn, site))
            .and_then(|m| m.get(&epoch))
            .and_then(|entry| entry.expected.map(|exp| entry.applied.len() as u32 >= exp))
            .unwrap_or(false)
    }
}

impl FrameHandler for CoordinatorHandler {
    fn on_frame(&mut self, conn: u64, frame: Bytes) -> Vec<Bytes> {
        // One CRC check and one payload decode per frame: routing and the
        // ledger read the typed message, then the coordinator applies
        // that same value.
        let decoded = match decode_message(frame) {
            Ok(decoded) => decoded,
            Err(e) => {
                // A corrupt frame from a known site: attribute it so the
                // coordinator's wire-failure counter (and quarantine) see
                // it.
                if let Some(&site) = self.sites.get(&conn) {
                    let _ = self.coordinator.ingest_from(site, Err(e));
                }
                return Vec::new();
            }
        };
        let kind = decoded.message.kind();
        let (site, routing) = match &decoded.message {
            Message::Hello(h) => (h.site, None),
            Message::Delta(d) => (d.site, Some((d.epoch, (d.stream.0, d.seq), None))),
            Message::Synopsis(s) => (s.site, Some((s.epoch, (s.stream.0, u32::MAX), None))),
            Message::Commit(c) => (c.site, Some((c.epoch, (u32::MAX, u32::MAX), Some(c.deltas)))),
            // Legacy flush markers and stray acks carry no mergeable
            // payload; acks flowing upstream are a peer bug we ignore.
            Message::Flush | Message::Ack(_) => return Vec::new(),
        };
        self.sites.insert(conn, site);

        // A quarantined site's retried Hello is its backoff signal: the
        // second one lifts the quarantine.
        if kind == FrameKind::Hello {
            let quarantined = self
                .coordinator
                .site_status(site)
                .map(|s| s.quarantined)
                .unwrap_or(false);
            if quarantined {
                let hellos = self.quarantine_hellos.entry(site).or_insert(0);
                *hellos += 1;
                if *hellos >= 2 {
                    self.coordinator.release_quarantine(site);
                    self.quarantine_hellos.remove(&site);
                }
            } else {
                self.quarantine_hellos.remove(&site);
            }
        }

        let verdict = self.coordinator.ingest_from(site, Ok(decoded));
        if matches!(verdict, Err(CoordinatorError::CoinMismatch { .. })) {
            self.refused.insert(site);
        } else if verdict.is_ok() && kind == FrameKind::Hello {
            self.refused.remove(&site);
        }
        let applied = match &verdict {
            Ok(()) => true,
            // A stale epoch is a retransmitted frame the coordinator
            // already holds — delivered, as far as the ack is concerned.
            Err(CoordinatorError::StaleEpoch { .. }) => true,
            Err(_) => false,
        };

        match kind {
            FrameKind::Delta | FrameKind::Synopsis => {
                if applied {
                    if let Some((epoch, key, _)) = routing {
                        self.ledger_apply(conn, site, epoch, key);
                        if verdict.is_ok() && self.role == ServerRole::Relay {
                            self.metrics.relay_merges.inc();
                        }
                    }
                }
                Vec::new()
            }
            FrameKind::Commit => {
                // Commit closes the batch: answer with an honest ack even
                // when the verdict was a refusal (quarantine, gap) — the
                // peer needs the flags to react.
                let Some((epoch, _, Some(expected))) = routing else {
                    return Vec::new();
                };
                if applied {
                    self.ledger_expect(conn, site, epoch, expected);
                }
                let status = self.coordinator.site_status(site);
                let refused = self.refused.contains(&site);
                let ack = AckMessage {
                    site,
                    epoch,
                    complete: !refused && self.ledger_complete(conn, site, epoch),
                    needs_resync: status.as_ref().map(|s| s.needs_resync).unwrap_or(false),
                    quarantined: status.as_ref().map(|s| s.quarantined).unwrap_or(false),
                    refused,
                };
                match encode_frame(FrameKind::Ack, &ack) {
                    Ok(frame) => {
                        self.metrics.acks_sent.inc();
                        vec![frame]
                    }
                    Err(_) => Vec::new(),
                }
            }
            // Already handled by the early return above; spelled out (no
            // wildcard) so adding a frame kind forces a decision here.
            FrameKind::Hello | FrameKind::Flush | FrameKind::Ack => Vec::new(),
        }
    }

    fn on_overflow(&mut self, conn: u64) {
        // A peer that will not read its acks is wedged: quarantine it so
        // collection health reports it stale instead of silently losing
        // its epochs, and charge the stall to the site's still-open
        // lineage entries so slow commits are explainable after the fact.
        if let Some(&site) = self.sites.get(&conn) {
            self.coordinator.note_credit_stall(site);
            self.coordinator.quarantine(site);
        }
    }

    fn on_disconnect(&mut self, conn: u64) {
        self.sites.remove(&conn);
        self.ledger.retain(|&(c, _), _| c != conn);
    }
}

/// Convenience: bind a listener and serve `coordinator` over it.
pub struct CoordinatorServer;

impl CoordinatorServer {
    /// Spawn a [`FrameServer`] wired to `coordinator` in the given role.
    pub fn spawn(
        addr: &str,
        coordinator: Arc<Coordinator>,
        role: ServerRole,
        opts: TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Result<ServerHandle, TransportError> {
        let handler = CoordinatorHandler::new(coordinator, Arc::clone(&metrics), role, &opts);
        FrameServer::spawn(addr, handler, opts, metrics)
    }
}

// ---------------------------------------------------------------------
// Fault injection at the socket layer

/// A fault-injecting TCP proxy: accepts connections, forwards
/// client→backend traffic *frame by frame* through a seeded
/// [`LossyLink`] per connection (connection `i` uses `seed + i`), and
/// passes backend→client traffic (acks) through clean — the same rule
/// the in-memory pipe follows.
///
/// A truncated frame kills the connection at the cut frame: the frames
/// before it are written, the rest are lost.
///
/// Partition windows are **proxy-global**: every connection's link counts
/// frames on one shared counter, because a partition belongs to the
/// network path, not to one TCP connection — otherwise a client could
/// "escape" a partition simply by reconnecting.
#[derive(Debug)]
pub struct FaultyListener {
    addr: SocketAddr,
    stop: Arc<Gauge>,
    join: Option<JoinHandle<()>>,
}

impl FaultyListener {
    /// Proxy loopback connections to `backend` with `spec` faults,
    /// deterministically seeded (connection `i` uses `seed + i`).
    pub fn spawn(
        backend: SocketAddr,
        spec: FaultSpec,
        seed: u64,
    ) -> Result<FaultyListener, TransportError> {
        spec.validate()?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(Gauge::new());
        let flag = Arc::clone(&stop);
        let path = Arc::new(Counter::new());
        let join = thread::Builder::new()
            .name(format!("sswl-faulty-{addr}"))
            .spawn(move || {
                let mut conn_idx = 0u64;
                while flag.get() == 0 {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let Ok(link) = LossyLink::new(spec, seed.wrapping_add(conn_idx)) else {
                                break;
                            };
                            let link = link.with_path(Arc::clone(&path));
                            conn_idx += 1;
                            let pump_stop = Arc::clone(&flag);
                            let _ = thread::Builder::new()
                                .name(format!("sswl-pump-{conn_idx}"))
                                .spawn(move || pump_connection(client, backend, link, pump_stop));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(FaultyListener {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wind down.
    pub fn shutdown(&mut self) {
        self.stop.set(1);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for FaultyListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Proxy one client connection: faulted frames toward the backend, clean
/// ack bytes back. Runs until either side dies or the listener stops.
fn pump_connection(client: TcpStream, backend: SocketAddr, mut link: LossyLink, stop: Arc<Gauge>) {
    let Ok(upstream) = TcpStream::connect_timeout(&backend, Duration::from_secs(2)) else {
        return;
    };
    let tick = Duration::from_millis(5);
    if client.set_read_timeout(Some(tick)).is_err() || upstream.set_read_timeout(Some(tick)).is_err()
    {
        return;
    }
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);

    // Ack path: a plain byte pump in its own thread.
    let (Ok(up_read), Ok(mut client_write)) = (upstream.try_clone(), client.try_clone()) else {
        return;
    };
    let ack_stop = Arc::clone(&stop);
    let ack_pump = thread::Builder::new()
        .name("sswl-pump-acks".into())
        .spawn(move || {
            let mut up_read = up_read;
            let mut buf = [0u8; 4096];
            while ack_stop.get() == 0 {
                match up_read.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        let Some(chunk) = buf.get(..n) else { break };
                        if client_write.write_all(chunk).is_err() {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock
                            || e.kind() == ErrorKind::TimedOut
                            || e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        });

    // Data path: frame-granular faults.
    let mut client = client;
    let mut upstream_write = upstream;
    let mut reader = FrameReader::new(wire::MAX_PAYLOAD_LEN + FRAME_OVERHEAD);
    let mut buf = [0u8; 16384];
    'pump: while stop.get() == 0 {
        match client.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let Some(chunk) = buf.get(..n) else { break };
                reader.extend(chunk);
                loop {
                    match reader.next_frame() {
                        Ok(Some(frame)) => link.send(frame),
                        Ok(None) => break,
                        // The *client* side desynced (shouldn't happen —
                        // it writes whole frames) — drop the conn.
                        Err(_) => break 'pump,
                    }
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
        for frame in link.drain() {
            if upstream_write.write_all(&frame).is_err() {
                break 'pump;
            }
        }
        if link.is_cut() {
            break; // the connection dies at the cut frame
        }
    }
    drop(client);
    drop(upstream_write);
    if let Ok(join) = ack_pump {
        let _ = join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{fault_seed, SeedEcho};
    use crate::site::{EpochCommit, Hello, Site, SynopsisMessage};
    use crate::wire::decode_frame;
    use setstream_core::SketchFamily;
    use setstream_stream::{StreamId, Update};

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(8)
            .second_level(4)
            .seed(0xabcd)
            .build()
    }

    fn quick_opts() -> TransportOptions {
        TransportOptions::builder()
            .connect_timeout(Duration::from_millis(500))
            .io_timeout(Duration::from_millis(300))
            .backoff(Duration::from_millis(5))
            .max_attempts(8)
            .build()
            .unwrap()
    }

    fn assert_matches_site(coord: &Coordinator, site: &Site, stream: StreamId) {
        let merged = coord.merged_synopsis(stream).unwrap();
        for (m, s) in merged
            .sketches()
            .iter()
            .zip(site.synopsis(stream).unwrap().sketches())
        {
            assert_eq!(m.counters(), s.counters());
        }
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let frame = encode_frame(
            FrameKind::Commit,
            &EpochCommit {
                site: 1,
                epoch: 1,
                deltas: 0,
            },
        )
        .unwrap();
        let mut reader = FrameReader::new(1 << 20);
        // Two frames, fed one byte at a time.
        let mut stream = frame.to_vec();
        stream.extend_from_slice(&frame);
        let mut out = Vec::new();
        for b in stream {
            reader.extend(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], frame);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_reader_rejects_oversize_and_garbage() {
        let mut reader = FrameReader::new(64);
        let frame = encode_frame(
            FrameKind::Synopsis,
            &SynopsisMessage {
                site: 1,
                stream: StreamId(0),
                epoch: 1,
                vector: family().new_vector(),
            },
        )
        .unwrap();
        assert!(frame.len() > 64, "synopsis frame should exceed tiny cap");
        reader.extend(&frame);
        assert!(matches!(
            reader.next_frame(),
            Err(WireError::Oversize(_))
        ));
        let mut reader = FrameReader::new(1 << 20);
        reader.extend(b"definitely not a frame at all!!!");
        assert!(matches!(reader.next_frame(), Err(WireError::BadMagic(_))));
    }

    /// Regression pin for the reply-dispatch match in `on_frame`: the
    /// kinds with no reply path (Hello binds the connection, Flush is a
    /// legacy marker, an upstream Ack is a peer bug) must stay silent,
    /// while Commit must answer with exactly one Ack. Guards the
    /// explicit no-wildcard arm that replaced `_ => Vec::new()`.
    #[test]
    fn on_frame_replies_only_to_commit() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let mut handler = CoordinatorHandler::new(
            coord,
            Arc::clone(&metrics),
            ServerRole::Coordinator,
            &quick_opts(),
        );

        let hello = encode_frame(
            FrameKind::Hello,
            &Hello {
                site: 7,
                family: fam,
                resume_epoch: 0,
            },
        )
        .unwrap();
        assert!(handler.on_frame(1, hello).is_empty());

        // Flush and a stray upstream Ack carry no mergeable payload; a
        // Flush payload is never decoded, and an Ack whose payload does
        // not decode is a wire failure. Neither gets a reply.
        let flush = encode_frame(FrameKind::Flush, &0u8).unwrap();
        assert!(handler.on_frame(1, flush).is_empty());
        let stray_ack = encode_frame(FrameKind::Ack, &0u8).unwrap();
        assert!(handler.on_frame(1, stray_ack).is_empty());

        let commit = encode_frame(
            FrameKind::Commit,
            &EpochCommit {
                site: 7,
                epoch: 1,
                deltas: 0,
            },
        )
        .unwrap();
        let replies = handler.on_frame(1, commit);
        assert_eq!(replies.len(), 1, "commit must be acked");
        let (kind, _) = decode_frame(replies[0].clone()).unwrap();
        assert_eq!(kind, FrameKind::Ack);
        assert_eq!(metrics.acks_sent.get(), 1);
    }

    /// The handler decodes each frame once, so a CRC failure never
    /// reaches the coordinator as a frame — it must still be charged to
    /// the site the connection announced, or corrupt links would never
    /// quarantine.
    #[test]
    fn crc_corrupt_frames_from_a_known_connection_are_attributed() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam).with_quarantine_after(2));
        let metrics = Arc::new(TransportMetrics::new());
        let mut handler = CoordinatorHandler::new(
            Arc::clone(&coord),
            metrics,
            ServerRole::Coordinator,
            &quick_opts(),
        );
        let mut site = Site::new(7, fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let cut = site.cut_epoch().unwrap();
        assert!(handler.on_frame(1, cut.frames[0].clone()).is_empty());
        let mut corrupt = cut.frames[1].to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(matches!(
            decode_frame(Bytes::from(corrupt.clone())),
            Err(WireError::Corrupt { .. })
        ));

        assert!(handler.on_frame(1, Bytes::from(corrupt.clone())).is_empty());
        assert_eq!(coord.site_status(7).unwrap().wire_failures, 1);
        assert_eq!(coord.metrics().rejections_for("wire"), 1);
        // The same bytes from a connection that never said hello cannot
        // be charged to anyone.
        assert!(handler.on_frame(2, Bytes::from(corrupt.clone())).is_empty());
        assert_eq!(coord.site_status(7).unwrap().wire_failures, 1);
        // A second attributed failure trips the quarantine threshold.
        assert!(handler.on_frame(1, Bytes::from(corrupt)).is_empty());
        assert!(coord.site_status(7).unwrap().quarantined);
    }

    /// A resync reuses its cut's epoch number on a fresh connection, so
    /// only frames from the commit's own connection may complete it.
    #[test]
    fn acks_count_only_frames_from_the_commits_connection() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let mut handler =
            CoordinatorHandler::new(coord, metrics, ServerRole::Coordinator, &quick_opts());
        let mut site = Site::new(7, fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let cut = site.cut_epoch().unwrap();
        let [hello, delta, commit] = &cut.frames[..] else {
            panic!("one stream: hello, delta, commit");
        };
        let complete = |replies: Vec<Bytes>| match decode_message(replies[0].clone()) {
            Ok(DecodedFrame {
                message: Message::Ack(ack),
                ..
            }) => ack.complete,
            other => panic!("expected an ack, got {other:?}"),
        };
        // The delta lands on connection 1, which then dies.
        handler.on_frame(1, hello.clone());
        handler.on_frame(1, delta.clone());
        handler.on_disconnect(1);
        // On connection 2 the commit alone is not a complete epoch…
        handler.on_frame(2, hello.clone());
        assert!(!complete(handler.on_frame(2, commit.clone())));
        // …until the delta (now a harmless stale replay) arrives there too.
        handler.on_frame(2, delta.clone());
        assert!(complete(handler.on_frame(2, commit.clone())));
    }

    /// A desync drops the connection only after the replies to the frames
    /// before it are written back, so their acks stay honest.
    #[test]
    fn a_desynced_connection_still_gets_its_acks() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            coord,
            ServerRole::Coordinator,
            quick_opts(),
            Arc::clone(&metrics),
        )
        .unwrap();
        // An epoch with no deltas (Hello, Commit), then garbage, in one
        // write: the server reads them in one tick.
        let cut = Site::new(4, fam).cut_epoch().unwrap();
        let mut bytes: Vec<u8> = cut.frames.iter().flat_map(|f| f.to_vec()).collect();
        bytes.extend_from_slice(b"definitely not a frame at all!!!");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&bytes).unwrap();
        let mut reader = FrameReader::new(1 << 20);
        let mut buf = [0u8; 4096];
        let frame = loop {
            if let Some(frame) = reader.next_frame().unwrap() {
                break frame;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed before the ack was written");
            reader.extend(&buf[..n]);
        };
        match decode_message(frame) {
            Ok(DecodedFrame {
                message: Message::Ack(ack),
                ..
            }) => assert!(ack.complete),
            other => panic!("expected an ack, got {other:?}"),
        }
        assert_eq!(metrics.desyncs.get(), 1);
    }

    #[test]
    fn options_builder_validates() {
        assert!(TransportOptions::builder().credit_window(0).build().is_err());
        assert!(TransportOptions::builder().max_frame(4).build().is_err());
        let opts = TransportOptions::builder().credit_window(2).build().unwrap();
        assert_eq!(opts.credit_window(), 2);
    }

    #[test]
    fn loopback_collection_matches_site_state() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let opts = quick_opts();
        let server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&coord),
            ServerRole::Coordinator,
            opts,
            Arc::clone(&metrics),
        )
        .unwrap();

        let mut site = Site::new(1, fam);
        let mut collector = TcpCollector::new(server.addr(), opts, Arc::clone(&metrics));
        for epoch in 0..3u64 {
            for e in 0..200u64 {
                site.observe(&Update::insert(StreamId(0), epoch * 1000 + e, 1));
            }
            let report = collector.collect(&mut site).unwrap();
            assert_eq!(report.epoch, epoch + 1);
            assert!(!report.checkpoint.is_empty());
        }
        assert_matches_site(&coord, &site, StreamId(0));
        assert!(metrics.connects.get() >= 2, "client + server accept");
        assert!(metrics.acks_sent.get() >= 3);
    }

    #[test]
    fn pipelined_epochs_respect_credit_window() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let opts = TransportOptions::builder()
            .io_timeout(Duration::from_millis(300))
            .credit_window(2)
            .build()
            .unwrap();
        let server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&coord),
            ServerRole::Coordinator,
            opts,
            Arc::clone(&metrics),
        )
        .unwrap();

        let mut site = Site::new(7, fam);
        let mut collector = TcpCollector::new(server.addr(), opts, Arc::clone(&metrics));
        for epoch in 0..6u64 {
            for e in 0..50u64 {
                site.observe(&Update::insert(StreamId(1), epoch * 100 + e, 1));
            }
            let cut = site.cut_epoch().unwrap();
            collector.ship(cut.epoch, cut.frames).unwrap();
            assert!(
                collector.in_flight() <= 2,
                "credit window must bound the pipeline"
            );
        }
        collector.flush().unwrap();
        assert_eq!(collector.in_flight(), 0);
        assert_matches_site(&coord, &site, StreamId(1));
    }

    #[test]
    fn faulty_proxy_collection_converges_bit_identically() {
        let seed = fault_seed(0x5eed);
        let _echo = SeedEcho::new(seed);
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let opts = quick_opts();
        let server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&coord),
            ServerRole::Coordinator,
            opts,
            Arc::clone(&metrics),
        )
        .unwrap();
        let proxy = FaultyListener::spawn(
            server.addr(),
            FaultSpec {
                drop: 0.15,
                delay: 0.2,
                duplicate: 0.1,
                reorder: true,
                reorder_burst: 3,
                ..FaultSpec::reliable()
            },
            seed,
        )
        .unwrap();

        let mut site = Site::new(3, fam);
        let mut collector = TcpCollector::new(proxy.addr(), opts, Arc::clone(&metrics));
        for epoch in 0..4u64 {
            for e in 0..150u64 {
                site.observe(&Update::insert(StreamId(0), epoch * 1000 + e, 1));
            }
            collector.collect(&mut site).unwrap();
        }
        assert_matches_site(&coord, &site, StreamId(0));
    }

    #[test]
    fn slow_consumer_is_disconnected_and_quarantined_not_buffered() {
        // A peer that floods commits but never reads its acks must trip
        // the write-queue cap: backpressure stall + quarantine, while a
        // healthy sibling keeps collecting.
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let opts = TransportOptions::builder()
            .io_timeout(Duration::from_millis(300))
            .send_buf(512)
            .build()
            .unwrap();
        let server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&coord),
            ServerRole::Coordinator,
            opts,
            Arc::clone(&metrics),
        )
        .unwrap();

        // The wedged peer: writes valid frames, never reads.
        let mut wedged = TcpStream::connect(server.addr()).unwrap();
        let hello = encode_frame(
            FrameKind::Hello,
            &Hello {
                site: 66,
                family: fam,
                resume_epoch: 1,
            },
        )
        .unwrap();
        wedged.write_all(&hello).unwrap();
        let commit = encode_frame(
            FrameKind::Commit,
            &EpochCommit {
                site: 66,
                epoch: 1,
                deltas: 0,
            },
        )
        .unwrap();
        // Push until the server gives up on us (its write queue caps at
        // 512 bytes and we never drain acks) or our own send fails.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && metrics.backpressure_stalls.get() == 0 {
            if wedged.write_all(&commit).is_err() {
                break;
            }
        }
        // The server counts the stall just before it quarantines the
        // site, so wait for both.
        let quarantined = || coord.site_status(66).map(|s| s.quarantined).unwrap_or(false);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline
            && (metrics.backpressure_stalls.get() == 0 || !quarantined())
        {
            thread::sleep(Duration::from_millis(10));
        }
        assert!(
            metrics.backpressure_stalls.get() >= 1,
            "wedged peer must trip the write-queue cap"
        );
        assert!(quarantined(), "wedged peer must be quarantined");

        // A healthy sibling is unaffected.
        let mut site = Site::new(5, fam);
        for e in 0..100u64 {
            site.observe(&Update::insert(StreamId(2), e, 1));
        }
        let mut collector =
            TcpCollector::new(server.addr(), quick_opts(), Arc::clone(&metrics));
        collector.collect(&mut site).unwrap();
        assert_matches_site(&coord, &site, StreamId(2));
    }

    #[test]
    fn crash_restore_resyncs_over_tcp() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let metrics = Arc::new(TransportMetrics::new());
        let opts = quick_opts();
        let server = CoordinatorServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&coord),
            ServerRole::Coordinator,
            opts,
            Arc::clone(&metrics),
        )
        .unwrap();

        let mut site = Site::new(9, fam);
        let mut collector = TcpCollector::new(server.addr(), opts, Arc::clone(&metrics));
        for e in 0..200u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        collector.collect(&mut site).unwrap();

        // Cut an epoch that is WAL'd but never shipped, then crash.
        for e in 200..300u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let lost = site.cut_epoch().unwrap();
        drop(site);

        let mut site = Site::restore_from_bytes(&lost.checkpoint).unwrap();
        for e in 300..400u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let report = collector.collect(&mut site).unwrap();
        assert!(report.resyncs >= 1, "restore must force a resync");
        assert_matches_site(&coord, &site, StreamId(0));
    }
}
