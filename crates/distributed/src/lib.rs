//! The distributed-streams deployment model with **stored coins**
//! (Gibbons & Tirthapura), which the paper's §1/§3 say 2-level hash
//! sketches extend to naturally.
//!
//! Each *site* observes one part of the update traffic and maintains local
//! synopses using hash functions derived from a shared master seed (the
//! stored coins). Sites periodically ship their synopses — as compact
//! binary frames — to a *coordinator*, which merges them per stream
//! (sketch linearity makes merged synopses identical to single-site ones)
//! and answers set-expression cardinality queries over the union of all
//! traffic.
//!
//! Collection is **continuous**: sites cut numbered *epochs* and ship
//! compact **delta frames** (counter changes since the last shipped
//! epoch); the coordinator guards every merge with per-`(site, stream)`
//! epoch watermarks so duplicates, reordering and crash-restarts can
//! never double-count, and degrades gracefully (quarantine + staleness
//! annotations) when a site misbehaves.
//!
//! Modules:
//!
//! * [`codec`] — a compact, non-self-describing binary serde format
//!   (little-endian, length-prefixed), written from scratch;
//! * [`wire`] — length-delimited, CRC-checked frames over [`bytes`];
//! * [`site`] — the per-site stream processor: epoch cuts, delta frames,
//!   sealed crash-recovery checkpoints;
//! * [`coordinator`] — watermark-guarded ingestion, merging, quarantine,
//!   and (staleness-annotated) query answering;
//! * [`session`] — the collection protocol's client half with no I/O
//!   ([`session::CollectionSession`]: credit window, acks, attempt
//!   budgets, resync and back-off decisions) and the one epoch loop
//!   ([`session::Collector`]) that both transports drive;
//! * [`network`] — the seeded fault layer ([`network::LossyLink`]) and
//!   the in-memory driver ([`network::MemoryPipe`]);
//! * [`transport`] — real networked collection: a dependency-light
//!   nonblocking TCP layer speaking SSWL frames, with credit-based flow
//!   control, honest per-epoch acks, bounded buffers everywhere, and a
//!   fault-injecting [`transport::FaultyListener`] proxy;
//! * [`metrics`] — always-on frame/rejection/transport counters
//!   ([`metrics::CoordinatorMetrics`], [`metrics::TransportMetrics`]),
//!   exported through [`setstream_obs`];
//! * [`relay`] — intermediate aggregation: a relay merges its children's
//!   delta frames (sketch linearity) and ships one compact delta per
//!   (stream, epoch) upstream.
//!
//! # Tracing & lineage
//!
//! Frames may carry an optional, version-gated **trace-context
//! extension** ([`wire::FrameContext`]): a site cut stamps its trace id
//! and cut timestamp onto the frames it ships, relays re-ship the context
//! upstream, and every coordinator on the path records merge/commit spans
//! into its [`setstream_obs::TraceHandle`] — one trace follows each epoch
//! from site cut to root commit. Independent of tracing, every
//! coordinator keeps an always-on bounded
//! [`setstream_obs::LineageRing`]: per `(stream, epoch)`, the
//! contributing sites, merge fan-in, retransmit/resync counts, credit
//! stalls, and cut→commit latency. Old peers ignore the extension;
//! untraced frames are bit-identical to the pre-extension format.
//!
//! # Example: continuous collection
//!
//! The in-memory pipe runs the same protocol as TCP, through the same
//! coordinator-side handler, with no sockets and no sleeping.
//!
//! ```
//! use setstream_core::SketchFamily;
//! use setstream_distributed::network::{FaultSpec, MemoryPipe};
//! use setstream_distributed::{Coordinator, Site, TransportMetrics, TransportOptions};
//! use setstream_stream::{StreamId, Update};
//! use std::sync::Arc;
//!
//! let family = SketchFamily::builder().copies(64).seed(7).build();
//! let mut site = Site::new(1, family);
//! let coord = Arc::new(Coordinator::new(family));
//! // In-memory attempts cost no wall time, so size the budget for the
//! // faults: about one nasty-link attempt in eight completes an epoch.
//! let opts = TransportOptions::builder().max_attempts(256).build().unwrap();
//! let metrics = Arc::new(TransportMetrics::new());
//! let mut pipe =
//!     MemoryPipe::new(Arc::clone(&coord), FaultSpec::nasty(), 42, opts, metrics).unwrap();
//!
//! // Periodic collection: observe, cut an epoch, ship the delta.
//! for epoch in 0..3u64 {
//!     for e in 0..300 {
//!         site.observe(&Update::insert(StreamId(0), epoch * 1000 + e, 1));
//!     }
//!     let report = pipe.collect(&mut site).unwrap();
//!     // `report.checkpoint` is the site's sealed WAL — persist it, and
//!     // `Site::restore_from_bytes` it after a crash.
//!     assert_eq!(report.epoch, epoch + 1);
//! }
//!
//! let answer = coord.query(&"A".parse().unwrap()).unwrap();
//! assert!((answer.estimate.value - 900.0).abs() / 900.0 < 0.3);
//! assert_eq!(answer.staleness[0].newest_epoch, 3);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod codec;
pub mod coordinator;
pub mod metrics;
pub mod network;
pub mod persist;
pub mod relay;
pub mod session;
pub mod site;
pub mod transport;
pub mod wire;

pub use coordinator::Coordinator;
pub use metrics::{CoordinatorMetrics, TransportMetrics};
pub use relay::{Relay, RelayNode};
pub use site::Site;
pub use transport::{
    CoordinatorServer, FaultyListener, ServerRole, TcpCollector, TransportOptions,
};
pub use wire::{ExtensionTag, FrameContext};
