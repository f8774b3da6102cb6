//! The continuous query-processing engine of the paper's Figure 1: update
//! streams flow in on one side, set-expression queries are answered from
//! the maintained synopses on the other — at any time, without a second
//! pass over the data.
//!
//! ```text
//!  updates ──► [ per-stream 2-level hash sketch synopses ]
//!                               │
//!  "(A ∩ B) − C" ──►  [ estimator │ subscriptions ] ──► answers, notifications
//! ```
//!
//! The engine adds the operational layer the paper assumes around the
//! estimators:
//!
//! * stream registry — synopses are created lazily on first update;
//! * ad-hoc estimation — [`StreamEngine::evaluate`] **simplifies** each
//!   expression (set-algebra rewrites shrink the participating stream set
//!   and the hardness ratio) and answers it on demand;
//! * standing queries — [`StreamEngine::subscribe`] is the one registry of
//!   continuously answered expressions: subscriptions the estimator cannot
//!   tell apart (same streams, same Venn cells over them) share one cached
//!   estimate, each epoch re-estimates only the classes whose streams
//!   changed, and a [`Tolerance`] rule decides who hears about it —
//!   a drift band, or a threshold alarm such as "alert when
//!   `|(A ∩ B) − C|` exceeds 1000" (the paper's denial-of-service
//!   motivating scenario), which notifies once on trip and once on release.
//!
//! # Example
//!
//! ```
//! use setstream_engine::{StreamEngine, SubscriptionOptions, Tolerance};
//! use setstream_core::SketchFamily;
//! use setstream_expr::SetExpr;
//! use setstream_stream::{StreamId, Update};
//!
//! let family = SketchFamily::builder().copies(128).second_level(8).seed(1).build();
//! let mut engine = StreamEngine::new(family);
//! let expr: SetExpr = "A & B".parse().unwrap();
//! let alarm = SubscriptionOptions::builder()
//!     .tolerance(Tolerance::Above { threshold: 500.0, hysteresis: 100.0 })
//!     .notify_initial(false)
//!     .build()
//!     .unwrap();
//! engine.subscribe(expr.clone(), alarm).unwrap();
//! engine.publish_epoch(); // the empty intersection arms the alarm
//! for e in 0..2000u64 {
//!     engine.process(&Update::insert(StreamId(0), e, 1));
//!     engine.process(&Update::insert(StreamId(1), e + 1000, 1));
//! }
//! let answer = engine.evaluate(&expr).unwrap();
//! assert!((answer.value - 1000.0).abs() / 1000.0 < 0.5);
//! let tripped = engine.publish_epoch();
//! assert_eq!(tripped.len(), 1);
//! assert!(tripped[0].new > 500.0);
//! ```
//!
//! # Observability
//!
//! Every engine carries always-on [`EngineMetrics`] (ingest counters,
//! estimate latency histogram, per-method counters) reachable via
//! [`StreamEngine::metrics`]; register the handle with a
//! [`setstream_obs::Registry`] and render with
//! [`setstream_obs::export::render`]. Span tracing around estimate calls
//! is opt-in via [`StreamEngine::set_trace`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod durable;
mod engine;
mod metrics;
pub mod prelude;
pub mod quality;
mod snapshot;
mod subscribe;

pub use durable::{DurableError, DurableKind};
pub use engine::{EngineError, EngineStats, StreamEngine};
pub use metrics::EngineMetrics;
pub use quality::{ExprReport, QualityConfig, QualityError, QualityMonitor};
pub use snapshot::EngineSnapshot;
pub use subscribe::{
    ChangeCause, ChangeEvent, Subscription, SubscriptionError, SubscriptionId,
    SubscriptionMetrics, SubscriptionOptions, SubscriptionOptionsBuilder, Tolerance,
};
