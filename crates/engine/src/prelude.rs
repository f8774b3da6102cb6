//! The canonical import surface for engine users.
//!
//! One `use setstream_engine::prelude::*;` brings in the estimation API —
//! the engine and the self-describing [`Estimate`] answer record — plus
//! the supporting types an application touches: standing-query
//! subscriptions and their notification rules, errors, metrics, and the
//! observability primitives they plug into.

pub use crate::engine::{EngineError, EngineStats, StreamEngine};
pub use crate::metrics::EngineMetrics;
pub use crate::snapshot::EngineSnapshot;
pub use crate::subscribe::{
    ChangeCause, ChangeEvent, Subscription, SubscriptionError, SubscriptionId,
    SubscriptionMetrics, SubscriptionOptions, SubscriptionOptionsBuilder, Tolerance,
};
pub use setstream_core::{
    Estimate, EstimateMethod, EstimatorOptions, UnionMode, WitnessMode, WitnessSummary,
};
pub use setstream_obs::{Registry, RingRecorder, TraceHandle};
