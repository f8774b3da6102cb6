//! **2-level hash sketches** and set-expression cardinality estimators over
//! continuous update streams — the core contribution of Ganguly,
//! Garofalakis & Rastogi, *"Processing Set Expressions over Continuous
//! Update Streams"* (SIGMOD 2003).
//!
//! A 2-level hash sketch (§3.1) summarizes a multi-set rendered as a stream
//! of insertions **and deletions** in `Θ(log M · s · log N)` bits:
//!
//! * a first-level hash `h` spreads elements over `Θ(log M)` buckets with
//!   exponentially decreasing probabilities (`LSB(h(e))`, as in
//!   Flajolet–Martin);
//! * within each first-level bucket, `s` independent pairwise hash
//!   functions `g₁…gₛ` split the elements over pairs of counters, giving a
//!   probabilistic *signature* of the bucket's content.
//!
//! Counters make the sketch **impervious to deletions**: the synopsis at
//! the end of a stream is identical to one that never saw the deleted
//! items. The second-level signatures answer singleton/identity questions
//! about bucket contents (§3.2), which power witness-based estimators for
//! set difference, intersection (§3.4–3.5), and arbitrary set expressions
//! (§4) — the first such estimators for general update streams.
//!
//! # Quick start
//!
//! ```
//! use setstream_core::{estimate, EstimatorOptions, SketchFamily};
//!
//! // Plan a family of synopses: 256 independent sketch copies, 16
//! // second-level functions, shared coins from seed 42.
//! let family = SketchFamily::builder()
//!     .copies(256)
//!     .second_level(16)
//!     .seed(42)
//!     .build();
//!
//! let mut a = family.new_vector();
//! let mut b = family.new_vector();
//! for e in 0..3000u64 {
//!     a.insert(e);              // A = {0..3000}
//!     b.insert(e + 2000);       // B = {2000..5000}
//! }
//! b.insert(9999);
//! b.delete(9999);               // deletions leave no trace
//!
//! let opts = EstimatorOptions::default();
//! let u = estimate::union(&[&a, &b], &opts).unwrap();
//! assert!((u.value - 5000.0).abs() / 5000.0 < 0.25);
//! let i = estimate::intersection(&a, &b, &opts).unwrap();
//! assert!((i.value - 1000.0).abs() / 1000.0 < 0.5);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod error;
pub mod estimate;
pub mod family;
pub mod plan;
pub mod sketch;

pub use config::SketchConfig;
pub use error::EstimateError;
pub use estimate::{
    EpochWitness, Estimate, EstimateMethod, EstimatorOptions, UnionMode, WitnessMode,
    WitnessSummary,
};
pub use family::{IngestStats, SketchFamily, SketchFamilyBuilder, SketchVector};
pub use plan::Plan;
pub use sketch::{BitSketch, TwoLevelSketch};
