//! The update-stream processing model of the paper (§2.1), plus the exact
//! evaluation engine and synthetic workload generators used by every
//! experiment.
//!
//! A stream renders a multi-set `Aᵢ` of elements from an integer domain as a
//! sequence of updates `⟨i, e, ±v⟩`: "+v" inserts `v` copies of element `e`
//! into `Aᵢ`, "−v" deletes `v` copies. Deletions must be *legal* — the net
//! frequency of an element never goes negative.
//!
//! This crate provides:
//!
//! * [`Update`]/[`StreamId`] — the update-tuple vocabulary shared by
//!   sketches, baselines and the distributed model;
//! * [`Multiset`]/[`StreamSet`] — an exact (non-streaming) accumulator used
//!   as ground truth in tests and experiments;
//! * [`exact`] — exact set-operator cardinalities over multisets;
//! * [`gen`] — the §5.1 Venn-partition workload generator, Zipf/uniform
//!   element samplers, deletion-churn injection and stream interleaving;
//! * [`trace`] — a text line format for recording and replaying update
//!   streams.
//!
//! # Example
//!
//! ```
//! use setstream_stream::{Multiset, StreamId, Update};
//!
//! let mut a = Multiset::new();
//! a.apply(&Update::insert(StreamId(0), 7, 3)).unwrap();
//! a.apply(&Update::delete(StreamId(0), 7, 2)).unwrap();
//! assert_eq!(a.frequency(7), 1);
//! assert_eq!(a.distinct_count(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exact;
pub mod gen;
pub mod multiset;
pub mod trace;
pub mod update;

pub use multiset::{Multiset, StreamSet};
pub use update::{Element, StreamError, StreamId, Update};
