//! `setbench`: the end-to-end and per-layer benchmark of setstream.
//!
//! See `README.md` for the workloads, the metrics and how to read them.

pub mod compare;
pub mod data;
pub mod harness;
pub mod host;
pub mod json;
pub mod stats;
pub mod workloads;
