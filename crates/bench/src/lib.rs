//! Experiment harness shared by the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` reproduces one figure (or ablation) from
//! the paper's evaluation (§5). This library holds the common machinery:
//! the §5.1 methodology (trimmed-average error over repeated runs), the
//! workload construction pipeline (Venn generator → churny update
//! synthesis → sketch maintenance), simple CLI parsing, and table/CSV
//! output.
//!
//! Scale: the paper fixes `|∪Aᵢ| ≈ 2¹⁸`. On this single-core test box the
//! default run uses `2¹⁶` (identical *shape*: all targets are expressed as
//! fractions of `u`) so the whole suite finishes in minutes; pass
//! `--full` to any binary for the paper-exact `2¹⁸`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod figure;
pub mod host;
pub mod metrics;
pub mod table;
pub mod workload;

/// Sketch-count sweep used on the x-axis of every figure.
pub const SKETCH_COUNTS: [usize; 4] = [64, 128, 256, 512];

/// Second-level width fixed by the paper's experiments.
pub const PAPER_S: u32 = 32;
