//! Prior-work baselines the paper compares against (§1 "Prior Work").
//!
//! * [`fm`] — the Flajolet–Martin distinct-count estimator (the paper's
//!   Figure 2, verbatim), the structural ancestor of the 2-level sketch's
//!   first level. Insert-only.
//! * [`mips`] — min-wise independent permutations: k-min signatures for
//!   Jaccard similarity and bottom-k (KMV) sketches that extend to set
//!   expressions over *insert-only* streams. Deletions **deplete** these
//!   synopses — the failure mode that motivates 2-level hash sketches —
//!   and the implementation surfaces that depletion explicitly so the
//!   `ablation_deletions` experiment can quantify it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod fm;
pub mod mips;

pub use fm::FmEstimator;
pub use mips::{BottomKSketch, MinwiseSignature};
