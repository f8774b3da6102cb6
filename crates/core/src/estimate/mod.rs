//! Cardinality estimators over 2-level hash sketch synopses.
//!
//! * [`union`] — the specialized `SetUnionEstimator` of Figure 5 (plus a
//!   variance-pooled refinement, see [`UnionMode`]);
//! * [`expression`] — the witness estimator: the general set-expression
//!   estimator of §4 via the Boolean mapping `B(E)`;
//! * [`difference`] / [`intersection`] — §3.4–3.5's estimators (Figure 6),
//!   which are [`expression`] on `A − B` and `A ∩ B`: on a bucket that is
//!   a singleton for the union, `B(E)` is exactly their witness test;
//! * [`bit_intersection`] — the same estimator over insert-only bit
//!   synopses.
//!
//! One union count and one witness scan serve every estimator and both
//! sketch kinds: they read each sketch's [`crate::sketch::Occupancy`]
//! view. All estimators are read-only over the synopses: the same
//! maintained sketches answer any number of ad-hoc queries (Figure 1).
//!
//! # Witness scanning modes
//!
//! The paper's atomic estimators probe a *single* first-level bucket per
//! sketch copy, at a level chosen just above `log |∪Aᵢ|` (Figure 6, step
//! 1). But the key identity behind the method —
//!
//! > Pr\[bucket is a non-empty singleton for `E` | bucket is a singleton
//! > for `∪Aᵢ`\] = `|E| / |∪Aᵢ|`
//!
//! — holds at **every** level, because all elements reach a given bucket
//! with equal probability. Scanning all levels
//! ([`WitnessMode::AllLevels`], the default) therefore harvests several
//! times more valid observations per sketch at identical synopsis size and
//! maintenance cost. [`WitnessMode::SingleBucket`] reproduces the paper's
//! pseudocode verbatim; `ablation_witness` quantifies the gap.

mod bit;
mod boost;
#[cfg(test)]
mod difference;
mod expression;
#[cfg(test)]
mod intersection;
mod union_est;
mod witness;

pub use bit::{bit_intersection, BitSketchVector};
pub use boost::{difference_boosted, intersection_boosted, median_of_groups};
pub use expression::{expression, expression_with_union};
pub use union_est::union;

use crate::error::EstimateError;
use crate::family::SketchVector;
use serde::{Deserialize, Serialize};
use setstream_expr::SetExpr;
use setstream_stream::StreamId;

/// Which first-level buckets the witness estimators probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WitnessMode {
    /// Figure 6 verbatim: one bucket per sketch copy, at level
    /// `⌈log₂(β·û/(1−ε))⌉`.
    SingleBucket,
    /// Probe every first-level bucket of every copy (default; same
    /// unbiasedness, several times more observations).
    AllLevels,
}

/// How the internal set-union estimate `û` is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnionMode {
    /// Figure 5 verbatim: the first level where the non-empty fraction
    /// drops below `(1+ε)/8`.
    PaperLevel,
    /// Inverse-variance-weighted combination of the per-level estimates
    /// (default; strictly more sample-efficient, same synopses).
    Pooled,
}

/// Estimator knobs; `Default` favors accuracy, `paper()` reproduces the
/// paper's pseudocode exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorOptions {
    /// Relative-error target used for internal thresholds (Figure 5's `f`
    /// and Figure 6's bucket index).
    pub epsilon: f64,
    /// Witness-bucket selection constant `β > 1`; the analysis in §3.4
    /// optimizes `β = 2`.
    pub beta: f64,
    /// Bucket probing strategy.
    pub witness_mode: WitnessMode,
    /// Union sub-estimator strategy.
    pub union_mode: UnionMode,
}

impl Default for EstimatorOptions {
    fn default() -> Self {
        EstimatorOptions {
            epsilon: 0.05,
            beta: 2.0,
            witness_mode: WitnessMode::AllLevels,
            union_mode: UnionMode::Pooled,
        }
    }
}

impl EstimatorOptions {
    /// The paper's pseudocode, verbatim: single witness bucket, Figure-5
    /// union.
    pub fn paper() -> Self {
        EstimatorOptions {
            epsilon: 0.05,
            beta: 2.0,
            witness_mode: WitnessMode::SingleBucket,
            union_mode: UnionMode::PaperLevel,
        }
    }

    /// Validate ranges.
    ///
    /// # Panics
    /// Panics if `epsilon ∉ (0,1)` or `beta ≤ 1`.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0,1)"
        );
        assert!(self.beta > 1.0, "beta must exceed 1");
    }
}

/// Which estimator path produced an [`Estimate`].
///
/// Part of the self-describing estimate record: telemetry counts estimates
/// by method, and callers can tell a witness-backed answer (with a
/// meaningful confidence band) from a trivial or baseline one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EstimateMethod {
    /// The set-union estimator (Figure 5 / pooled refinement).
    Union,
    /// A witness-based atomic or expression estimator (§3.4–3.5, §4).
    Witness,
    /// Median-of-groups boosting over witness estimates.
    MedianBoost,
    /// Trivial short-circuit: the union estimate was zero, so the answer
    /// is exactly 0 with no witness semantics.
    TrivialEmpty,
}

impl EstimateMethod {
    /// Stable snake_case name, used as a metric label value.
    pub fn as_str(&self) -> &'static str {
        match self {
            EstimateMethod::Union => "union",
            EstimateMethod::Witness => "witness",
            EstimateMethod::MedianBoost => "median_boost",
            EstimateMethod::TrivialEmpty => "trivial_empty",
        }
    }
}

impl std::fmt::Display for EstimateMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A summary of the witness observations behind an [`Estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessSummary {
    /// Valid 0/1 observations (union-singleton buckets found).
    pub valid: usize,
    /// Observations that were 1 (the bucket's element lies in `E`).
    pub hits: usize,
    /// Sketch copies consulted.
    pub copies: usize,
}

/// One `(stream, site, epoch)` provenance fact behind a distributed
/// estimate: the named site's contribution to the named stream was applied
/// up to the named epoch when the answer was computed. A distributed
/// coordinator attaches a list of these to its annotated answers so a
/// consumer can say exactly which collection epochs an estimate rests on
/// (and replay or audit them against the lineage ring).
///
/// Stream and site are plain `u32`s here — the core crate stays ignorant
/// of the stream/distributed layers' newtypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochWitness {
    /// The stream the contribution was for.
    pub stream: u32,
    /// The contributing site.
    pub site: u32,
    /// The site's applied-epoch watermark for the stream.
    pub epoch: u64,
}

/// The result of a cardinality estimation.
///
/// A self-describing record: alongside the value it carries the estimator
/// path that produced it ([`Estimate::method`]), the witness evidence
/// ([`Estimate::witnesses`]), the atomic witness fraction
/// ([`Estimate::atomic_fraction`]), and a data-driven confidence band
/// ([`Estimate::confidence`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// The estimated cardinality `|Ê|`.
    pub value: f64,
    /// Which estimator path produced this value.
    pub method: EstimateMethod,
    /// The internal union estimate `û = |∪Aᵢ|̂` the value was scaled by
    /// (for [`union`] itself this equals `value`).
    pub union_estimate: f64,
    /// Valid 0/1 witness observations (`r'` in the analysis; for [`union`]
    /// the number of copies probed).
    pub valid_observations: usize,
    /// Witness observations that were 1 (present in `E`).
    pub witness_hits: usize,
    /// Sketch copies `r` consulted.
    pub copies: usize,
}

impl Estimate {
    /// Witness fraction `p̂ = hits / valid` (`None` when no witness
    /// observation was made, e.g. for empty inputs).
    pub fn witness_fraction(&self) -> Option<f64> {
        if self.valid_observations == 0 {
            None
        } else {
            Some(self.witness_hits as f64 / self.valid_observations as f64)
        }
    }

    /// Wilson score interval on the witness fraction at normal quantile
    /// `z` (e.g. `1.96` for 95%), scaled by the union estimate — a
    /// data-driven confidence band on the cardinality. `None` for
    /// estimates without witness semantics (no valid observations).
    ///
    /// The band covers only the witness-sampling noise; the union
    /// estimate contributes its own (typically smaller) error on top.
    pub fn confidence_interval(&self, z: f64) -> Option<(f64, f64)> {
        let p = self.witness_fraction()?;
        let n = self.valid_observations as f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        let lo = ((center - half).max(0.0)) * self.union_estimate;
        let hi = ((center + half).min(1.0)) * self.union_estimate;
        Some((lo, hi))
    }

    /// The witness evidence behind this estimate.
    pub fn witnesses(&self) -> WitnessSummary {
        WitnessSummary {
            valid: self.valid_observations,
            hits: self.witness_hits,
            copies: self.copies,
        }
    }

    /// The atomic witness fraction `p̂ = hits / valid` — the probability
    /// estimate the cardinality was scaled from (`None` without witness
    /// semantics). Alias of [`Estimate::witness_fraction`] matching the
    /// instrumented-API vocabulary.
    pub fn atomic_fraction(&self) -> Option<f64> {
        self.witness_fraction()
    }

    /// The default 95% confidence band ([`Estimate::confidence_interval`]
    /// at `z = 1.96`).
    pub fn confidence(&self) -> Option<(f64, f64)> {
        self.confidence_interval(1.96)
    }
}

/// Witness-based estimate for `|A − B|` (§3.4): [`expression`] on
/// `A − B`.
///
/// `a` and `b` must come from the same [`crate::SketchFamily`].
pub fn difference(
    a: &SketchVector,
    b: &SketchVector,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    expression(&a_minus_b(), &[(StreamId(0), a), (StreamId(1), b)], opts)
}

/// Witness-based estimate for `|A − B|` with a caller-supplied union
/// estimate (e.g. reused across several queries).
pub fn difference_with_union(
    a: &SketchVector,
    b: &SketchVector,
    u_hat: f64,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    expression_with_union(&a_minus_b(), &[(StreamId(0), a), (StreamId(1), b)], u_hat, opts)
}

/// Witness-based estimate for `|A ∩ B|` (§3.5): [`expression`] on
/// `A ∩ B`.
pub fn intersection(
    a: &SketchVector,
    b: &SketchVector,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    expression(&a_and_b(), &[(StreamId(0), a), (StreamId(1), b)], opts)
}

/// Witness-based estimate for `|A ∩ B|` with a caller-supplied union
/// estimate.
pub fn intersection_with_union(
    a: &SketchVector,
    b: &SketchVector,
    u_hat: f64,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    expression_with_union(&a_and_b(), &[(StreamId(0), a), (StreamId(1), b)], u_hat, opts)
}

/// `A − B` over streams 0 and 1.
fn a_minus_b() -> SetExpr {
    SetExpr::stream(0).diff(SetExpr::stream(1))
}

/// `A ∩ B` over streams 0 and 1.
fn a_and_b() -> SetExpr {
    SetExpr::stream(0).intersect(SetExpr::stream(1))
}
