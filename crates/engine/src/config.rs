//! Validated engine configuration with a builder.
//!
//! Replaces ad-hoc `SketchFamily::builder()` + `with_options` pairs at
//! engine construction sites with one validated recipe. The builder
//! supports two modes:
//!
//! * **accuracy-driven** (the paper's front door): give `(ε, δ)` and
//!   optionally a hardness `ratio_hint`, and the builder derives the
//!   sketch shape via [`setstream_core::Plan`];
//! * **explicit shape**: pin `copies`/`second_level` directly (the mode
//!   benchmarks and tests use).
//!
//! # The ε/δ → (s1, s2, r) mapping
//!
//! With an accuracy target the builder applies Theorems 3.3–3.5:
//!
//! * copies `r ≥ 256·ln(2/δ)/(7ε²)` for union targets, inflated by the
//!   hardness ratio `ρ = |∪Aᵢ|/|E|` for witness targets
//!   (`r′ ≥ 2·ln(2/δ)·ρ/(ε/3)²` valid observations, deflated by the
//!   valid-witness rate `(1−ε₁)/4`);
//! * first-level buckets `s1 = 64` (one per possible LSB level);
//! * second-level functions `s2 = ⌈log₂(s1·r/δ)⌉` (Lemma 3.1 plus a
//!   union bound over every bucket the estimators may probe).
//!
//! See [`setstream_core::Plan`] for the exact formulas.

use crate::engine::StreamEngine;
use setstream_core::{EstimatorOptions, Plan, SketchFamily, UnionMode, WitnessMode};
use std::fmt;

/// A validated engine recipe: sketch family plus estimator options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    family: SketchFamily,
    options: EstimatorOptions,
}

impl EngineConfig {
    /// Start building a config.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// The sketch family this config prescribes.
    pub fn family(&self) -> &SketchFamily {
        &self.family
    }

    /// The estimator options this config prescribes.
    pub fn options(&self) -> &EstimatorOptions {
        &self.options
    }
}

/// Typed validation failures from [`EngineConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `epsilon` outside `(0, 1)`.
    InvalidEpsilon(f64),
    /// `delta` outside `(0, 1)`.
    InvalidDelta(f64),
    /// `beta` not above 1.
    InvalidBeta(f64),
    /// `ratio_hint` below 1 (`|∪|/|E|` is at least 1).
    InvalidRatio(f64),
    /// Zero sketch copies requested.
    NoCopies,
    /// The sketch shape failed validation, or the family exceeds the
    /// per-vector cell cap every decoder enforces (reason from the core
    /// check).
    InvalidShape(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidEpsilon(e) => write!(f, "epsilon must be in (0,1), got {e}"),
            ConfigError::InvalidDelta(d) => write!(f, "delta must be in (0,1), got {d}"),
            ConfigError::InvalidBeta(b) => write!(f, "beta must exceed 1, got {b}"),
            ConfigError::InvalidRatio(r) => {
                write!(f, "ratio hint |∪|/|E| must be at least 1, got {r}")
            }
            ConfigError::NoCopies => write!(f, "need at least one sketch copy"),
            ConfigError::InvalidShape(why) => write!(f, "invalid sketch shape: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`EngineConfig`]; see the module docs for the two modes.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    seed: u64,
    epsilon: f64,
    delta: f64,
    ratio_hint: Option<f64>,
    copies: Option<usize>,
    second_level: Option<u32>,
    beta: f64,
    witness_mode: WitnessMode,
    union_mode: UnionMode,
}

impl Default for EngineConfigBuilder {
    fn default() -> Self {
        let opts = EstimatorOptions::default();
        EngineConfigBuilder {
            seed: 0,
            epsilon: opts.epsilon,
            delta: 0.05,
            ratio_hint: None,
            copies: None,
            second_level: None,
            beta: opts.beta,
            witness_mode: opts.witness_mode,
            union_mode: opts.union_mode,
        }
    }
}

impl EngineConfigBuilder {
    /// Master seed (the stored coins).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Target relative error `ε ∈ (0, 1)`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Target failure probability `δ ∈ (0, 1)`.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Hardness hint `ρ = |∪Aᵢ|/|E| ≥ 1` for witness queries; switches
    /// the derived plan from the union theorem to the witness theorems.
    pub fn ratio_hint(mut self, ratio: f64) -> Self {
        self.ratio_hint = Some(ratio);
        self
    }

    /// Pin the copy count `r` explicitly (explicit-shape mode).
    pub fn copies(mut self, r: usize) -> Self {
        self.copies = Some(r);
        self
    }

    /// Pin the second-level function count `s2` explicitly
    /// (explicit-shape mode; defaults to 8 when only `copies` is pinned).
    pub fn second_level(mut self, s: u32) -> Self {
        self.second_level = Some(s);
        self
    }

    /// Witness-bucket selection constant `β > 1`.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Bucket probing strategy.
    pub fn witness_mode(mut self, mode: WitnessMode) -> Self {
        self.witness_mode = mode;
        self
    }

    /// Union sub-estimator strategy.
    pub fn union_mode(mut self, mode: UnionMode) -> Self {
        self.union_mode = mode;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(ConfigError::InvalidEpsilon(self.epsilon));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(ConfigError::InvalidDelta(self.delta));
        }
        if self.beta.is_nan() || self.beta <= 1.0 {
            return Err(ConfigError::InvalidBeta(self.beta));
        }
        if let Some(r) = self.ratio_hint {
            if r.is_nan() || r < 1.0 {
                return Err(ConfigError::InvalidRatio(r));
            }
        }
        let family = match (self.copies, self.second_level) {
            (None, None) => {
                // Accuracy-driven: derive (s1, s2, r) from (ε, δ[, ρ]).
                let plan = match self.ratio_hint {
                    Some(ratio) => Plan::for_witness(self.epsilon, self.delta, ratio),
                    None => Plan::for_union(self.epsilon, self.delta),
                };
                plan.family(self.seed)
            }
            (copies, second_level) => {
                let r = copies.unwrap_or(256);
                if r == 0 {
                    return Err(ConfigError::NoCopies);
                }
                let config = setstream_core::SketchConfig {
                    second_level: second_level.unwrap_or(8),
                    ..Default::default()
                };
                config.check().map_err(ConfigError::InvalidShape)?;
                SketchFamily::new(config, r, self.seed)
            }
        };
        // A family over the cell cap builds, but every decoder (the
        // engine's own snapshot restore included) would refuse its
        // synopses.
        family.check().map_err(ConfigError::InvalidShape)?;
        let options = EstimatorOptions {
            epsilon: self.epsilon,
            beta: self.beta,
            witness_mode: self.witness_mode,
            union_mode: self.union_mode,
        };
        Ok(EngineConfig { family, options })
    }

    /// Validate, then construct the engine directly.
    pub fn build_engine(self) -> Result<StreamEngine, ConfigError> {
        Ok(StreamEngine::from_config(self.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_shape_builds() {
        let cfg = EngineConfig::builder()
            .copies(64)
            .second_level(8)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(cfg.family().copies(), 64);
    }

    #[test]
    fn accuracy_driven_matches_plan() {
        let cfg = EngineConfig::builder()
            .epsilon(0.2)
            .delta(0.05)
            .seed(1)
            .build()
            .unwrap();
        let plan = Plan::for_union(0.2, 0.05);
        assert_eq!(cfg.family().copies(), plan.copies);
        assert_eq!(cfg.options().epsilon, 0.2);
    }

    #[test]
    fn ratio_hint_switches_to_witness_plan() {
        let union = EngineConfig::builder().epsilon(0.5).delta(0.1).build().unwrap();
        let witness = EngineConfig::builder()
            .epsilon(0.5)
            .delta(0.1)
            .ratio_hint(2.0)
            .build()
            .unwrap();
        assert_eq!(union.family().copies(), Plan::for_union(0.5, 0.1).copies);
        assert_eq!(witness.family().copies(), Plan::for_witness(0.5, 0.1, 2.0).copies);
        assert!(witness.family().copies() > union.family().copies());
        // At ρ = 32 the witness theorem asks for ~556 k copies: over the
        // cell cap, so a typed error instead of a family no decoder takes.
        assert!(matches!(
            EngineConfig::builder()
                .epsilon(0.2)
                .delta(0.05)
                .ratio_hint(32.0)
                .build(),
            Err(ConfigError::InvalidShape(_))
        ));
    }

    #[test]
    fn default_accuracy_plan_over_the_cell_cap_is_refused() {
        // ε = δ = 0.05 plans r = 53 964 copies at s = 27: 186 M cells.
        assert!(matches!(
            EngineConfig::builder().build(),
            Err(ConfigError::InvalidShape(_))
        ));
    }

    #[test]
    fn explicit_copy_count_over_the_cell_cap_is_refused() {
        assert!(matches!(
            EngineConfig::builder().copies(20_000).build(),
            Err(ConfigError::InvalidShape(_))
        ));
        assert!(EngineConfig::builder().copies(2_000).build().is_ok());
    }

    #[test]
    fn typed_errors() {
        assert_eq!(
            EngineConfig::builder().epsilon(2.0).build(),
            Err(ConfigError::InvalidEpsilon(2.0))
        );
        assert_eq!(
            EngineConfig::builder().delta(0.0).build(),
            Err(ConfigError::InvalidDelta(0.0))
        );
        assert_eq!(
            EngineConfig::builder().beta(1.0).build(),
            Err(ConfigError::InvalidBeta(1.0))
        );
        assert_eq!(
            EngineConfig::builder().ratio_hint(0.5).build(),
            Err(ConfigError::InvalidRatio(0.5))
        );
        assert_eq!(
            EngineConfig::builder().copies(0).build(),
            Err(ConfigError::NoCopies)
        );
        assert!(matches!(
            EngineConfig::builder().copies(8).second_level(0).build(),
            Err(ConfigError::InvalidShape(_))
        ));
    }

    #[test]
    fn build_engine_works_end_to_end() {
        let engine = EngineConfig::builder()
            .copies(16)
            .second_level(8)
            .seed(3)
            .build_engine()
            .unwrap();
        assert_eq!(engine.family().copies(), 16);
    }
}
