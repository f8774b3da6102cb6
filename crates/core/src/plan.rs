//! (ε, δ)-planning: turn an accuracy target into sketch-family parameters.
//!
//! Implements the resource formulas of Theorems 3.3–3.5 and 4.1 with the
//! explicit constants derived in the paper's analysis:
//!
//! * union (Thm 3.3): `r ≥ 256·ln(2/δ) / (7ε²)` copies;
//! * difference/intersection (Thm 3.4/3.5): valid-witness probability at
//!   `β = 2` is `(β−1)/β² = 1/4`, deflated by `(1 − ε₁)` with
//!   `ε₁ = (√5−1)/2`; the witness average needs
//!   `r′ ≥ 18·ln(2/δ)·ρ / ε²` valid observations, where `ρ = |∪|/|E|`;
//! * second level (Lemma 3.1 + union bound): `s = ⌈log₂(levels·r/δ)⌉`;
//! * first-level independence (§3.6): `t = max(4, ⌈log₂(3/ε)⌉)`.
//!
//! The ρ-dependence is fundamental (Theorem 3.9's lower bound), so the
//! planner takes a *ratio hint*: plan for the smallest `|E|/|∪|` you need
//! reliable answers for.

use crate::config::SketchConfig;
use crate::family::SketchFamily;
use serde::{Deserialize, Serialize};
use setstream_hash::HashFamily;

/// A planned synopsis size for an (ε, δ) target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Target relative error.
    pub epsilon: f64,
    /// Target failure probability.
    pub delta: f64,
    /// Sketch copies `r`.
    pub copies: usize,
    /// Second-level hash functions `s`.
    pub second_level: u32,
    /// First-level independence degree `t`.
    pub independence: u32,
    /// First-level buckets.
    pub levels: u32,
}

/// Golden-ratio conjugate — the optimal `ε₁` from §3.4's analysis.
const EPSILON_1: f64 = 0.618_033_988_749_894_9;

impl Plan {
    /// Plan for set-union estimation (Theorem 3.3): no ρ-dependence.
    ///
    /// # Panics
    /// Panics if `epsilon ∉ (0,1)` or `delta ∉ (0,1)`.
    pub fn for_union(epsilon: f64, delta: f64) -> Plan {
        validate(epsilon, delta);
        let r = (256.0 * (2.0 / delta).ln() / (7.0 * epsilon * epsilon)).ceil() as usize;
        Plan::assemble(epsilon, delta, r.max(1))
    }

    /// Plan for difference/intersection/expression estimation
    /// (Theorems 3.4/3.5/4.1) with `ratio_hint = |∪ᵢAᵢ| / |E|` — the
    /// hardness parameter the lower bound says you must pay for.
    ///
    /// # Panics
    /// Panics on invalid `epsilon`/`delta` or `ratio_hint < 1`.
    pub fn for_witness(epsilon: f64, delta: f64, ratio_hint: f64) -> Plan {
        validate(epsilon, delta);
        assert!(ratio_hint >= 1.0, "|∪|/|E| ratio is at least 1");
        // Valid observations required for the witness average: Chernoff on
        // r'·p with p = 1/ρ and a tightened ε/3 (the union estimate and
        // the limited-independence slack each consume a third).
        let eps = epsilon / 3.0;
        let r_prime = 2.0 * (2.0 / delta).ln() * ratio_hint / (eps * eps);
        // Deflate by the valid-observation rate (β = 2): (1−ε₁)/4.
        let rate = (1.0 - EPSILON_1) / 4.0;
        let r = (r_prime / rate).ceil() as usize;
        Plan::assemble(epsilon, delta, r.max(1))
    }

    fn assemble(epsilon: f64, delta: f64, copies: usize) -> Plan {
        let levels = 64;
        // Lemma 3.1 + union bound over every property check the estimator
        // may perform (r copies × levels buckets).
        let checks = (levels as f64) * copies as f64;
        let second_level = (checks / delta).log2().ceil().max(1.0) as u32;
        let independence = (3.0 / epsilon).log2().ceil().max(4.0) as u32;
        Plan {
            epsilon,
            delta,
            copies,
            second_level,
            independence,
            levels,
        }
    }

    /// The sketch shape this plan prescribes.
    pub fn config(&self) -> SketchConfig {
        SketchConfig {
            levels: self.levels,
            second_level: self.second_level,
            first_family: HashFamily::KWise(self.independence),
        }
    }

    /// Materialize a family with these parameters.
    pub fn family(&self, seed: u64) -> SketchFamily {
        SketchFamily::new(self.config(), self.copies, seed)
    }

    /// Total counter storage for one stream's synopsis, in bytes.
    pub fn bytes_per_stream(&self) -> usize {
        self.copies * self.config().counter_bytes()
    }
}

fn validate(epsilon: f64, delta: f64) {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_plan_scales_inverse_quadratically_in_epsilon() {
        let loose = Plan::for_union(0.2, 0.05);
        let tight = Plan::for_union(0.1, 0.05);
        // Halving ε quadruples r.
        let ratio = tight.copies as f64 / loose.copies as f64;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn witness_plan_scales_linearly_in_ratio() {
        let easy = Plan::for_witness(0.2, 0.05, 4.0);
        let hard = Plan::for_witness(0.2, 0.05, 64.0);
        let ratio = hard.copies as f64 / easy.copies as f64;
        assert!((ratio - 16.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn plans_tighten_with_delta() {
        let a = Plan::for_union(0.1, 0.1);
        let b = Plan::for_union(0.1, 0.001);
        assert!(b.copies > a.copies);
        assert!(b.second_level >= a.second_level);
    }

    #[test]
    fn independence_tracks_epsilon() {
        assert_eq!(Plan::for_union(0.5, 0.05).independence, 4); // floor
        let fine = Plan::for_union(0.01, 0.05);
        assert!(fine.independence >= 8); // log2(300) ≈ 8.2 → 9
    }

    #[test]
    fn config_and_family_are_consistent() {
        let p = Plan::for_witness(0.3, 0.1, 8.0);
        let c = p.config();
        assert_eq!(c.second_level, p.second_level);
        assert_eq!(c.first_family, HashFamily::KWise(p.independence));
        let f = p.family(42);
        assert_eq!(f.copies(), p.copies);
        assert_eq!(p.bytes_per_stream(), f.vector_bytes());
    }

    #[test]
    fn plans_over_the_cell_cap_fail_the_family_check() {
        // ε = δ = 0.05 plans r = 53 964 copies at s = 27: 186 M cells.
        assert!(Plan::for_union(0.05, 0.05).family(0).check().is_err());
        // At ρ = 32 the witness theorem asks for about 556 k copies.
        assert!(Plan::for_witness(0.2, 0.05, 32.0).family(0).check().is_err());
        assert!(Plan::for_union(0.5, 0.1).family(0).check().is_ok());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_rejected() {
        let _ = Plan::for_union(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn sub_unit_ratio_rejected() {
        let _ = Plan::for_witness(0.1, 0.1, 0.5);
    }
}
