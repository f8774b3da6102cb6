//! Sketch shape parameters.

use serde::{Deserialize, Serialize};
use setstream_hash::HashFamily;

/// Shape of a 2-level hash sketch: `levels × s × 2` counters plus the hash
/// family drawn for the first level.
///
/// Two sketches can only be compared/merged if their configs (and seeds)
/// match — the paper's requirement that the same hash functions be used
/// across all streams for a given sketch copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchConfig {
    /// Number of first-level buckets (`Θ(log M)`). With the first-level
    /// hash mapping into 64-bit space (`[M] → [M²]`, `M = 2³²`, `k = 2`),
    /// 64 levels cover the whole LSB range.
    pub levels: u32,
    /// Number of independent second-level hash functions `s`
    /// (`Θ(log 1/δ)`; the paper's experiments fix `s = 32`).
    pub second_level: u32,
    /// First-level hash family. The paper's analysis needs
    /// `Θ(log 1/ε)`-wise independence (§3.6); the default is 8-wise.
    pub first_family: HashFamily,
}

/// Upper bound on a sketch's counter count (512 KiB of cells: `s ≤ 512`
/// at 64 levels, sixteen times the paper's `s = 32`). A sparse counter
/// block can declare a shape in a few bytes, so this cap is what keeps a
/// hostile payload from sizing an arbitrary allocation.
pub const MAX_COUNTERS: usize = 1 << 16;

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            levels: 64,
            second_level: 32,
            first_family: HashFamily::KWise(8),
        }
    }
}

impl SketchConfig {
    /// Check invariants (non-degenerate shape) without panicking — the
    /// form deserialization of untrusted payloads needs.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=64).contains(&self.levels) {
            return Err(format!("levels must be in 1..=64, got {}", self.levels));
        }
        if self.second_level < 1 {
            return Err("need at least one second-level hash".to_string());
        }
        if u64::from(self.levels) * u64::from(self.second_level) * 2 > MAX_COUNTERS as u64 {
            return Err(format!(
                "{} levels x {} second-level hashes exceed {MAX_COUNTERS} counters",
                self.levels, self.second_level
            ));
        }
        if let HashFamily::KWise(t) = self.first_family {
            if t < 1 {
                return Err("k-wise family needs degree >= 1".to_string());
            }
        }
        Ok(())
    }

    /// Validate invariants (non-degenerate shape).
    ///
    /// # Panics
    /// Panics on zero levels / zero second-level functions or more than 64
    /// levels (the LSB of a 64-bit hash cannot exceed 63).
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            // analyze: allow(panic) — documented `# Panics` contract; `check()` is the fallible twin
            panic!("{why}");
        }
    }

    /// Number of `i64` counters a sketch of this shape holds.
    pub fn n_counters(&self) -> usize {
        self.levels as usize * self.second_level as usize * 2
    }

    /// Size in bytes of the counter array (the dominant storage term;
    /// `O(log M · s · log N)` in the paper's accounting).
    pub fn counter_bytes(&self) -> usize {
        self.n_counters() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_matches_paper_experiments() {
        let c = SketchConfig::default();
        c.validate();
        assert_eq!(c.levels, 64);
        assert_eq!(c.second_level, 32);
        assert_eq!(c.n_counters(), 64 * 32 * 2);
        assert_eq!(c.counter_bytes(), 64 * 32 * 2 * 8);
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn too_many_levels_rejected() {
        SketchConfig {
            levels: 65,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn oversized_shapes_are_refused() {
        let huge = SketchConfig {
            second_level: u32::MAX,
            ..Default::default()
        };
        assert!(huge.check().unwrap_err().contains("exceed"));
        let largest = SketchConfig {
            second_level: 512,
            ..Default::default()
        };
        assert!(largest.check().is_ok());
    }

    #[test]
    #[should_panic(expected = "second-level")]
    fn zero_second_level_rejected() {
        SketchConfig {
            second_level: 0,
            ..Default::default()
        }
        .validate();
    }
}
