//! Median-of-groups confidence boosting.
//!
//! The paper boosts confidence by growing `r` under a Chernoff bound. The
//! classical alternative — used throughout the streaming literature the
//! paper builds on (e.g. AMS) — is *median-of-means*: split the `r`
//! copies into `g` groups, estimate from each group independently, and
//! take the median. A median is correct unless half the groups fail, so
//! the failure probability drops exponentially in `g` even when each
//! group is only mildly reliable. This module layers that on top of any
//! of the witness estimators without touching the synopses.

use super::{Estimate, EstimatorOptions};
use crate::error::EstimateError;
use crate::family::SketchVector;

/// Run `estimator` on `groups` disjoint copy-groups of the synopses and
/// return the median estimate (fields aggregate across groups).
///
/// Groups that return [`EstimateError::NoValidObservations`] contribute a
/// zero estimate (the natural reading: no witness found). Other errors
/// abort.
///
/// # Panics
/// Panics if `groups` is zero or exceeds the copy count.
pub fn median_of_groups<F>(
    a: &SketchVector,
    b: &SketchVector,
    groups: usize,
    opts: &EstimatorOptions,
    mut estimator: F,
) -> Result<Estimate, EstimateError>
where
    F: FnMut(&SketchVector, &SketchVector, &EstimatorOptions) -> Result<Estimate, EstimateError>,
{
    opts.validate();
    a.check_compatible(b)?;
    let r = a.copies();
    assert!(
        groups >= 1 && groups <= r,
        "groups must be in 1..=copies ({r}), got {groups}"
    );
    let base = r / groups;
    let extra = r % groups;
    let mut values = Vec::with_capacity(groups);
    let mut valid = 0usize;
    let mut hits = 0usize;
    let mut union_sum = 0.0;
    let mut start = 0usize;
    for g in 0..groups {
        let len = base + usize::from(g < extra);
        let ga = a.subrange(start, len);
        let gb = b.subrange(start, len);
        start += len;
        match estimator(&ga, &gb, opts) {
            Ok(e) => {
                valid += e.valid_observations;
                hits += e.witness_hits;
                union_sum += e.union_estimate;
                values.push(e.value);
            }
            Err(EstimateError::NoValidObservations) => values.push(0.0),
            Err(other) => return Err(other),
        }
    }
    values.sort_by(f64::total_cmp);
    let median = if groups % 2 == 1 {
        // analyze: allow(indexing) — `values` holds exactly `groups` entries (one per group)
        values[groups / 2]
    } else {
        // analyze: allow(indexing) — `values` holds exactly `groups` entries and `groups >= 1`
        0.5 * (values[groups / 2 - 1] + values[groups / 2])
    };
    Ok(Estimate {
        value: median,
        method: super::EstimateMethod::MedianBoost,
        union_estimate: union_sum / groups as f64,
        valid_observations: valid,
        witness_hits: hits,
        copies: r,
    })
}

/// Median-of-groups boosted intersection estimate.
pub fn intersection_boosted(
    a: &SketchVector,
    b: &SketchVector,
    groups: usize,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    median_of_groups(a, b, groups, opts, super::intersection)
}

/// Median-of-groups boosted difference estimate.
pub fn difference_boosted(
    a: &SketchVector,
    b: &SketchVector,
    groups: usize,
    opts: &EstimatorOptions,
) -> Result<Estimate, EstimateError> {
    median_of_groups(a, b, groups, opts, super::difference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::SketchFamily;

    fn family(r: usize) -> SketchFamily {
        SketchFamily::builder().copies(r).second_level(16).seed(41).build()
    }

    fn filled(f: &SketchFamily, range: std::ops::Range<u64>) -> SketchVector {
        let mut v = f.new_vector();
        for e in range {
            v.insert(e);
        }
        v
    }

    #[test]
    fn one_group_equals_plain_estimator() {
        let f = family(64);
        let a = filled(&f, 0..3000);
        let b = filled(&f, 1000..4000);
        let opts = EstimatorOptions::default();
        let plain = crate::estimate::intersection(&a, &b, &opts).unwrap();
        let boosted = intersection_boosted(&a, &b, 1, &opts).unwrap();
        assert_eq!(plain.value, boosted.value);
        assert_eq!(plain.valid_observations, boosted.valid_observations);
    }

    #[test]
    fn boosted_estimates_stay_accurate() {
        let f = family(300);
        let a = filled(&f, 0..6000);
        let b = filled(&f, 3000..9000);
        let opts = EstimatorOptions::default();
        for groups in [3, 5, 6] {
            let e = intersection_boosted(&a, &b, groups, &opts).unwrap();
            let rel = (e.value - 3000.0).abs() / 3000.0;
            assert!(rel < 0.3, "groups {groups}: estimate {} rel {rel}", e.value);
            assert_eq!(e.copies, 300);
        }
        let d = difference_boosted(&a, &b, 5, &opts).unwrap();
        let rel = (d.value - 3000.0).abs() / 3000.0;
        assert!(rel < 0.3, "difference estimate {}", d.value);
    }

    #[test]
    fn groups_partition_all_copies() {
        // With r = 10 and 3 groups, sizes are 4/3/3; an uneven split must
        // not drop or duplicate observations. Verify by comparing valid
        // observation totals with the unboosted AllLevels scan.
        let f = family(10);
        let a = filled(&f, 0..500);
        let b = filled(&f, 200..700);
        let opts = EstimatorOptions::default();
        let plain = crate::estimate::intersection(&a, &b, &opts).unwrap();
        let boosted = intersection_boosted(&a, &b, 3, &opts).unwrap();
        assert_eq!(plain.valid_observations, boosted.valid_observations);
        assert_eq!(plain.witness_hits, boosted.witness_hits);
    }

    #[test]
    fn median_resists_an_outlier_group() {
        // Deterministic check of the median combiner itself.
        let f = family(9);
        let a = filled(&f, 0..100);
        let b = filled(&f, 0..100);
        let opts = EstimatorOptions::default();
        let mut call = 0usize;
        let e = median_of_groups(&a, &b, 3, &opts, |x, y, o| {
            call += 1;
            if call == 2 {
                // A wildly wrong group.
                Ok(Estimate {
                    value: 1e12,
                    method: crate::EstimateMethod::Witness,
                    union_estimate: 1e12,
                    valid_observations: 1,
                    witness_hits: 1,
                    copies: x.copies(),
                })
            } else {
                crate::estimate::intersection(x, y, o)
            }
        })
        .unwrap();
        assert!(e.value < 1e6, "median failed to reject the outlier: {}", e.value);
    }

    #[test]
    #[should_panic(expected = "groups")]
    fn zero_groups_rejected() {
        let f = family(8);
        let a = f.new_vector();
        let b = f.new_vector();
        let _ = intersection_boosted(&a, &b, 0, &EstimatorOptions::default());
    }

    #[test]
    #[should_panic(expected = "groups")]
    fn too_many_groups_rejected() {
        let f = family(8);
        let a = f.new_vector();
        let b = f.new_vector();
        let _ = intersection_boosted(&a, &b, 9, &EstimatorOptions::default());
    }
}
