//! Order statistics used by the runner and by `setbench compare`.

/// Samples that must lie strictly beyond a percentile before it is
/// reported as supported: with fewer, one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p ∈ (0, 1)` of `sorted` (ascending), with
/// whether the sample supports it (at least [`MIN_BEYOND`] samples lie
/// beyond the chosen rank). `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, bool)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    Some((sorted[rank - 1], beyond >= MIN_BEYOND))
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Sorted copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), Some((50.0, true)));
        // Rank 90 of 100 leaves exactly 10 beyond: supported.
        assert_eq!(percentile(&sample, 0.9), Some((90.0, true)));
        // Rank 99 leaves 1 beyond: reported, but not supported.
        assert_eq!(percentile(&sample, 0.99), Some((99.0, false)));
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.9), Some((90.0, false)));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some((990.0, true)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
