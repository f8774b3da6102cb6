//! The analyzer's config audits `hot_root`, but the kernel was renamed:
//! nothing here matches, so the audit must say so instead of passing.

pub fn renamed_root(xs: &[u64]) -> u64 {
    let scratch: Vec<u64> = xs.to_vec();
    scratch.iter().sum()
}
