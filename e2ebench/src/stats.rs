//! Percentiles and medians, with the nearest-rank convention the
//! engine's `SchedOverhead` uses.

/// Nearest-rank `q`-percentile of an ascending-sorted, non-empty slice:
/// the element at 1-based rank `⌈q·n⌉`, clamped to `[1, n]`. Always an
/// observed sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based rank [`nearest_rank`] reports for `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// How many samples lie beyond the `q`-percentile of `n` samples.
/// The benchmark reports a tail percentile only where this is ≥ 10.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Median of a non-empty sample set (mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
