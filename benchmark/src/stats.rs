//! Order statistics for latency samples and run-to-run spreads.

/// The rank (1-based) of the nearest-rank `pct`-th percentile among
/// `n` samples: the smallest rank with at least `pct`% of the samples
/// at or below it.
///
/// # Panics
///
/// Panics when `n` is 0 or `pct` is outside `1..=100`.
pub fn nearest_rank_index(n: usize, pct: u32) -> usize {
    assert!(n > 0, "a percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    (pct as usize * n).div_ceil(100)
}

/// Nearest-rank `pct`-th percentile of an ascending slice.
pub fn nearest_rank(sorted: &[f64], pct: u32) -> f64 {
    sorted[nearest_rank_index(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie strictly above the nearest-rank
/// `pct`-th percentile's position. A percentile is reported only when
/// this is at least [`MIN_BEYOND`].
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - nearest_rank_index(n, pct)
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest whole percentile that keeps at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (1..=99).rev().find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// The median: the middle sample, or the mean of the two middle ones.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match that computation.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// [`quartiles`], or the single sample three times over.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles_or_point(xs: &[f64]) -> [f64; 3] {
    match xs {
        [x] => [*x; 3],
        _ => quartiles(xs),
    }
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}
