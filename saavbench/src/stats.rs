//! Order statistics over timing samples.

/// Percentiles considered for the tail report, lowest first.
const TAIL_PERCENTILES: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile of ascending `sorted` (nearest rank); NaN when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`: the mean of the two middle values for an
/// even count.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest tail percentile that still has at least ten samples
/// beyond it, with its value, if any.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES
        .into_iter()
        .rev()
        .find(|p| sorted.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, percentile(sorted, p)))
}
