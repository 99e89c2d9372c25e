//! Time-series recording and summary statistics for experiments.
//!
//! [`Series`] collects `(Time, f64)` samples produced by a simulation run and
//! offers the aggregates the benchmark harness reports (mean, percentiles,
//! min/max, time-weighted integrals).

use crate::time::{Duration, Time};

/// An append-only time series of scalar samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    samples: Vec<(Time, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends a sample. Timestamps should be non-decreasing; out-of-order
    /// pushes are accepted but time-weighted statistics then lose meaning.
    pub fn push(&mut self, t: Time, value: f64) {
        self.samples.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(time, value)` samples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The raw values, in insertion order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|&(_, v)| v)
    }

    /// The last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.values().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Smallest value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Largest value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Sample standard deviation, or `None` with fewer than two samples.
    pub fn std_dev(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let mean = self.mean()?;
        let var = self.values().map(|v| (v - mean).powi(2)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// Percentile via nearest-rank on the sorted values; `q` in `[0, 1]`.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile out of range");
        let mut vals: Vec<f64> = self.values().collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN in series"));
        percentile_sorted(&vals, q)
    }

    /// Fraction of samples for which `pred` holds; `None` when empty.
    pub fn fraction_where<F: Fn(f64) -> bool>(&self, pred: F) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let hits = self.values().filter(|&v| pred(v)).count();
        Some(hits as f64 / self.samples.len() as f64)
    }

    /// First time at which `pred` holds, if ever.
    pub fn first_time_where<F: Fn(f64) -> bool>(&self, pred: F) -> Option<Time> {
        self.iter().find(|&(_, v)| pred(v)).map(|(t, _)| t)
    }

    /// Time-weighted mean assuming zero-order hold between samples, evaluated
    /// over `[first sample, end]`. Returns `None` with no samples or when
    /// `end` precedes the first sample.
    pub fn time_weighted_mean(&self, end: Time) -> Option<f64> {
        let first = self.samples.first()?.0;
        if end <= first {
            return None;
        }
        let mut acc = 0.0;
        for w in self.samples.windows(2) {
            let (t0, v0) = w[0];
            let (t1, _) = w[1];
            let t1 = t1.min(end);
            if t1 > t0 {
                acc += v0 * (t1 - t0).as_secs_f64();
            }
        }
        let (tl, vl) = *self.samples.last()?;
        if end > tl {
            acc += vl * (end - tl).as_secs_f64();
        }
        Some(acc / (end - first).as_secs_f64())
    }

    /// Total simulated time during which `pred` held (zero-order hold).
    pub fn duration_where<F: Fn(f64) -> bool>(&self, end: Time, pred: F) -> Duration {
        let mut acc = Duration::ZERO;
        for w in self.samples.windows(2) {
            let (t0, v0) = w[0];
            let (t1, _) = w[1];
            let t1 = t1.min(end);
            if t1 > t0 && pred(v0) {
                acc += t1 - t0;
            }
        }
        if let Some(&(tl, vl)) = self.samples.last() {
            if end > tl && pred(vl) {
                acc += end - tl;
            }
        }
        acc
    }
}

impl FromIterator<(Time, f64)> for Series {
    fn from_iter<I: IntoIterator<Item = (Time, f64)>>(iter: I) -> Self {
        Series {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Time, f64)> for Series {
    fn extend<I: IntoIterator<Item = (Time, f64)>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

/// Nearest-rank percentile (`ceil(q·n)` convention) over an
/// ascending-sorted slice; `q` in `[0, 1]`. Returns `None` when empty.
///
/// This is the one percentile definition every reported statistic in the
/// workspace shares — [`Series::percentile`] and the fleet aggregates both
/// delegate here.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn empty_series_yields_none() {
        let s = Series::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.std_dev(), None);
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.time_weighted_mean(secs(1)), None);
    }

    #[test]
    fn basic_statistics() {
        let s: Series = (0..5).map(|i| (secs(i), i as f64)).collect();
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.percentile(0.5), Some(2.0));
        assert_eq!(s.percentile(1.0), Some(4.0));
        assert_eq!(s.percentile(0.0), Some(0.0));
        let sd = s.std_dev().unwrap();
        assert!((sd - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_uses_hold() {
        let mut s = Series::new();
        s.push(secs(0), 0.0);
        s.push(secs(1), 10.0);
        // 0.0 for 1s, then 10.0 for 3s => (0*1 + 10*3)/4 = 7.5
        assert_eq!(s.time_weighted_mean(secs(4)), Some(7.5));
    }

    #[test]
    fn duration_where_accumulates_hold_intervals() {
        let mut s = Series::new();
        s.push(secs(0), 1.0);
        s.push(secs(2), 0.0);
        s.push(secs(3), 1.0);
        let d = s.duration_where(secs(5), |v| v > 0.5);
        assert_eq!(d, Duration::from_secs(4)); // [0,2) and [3,5)
    }

    #[test]
    fn fraction_and_first_time() {
        let s: Series = (0..10).map(|i| (secs(i), i as f64)).collect();
        assert_eq!(s.fraction_where(|v| v >= 5.0), Some(0.5));
        assert_eq!(s.first_time_where(|v| v >= 7.0), Some(secs(7)));
        assert_eq!(s.first_time_where(|v| v > 100.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validates_q() {
        let s: Series = [(secs(0), 1.0)].into_iter().collect();
        let _ = s.percentile(1.5);
    }
}
