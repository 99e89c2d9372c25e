//! Time-series recording and summary statistics for experiments.
//!
//! [`Series`] collects `(Time, f64)` samples produced by a simulation run and
//! offers the aggregates the benchmark harness reports (mean, percentiles,
//! min/max).

use crate::time::Time;

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

    /// Appends a sample (timestamps non-decreasing by convention).
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
        assert_eq!(s.percentile(0.5), None);
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
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validates_q() {
        let s: Series = [(secs(0), 1.0)].into_iter().collect();
        let _ = s.percentile(1.5);
    }
}
