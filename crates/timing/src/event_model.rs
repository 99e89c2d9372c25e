//! PJD event models (period, jitter, minimum distance).
//!
//! The standard event-model abstraction of compositional performance
//! analysis (CPA), which the CCC model domain uses for its timing viewpoint.
//! An event model bounds how many activations can arrive in any half-open
//! time window (`η⁺`, [`EventModel::eta_plus`]) and how close together the
//! first `n` events can be (`δ⁻`, [`EventModel::delta_min`]).

use saav_sim::time::Duration;

/// A (P, J, d_min) event model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventModel {
    period: Duration,
    jitter: Duration,
    d_min: Duration,
}

impl EventModel {
    /// A strictly periodic event stream.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn periodic(period: Duration) -> Self {
        EventModel::with_jitter(period, Duration::ZERO)
    }

    /// A periodic stream with release jitter.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn with_jitter(period: Duration, jitter: Duration) -> Self {
        EventModel::new(period, jitter, Duration::from_nanos(1))
    }

    /// A full (P, J, d_min) model. `d_min` lower-bounds consecutive event
    /// distance even when jitter would otherwise allow bursts.
    ///
    /// # Panics
    /// Panics if `period` or `d_min` is zero.
    pub fn new(period: Duration, jitter: Duration, d_min: Duration) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        assert!(!d_min.is_zero(), "d_min must be positive");
        EventModel {
            period,
            jitter,
            d_min,
        }
    }

    /// Maximum number of events in any half-open window of length `dt`
    /// (`η⁺`).
    pub fn eta_plus(&self, dt: Duration) -> u64 {
        let dt_ns = dt.as_nanos();
        if dt_ns == 0 {
            return 0;
        }
        let p = self.period.as_nanos();
        let j = self.jitter.as_nanos();
        let d = self.d_min.as_nanos();
        // Largest n with (n-1)·P − J < dt  ⟺  n ≤ (dt + J − 1) div P + 1.
        let n_periodic = (dt_ns + j - 1) / p + 1;
        // Largest n with (n-1)·d_min < dt.
        let n_dmin = (dt_ns - 1) / d + 1;
        n_periodic.min(n_dmin)
    }

    /// Minimum distance between the first and the `n`-th event (`δ⁻`).
    pub fn delta_min(&self, n: u64) -> Duration {
        if n <= 1 {
            return Duration::ZERO;
        }
        let spread = self.period * (n - 1);
        let periodic = spread.saturating_sub(self.jitter);
        let dmin = self.d_min * (n - 1);
        periodic.max(dmin)
    }

    /// Long-run activation rate in events per second.
    pub fn rate_hz(&self) -> f64 {
        1.0 / self.period.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn periodic_eta_plus() {
        let m = EventModel::periodic(ms(10));
        assert_eq!(m.eta_plus(Duration::ZERO), 0);
        assert_eq!(m.eta_plus(ms(1)), 1);
        assert_eq!(m.eta_plus(ms(10)), 1);
        assert_eq!(m.eta_plus(ms(10) + Duration::from_nanos(1)), 2);
        assert_eq!(m.eta_plus(ms(100)), 10);
        assert_eq!(m.eta_plus(ms(100) + Duration::from_nanos(1)), 11);
    }

    #[test]
    fn jitter_admits_bursts() {
        let m = EventModel::with_jitter(ms(10), ms(5));
        // With J=5ms, two events can fall within any window > 5ms.
        assert_eq!(m.eta_plus(ms(10)), 2);
        assert_eq!(m.eta_plus(ms(5)), 1);
        assert_eq!(m.eta_plus(ms(6)), 2);
    }

    #[test]
    fn d_min_caps_burst_density() {
        // Huge jitter but 2ms minimum distance.
        let m = EventModel::new(ms(10), ms(100), ms(2));
        assert_eq!(m.eta_plus(ms(2)), 1);
        assert_eq!(m.eta_plus(ms(4)), 2);
        assert_eq!(m.eta_plus(ms(10)), 5);
    }

    #[test]
    fn delta_min_is_pseudo_inverse_of_eta_plus() {
        let models = [
            EventModel::periodic(ms(7)),
            EventModel::with_jitter(ms(10), ms(3)),
            EventModel::new(ms(10), ms(25), ms(1)),
        ];
        for m in models {
            for n in 2..20u64 {
                let d = m.delta_min(n);
                // n events fit in any window slightly larger than δ⁻(n).
                assert!(m.eta_plus(d + Duration::from_nanos(1)) >= n, "{m:?} n={n}");
            }
        }
    }

    #[test]
    fn delta_min_values() {
        let m = EventModel::with_jitter(ms(10), ms(4));
        assert_eq!(m.delta_min(1), Duration::ZERO);
        assert_eq!(m.delta_min(2), ms(6));
        assert_eq!(m.delta_min(3), ms(16));
        // Jitter larger than the spread saturates at d_min spacing.
        let b = EventModel::new(ms(10), ms(50), ms(1));
        assert_eq!(b.delta_min(3), ms(2));
    }

    #[test]
    fn rate() {
        assert!((EventModel::periodic(ms(10)).rate_hz() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        let _ = EventModel::periodic(Duration::ZERO);
    }
}
