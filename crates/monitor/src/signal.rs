//! Signal monitors: heartbeat (SAFER baseline), boundary checks (RACE
//! baseline), plausibility and quality estimation.
//!
//! The paper contrasts richer self-awareness with two prior systems: SAFER
//! activates degradation only "if the heartbeat of a sensor goes missing"
//! and RACE limits failure detection to "a set of boundary checks". Both are
//! implemented here as baselines; [`PlausibilityMonitor`] and
//! [`QualityMonitor`] provide the finer-grained data-quality assessment the
//! paper calls for (Sec. IV).

use std::collections::VecDeque;

use saav_sim::name::Name;
use saav_sim::time::{Duration, Time};

use crate::anomaly::{Anomaly, AnomalyKind};

/// Heartbeat supervision: expects a beat at least every
/// `period × timeout_factor`.
///
/// This is the SAFER-style baseline detector.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    subject: Name,
    period: Duration,
    timeout_factor: f64,
    last_beat: Option<Time>,
    lost: bool,
}

impl HeartbeatMonitor {
    /// Creates a monitor; detection triggers after `period × timeout_factor`
    /// without a beat.
    ///
    /// # Panics
    /// Panics if `period` is zero or `timeout_factor < 1`.
    pub fn new(subject: impl Into<Name>, period: Duration, timeout_factor: f64) -> Self {
        assert!(!period.is_zero());
        assert!(timeout_factor >= 1.0, "timeout factor below 1 is nonsense");
        HeartbeatMonitor {
            subject: subject.into(),
            period,
            timeout_factor,
            last_beat: None,
            lost: false,
        }
    }

    /// Records a heartbeat.
    pub fn beat(&mut self, at: Time) {
        self.last_beat = Some(at);
        self.lost = false;
    }

    /// Checks for heartbeat loss at time `now`. Emits one anomaly per loss
    /// episode (re-arms after the next beat).
    pub fn check(&mut self, now: Time) -> Option<Anomaly> {
        let reference = self.last_beat?;
        let timeout = self.period.mul_f64(self.timeout_factor);
        if !self.lost && now.saturating_since(reference) > timeout {
            self.lost = true;
            return Some(Anomaly::new(
                now,
                self.subject.clone(),
                AnomalyKind::HeartbeatLoss,
            ));
        }
        None
    }

    /// Whether the heartbeat is currently considered lost.
    pub fn is_lost(&self) -> bool {
        self.lost
    }
}

/// Static range check: the RACE-style baseline detector.
#[derive(Debug, Clone)]
pub struct BoundaryMonitor {
    subject: Name,
    min: f64,
    max: f64,
}

impl BoundaryMonitor {
    /// Creates a boundary monitor for values in `[min, max]`.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn new(subject: impl Into<Name>, min: f64, max: f64) -> Self {
        assert!(min <= max, "empty boundary range");
        BoundaryMonitor {
            subject: subject.into(),
            min,
            max,
        }
    }

    /// Checks one sample.
    pub fn observe(&self, at: Time, value: f64) -> Option<Anomaly> {
        if value < self.min || value > self.max {
            Some(Anomaly::new(
                at,
                self.subject.clone(),
                AnomalyKind::OutOfRange,
            ))
        } else {
            None
        }
    }
}

/// Plausibility supervision: range, rate-of-change and stuck-at detection
/// over a sliding window.
#[derive(Debug, Clone)]
pub struct PlausibilityMonitor {
    subject: Name,
    min: f64,
    max: f64,
    /// Maximum plausible |dv/dt| in units per second.
    max_rate: f64,
    /// Samples for stuck-at detection.
    window: VecDeque<(Time, f64)>,
    window_len: usize,
    /// A signal is stuck when it stays within this band over a full window
    /// while `expect_variation` is set.
    stuck_band: f64,
    expect_variation: bool,
    last: Option<(Time, f64)>,
}

impl PlausibilityMonitor {
    /// Creates a plausibility monitor.
    ///
    /// # Panics
    /// Panics if `min > max` or `max_rate <= 0`.
    pub fn new(subject: impl Into<Name>, min: f64, max: f64, max_rate: f64) -> Self {
        assert!(min <= max);
        assert!(max_rate > 0.0);
        PlausibilityMonitor {
            subject: subject.into(),
            min,
            max,
            max_rate,
            window: VecDeque::new(),
            window_len: 50,
            stuck_band: 1e-9,
            expect_variation: false,
            last: None,
        }
    }

    /// Enables stuck-at detection: the signal is expected to vary by more
    /// than `band` over any `window_len` consecutive samples.
    pub fn expect_variation(mut self, band: f64, window_len: usize) -> Self {
        assert!(window_len >= 2);
        self.expect_variation = true;
        self.stuck_band = band.abs();
        self.window_len = window_len;
        self
    }

    /// Feeds one sample; returns all anomalies it triggers.
    pub fn observe(&mut self, at: Time, value: f64) -> Vec<Anomaly> {
        let mut out = Vec::new();
        if value < self.min || value > self.max {
            out.push(Anomaly::new(
                at,
                self.subject.clone(),
                AnomalyKind::OutOfRange,
            ));
        }
        if let Some((t0, v0)) = self.last {
            let dt = at.saturating_since(t0).as_secs_f64();
            if dt > 0.0 {
                let rate = (value - v0).abs() / dt;
                if rate > self.max_rate {
                    out.push(Anomaly::new(
                        at,
                        self.subject.clone(),
                        AnomalyKind::ImplausibleRate,
                    ));
                }
            }
        }
        self.last = Some((at, value));
        if self.expect_variation {
            self.window.push_back((at, value));
            while self.window.len() > self.window_len {
                self.window.pop_front();
            }
            if self.window.len() == self.window_len {
                let lo = self
                    .window
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(f64::INFINITY, f64::min);
                let hi = self
                    .window
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(f64::NEG_INFINITY, f64::max);
                if hi - lo <= self.stuck_band {
                    out.push(Anomaly::new(
                        at,
                        self.subject.clone(),
                        AnomalyKind::StuckSignal,
                    ));
                    self.window.clear(); // re-arm
                }
            }
        }
        out
    }
}

/// Continuous signal-quality estimation in `[0, 1]` from sample validity and
/// noise, feeding the ability graph's performance metrics.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    subject: Name,
    window: VecDeque<(bool, f64)>,
    window_len: usize,
    /// Noise level (std dev) considered nominal (quality 1.0).
    nominal_noise: f64,
    /// Noise level at which quality reaches 0.
    max_noise: f64,
    threshold: f64,
    below: bool,
}

impl QualityMonitor {
    /// Creates a quality monitor.
    ///
    /// # Panics
    /// Panics unless `0 <= nominal_noise < max_noise` and
    /// `threshold ∈ [0, 1]`.
    pub fn new(
        subject: impl Into<Name>,
        nominal_noise: f64,
        max_noise: f64,
        threshold: f64,
    ) -> Self {
        assert!(nominal_noise >= 0.0 && nominal_noise < max_noise);
        assert!((0.0..=1.0).contains(&threshold));
        QualityMonitor {
            subject: subject.into(),
            window: VecDeque::new(),
            window_len: 50,
            nominal_noise,
            max_noise,
            threshold,
            below: false,
        }
    }

    /// Feeds one sample: `valid` is false for dropouts; `residual` is the
    /// deviation from a reference (e.g. innovation/prediction error).
    /// Returns an anomaly when quality crosses below the threshold.
    pub fn observe(&mut self, at: Time, valid: bool, residual: f64) -> Option<Anomaly> {
        self.window.push_back((valid, residual));
        while self.window.len() > self.window_len {
            self.window.pop_front();
        }
        let q = self.quality();
        if q < self.threshold && !self.below {
            self.below = true;
            return Some(Anomaly::new(
                at,
                self.subject.clone(),
                AnomalyKind::QualityDegraded,
            ));
        }
        if q >= self.threshold {
            self.below = false;
        }
        None
    }

    /// Current quality estimate in `[0, 1]`:
    /// `valid fraction × noise margin`.
    pub fn quality(&self) -> f64 {
        if self.window.is_empty() {
            return 1.0;
        }
        let n = self.window.len() as f64;
        let (valid_n, sum_sq) = self
            .window
            .iter()
            .filter(|(v, _)| *v)
            .fold((0usize, 0.0), |(c, s), &(_, r)| (c + 1, s + r * r));
        let valid_frac = valid_n as f64 / n;
        // With under two valid samples there is no noise evidence yet —
        // assume nominal rather than condemning a signal at startup. The
        // valid-fraction term still pulls quality down if everything drops
        // out.
        //
        // The error measure is the RMS residual, not the standard
        // deviation: a frozen (stuck-at) sensor produces residuals with
        // zero variance but growing bias, and only an RMS-style measure
        // sees that class of plausible-but-wrong failure.
        let noise = if valid_n < 2 {
            self.nominal_noise
        } else {
            (sum_sq / valid_n as f64).sqrt()
        };
        let noise_margin = 1.0
            - ((noise - self.nominal_noise) / (self.max_noise - self.nominal_noise))
                .clamp(0.0, 1.0);
        (valid_frac * noise_margin).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u64) -> Time {
        Time::from_secs(v)
    }

    #[test]
    fn heartbeat_loss_and_rearm() {
        let mut m = HeartbeatMonitor::new("radar", Duration::from_millis(100), 3.0);
        assert!(m.check(s(10)).is_none(), "no beat yet, no reference");
        m.beat(Time::from_millis(0));
        assert!(m.check(Time::from_millis(200)).is_none());
        let a = m.check(Time::from_millis(301)).expect("loss detected");
        assert_eq!(a.kind, AnomalyKind::HeartbeatLoss);
        assert!(m.is_lost());
        // Only one anomaly per episode.
        assert!(m.check(Time::from_millis(400)).is_none());
        m.beat(Time::from_millis(500));
        assert!(!m.is_lost());
        assert!(m.check(Time::from_millis(900)).is_some(), "re-armed");
    }

    #[test]
    fn boundary_detects_only_range() {
        let m = BoundaryMonitor::new("speed", 0.0, 60.0);
        assert!(m.observe(s(1), 30.0).is_none());
        assert!(m.observe(s(1), -0.1).is_some());
        assert!(m.observe(s(1), 60.1).is_some());
        // Boundary check cannot see a plausible-but-wrong value — that is
        // exactly the RACE baseline's blind spot.
        assert!(m.observe(s(1), 59.9).is_none());
    }

    #[test]
    fn plausibility_detects_jump() {
        let mut m = PlausibilityMonitor::new("range", 0.0, 250.0, 50.0);
        assert!(m.observe(s(1), 100.0).is_empty());
        // 100 -> 90 over 1 s = 10/s: fine.
        assert!(m.observe(s(2), 90.0).is_empty());
        // 90 -> 20 over 1 s = 70/s: implausible.
        let a = m.observe(s(3), 20.0);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AnomalyKind::ImplausibleRate);
    }

    #[test]
    fn plausibility_detects_stuck_signal() {
        let mut m =
            PlausibilityMonitor::new("wheel", 0.0, 100.0, 1000.0).expect_variation(0.001, 10);
        let mut anomalies = Vec::new();
        for i in 0..10 {
            anomalies.extend(m.observe(Time::from_millis(i * 10), 42.0));
        }
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::StuckSignal);
    }

    #[test]
    fn varying_signal_not_stuck() {
        let mut m =
            PlausibilityMonitor::new("wheel", 0.0, 100.0, 1000.0).expect_variation(0.001, 10);
        for i in 0..50 {
            let v = 42.0 + (i as f64 * 0.1);
            assert!(m.observe(Time::from_millis(i * 10), v).is_empty());
        }
    }

    #[test]
    fn quality_degrades_with_dropouts() {
        let mut m = QualityMonitor::new("radar", 0.5, 5.0, 0.7);
        // Clean samples: quality stays high.
        for i in 0..50 {
            assert!(m.observe(Time::from_millis(i * 10), true, 0.0).is_none());
        }
        assert!(m.quality() > 0.9);
        // Half the samples drop out: quality sinks, anomaly fires once.
        let mut fired = 0;
        for i in 50..150 {
            if m.observe(Time::from_millis(i * 10), i % 2 == 0, 0.0)
                .is_some()
            {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        assert!(m.quality() < 0.7, "quality {}", m.quality());
    }

    #[test]
    fn quality_degrades_with_noise() {
        let mut m = QualityMonitor::new("radar", 0.5, 5.0, 0.7);
        // Alternate residuals +-4: std dev 4, close to max noise.
        for i in 0..50 {
            let r = if i % 2 == 0 { 4.0 } else { -4.0 };
            m.observe(Time::from_millis(i * 10), true, r);
        }
        assert!(m.quality() < 0.3, "quality {}", m.quality());
    }
}
