//! Signal monitors: heartbeat (SAFER baseline), boundary checks (RACE
//! baseline) and quality estimation.
//!
//! The paper contrasts richer self-awareness with two prior systems: SAFER
//! activates degradation only "if the heartbeat of a sensor goes missing"
//! and RACE limits failure detection to "a set of boundary checks". Both are
//! implemented here as baselines; [`QualityMonitor`] provides the
//! finer-grained data-quality assessment the paper calls for (Sec. IV).

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
    /// The window's fold, recomputed only when `observe` moves the window.
    quality: f64,
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
            quality: 1.0,
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
        self.quality = self.fold();
        let q = self.quality;
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
    /// `valid fraction × noise margin` over the sample window (1 before the
    /// first sample).
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// Folds the (non-empty) sample window into its quality estimate.
    fn fold(&self) -> f64 {
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
        // Only one anomaly per episode.
        assert!(m.check(Time::from_millis(400)).is_none());
        m.beat(Time::from_millis(500));
        assert!(m.check(Time::from_millis(800)).is_none(), "beat in time");
        assert!(m.check(Time::from_millis(900)).is_some(), "re-armed");
        assert!(
            m.check(Time::from_millis(1_000)).is_none(),
            "one per episode"
        );
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

    /// `quality()` returns the fold `observe` stored; it must equal the
    /// window folded from scratch after every sample: at start-up, while
    /// the window fills, across the 50-sample boundary and while it
    /// slides, through clean, noisy and dropout phases (all-dropout
    /// stretches included).
    #[test]
    fn stored_quality_matches_a_fresh_fold_of_the_window() {
        let (nominal, max) = (0.5, 5.0);
        let refold = |window: &VecDeque<(bool, f64)>| {
            if window.is_empty() {
                return 1.0;
            }
            let valid: Vec<f64> = window.iter().filter(|s| s.0).map(|s| s.1).collect();
            let noise = if valid.len() < 2 {
                nominal
            } else {
                (valid.iter().fold(0.0, |acc, r| acc + r * r) / valid.len() as f64).sqrt()
            };
            let margin = 1.0 - ((noise - nominal) / (max - nominal)).clamp(0.0, 1.0);
            (valid.len() as f64 / window.len() as f64 * margin).clamp(0.0, 1.0)
        };
        let mut rng = saav_sim::rng::SimRng::seed_from(2017);
        let mut m = QualityMonitor::new("radar", nominal, max, 0.7);
        let mut window = VecDeque::new();
        assert_eq!(m.quality().to_bits(), refold(&window).to_bits());
        for i in 0..400u64 {
            // 0–59 clean, 60–139 noisy, 140–219 mostly dropouts, then mixed.
            let (drop_p, noise) = match i {
                0..=59 => (0.0, 0.1),
                60..=139 => (0.1, 6.0),
                140..=219 => (0.97, 1.0),
                _ => (0.4, 2.0),
            };
            let valid = !rng.chance(drop_p);
            let residual = if valid {
                rng.uniform(-noise, noise)
            } else {
                0.0
            };
            m.observe(Time::from_millis(i * 10), valid, residual);
            window.push_back((valid, residual));
            if window.len() > 50 {
                window.pop_front();
            }
            assert_eq!(
                m.quality().to_bits(),
                refold(&window).to_bits(),
                "sample {i}"
            );
        }
    }
}
