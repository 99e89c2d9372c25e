//! Decision support: mapping the vehicle's ability level to a driving mode.
//!
//! Sec. IV: *"The ability level of the vehicle can then guide decision
//! making and the vehicle's behavior execution."* The mapping uses
//! hysteresis so noisy ability levels do not cause mode flapping.

use std::fmt;

/// Operating mode selected from the vehicle's current abilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DrivingMode {
    /// Full functionality.
    Normal,
    /// Degraded operation under a speed cap (m/s).
    Reduced {
        /// Maximum permitted speed.
        speed_cap_mps: f64,
    },
    /// Minimal-risk manoeuvre: controlled stop in a safe place.
    SafeStop,
}

impl fmt::Display for DrivingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrivingMode::Normal => write!(f, "normal"),
            DrivingMode::Reduced { speed_cap_mps } => {
                write!(f, "reduced (cap {speed_cap_mps:.1} m/s)")
            }
            DrivingMode::SafeStop => write!(f, "safe-stop"),
        }
    }
}

/// Hysteretic mapping from root ability level to [`DrivingMode`].
#[derive(Debug, Clone)]
pub struct ModePolicy {
    /// Below this level the vehicle leaves Normal mode.
    reduced_below: f64,
    /// Below this level the vehicle commits to a safe stop.
    stop_below: f64,
    /// Hysteresis band for upward transitions.
    hysteresis: f64,
    /// Speed cap applied in Reduced mode.
    reduced_cap_mps: f64,
    current: DrivingMode,
}

impl ModePolicy {
    /// Creates a policy.
    ///
    /// # Panics
    /// Panics unless `0 <= stop_below < reduced_below <= 1` and
    /// `hysteresis >= 0`.
    pub fn new(reduced_below: f64, stop_below: f64, hysteresis: f64, reduced_cap_mps: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&reduced_below) && stop_below >= 0.0 && stop_below < reduced_below,
            "thresholds must satisfy 0 <= stop < reduced <= 1"
        );
        assert!(hysteresis >= 0.0);
        ModePolicy {
            reduced_below,
            stop_below,
            hysteresis,
            reduced_cap_mps,
            current: DrivingMode::Normal,
        }
    }

    /// A sensible default: reduce below 0.8, stop below 0.3, 0.05
    /// hysteresis, 15 m/s cap.
    pub fn with_defaults() -> Self {
        ModePolicy::new(0.8, 0.3, 0.05, 15.0)
    }

    /// The current mode.
    pub fn mode(&self) -> DrivingMode {
        self.current
    }

    /// Feeds a new root ability level; returns the (possibly unchanged)
    /// mode. Safe-stop is sticky: once committed, the vehicle stays in
    /// minimal-risk mode until externally reset (a stopped vehicle must not
    /// resume because a sensor briefly looks better).
    pub fn update(&mut self, root_level: f64) -> DrivingMode {
        self.current = match self.current {
            DrivingMode::SafeStop => DrivingMode::SafeStop,
            DrivingMode::Normal => {
                if root_level < self.stop_below {
                    DrivingMode::SafeStop
                } else if root_level < self.reduced_below {
                    DrivingMode::Reduced {
                        speed_cap_mps: self.reduced_cap_mps,
                    }
                } else {
                    DrivingMode::Normal
                }
            }
            DrivingMode::Reduced { .. } => {
                if root_level < self.stop_below {
                    DrivingMode::SafeStop
                } else if root_level >= self.reduced_below + self.hysteresis {
                    DrivingMode::Normal
                } else {
                    DrivingMode::Reduced {
                        speed_cap_mps: self.reduced_cap_mps,
                    }
                }
            }
        };
        self.current
    }

    /// Commits the policy to the minimal-risk mode, regardless of the
    /// ability level — used when a higher authority (the objective layer)
    /// orders a safe stop for reasons the ability level alone does not
    /// capture.
    pub fn commit_safe_stop(&mut self) {
        self.current = DrivingMode::SafeStop;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_stays_normal() {
        let mut p = ModePolicy::with_defaults();
        for _ in 0..10 {
            assert_eq!(p.update(0.95), DrivingMode::Normal);
        }
    }

    #[test]
    fn degradation_reduces_then_stops() {
        let mut p = ModePolicy::with_defaults();
        assert!(matches!(p.update(0.6), DrivingMode::Reduced { .. }));
        assert_eq!(p.update(0.2), DrivingMode::SafeStop);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut p = ModePolicy::with_defaults();
        p.update(0.75); // Reduced
                        // 0.81 is above reduced_below but inside the hysteresis band.
        assert!(matches!(p.update(0.81), DrivingMode::Reduced { .. }));
        // 0.86 clears the band.
        assert_eq!(p.update(0.86), DrivingMode::Normal);
    }

    #[test]
    fn safe_stop_is_sticky() {
        let mut p = ModePolicy::with_defaults();
        p.update(0.1);
        assert_eq!(p.mode(), DrivingMode::SafeStop);
        assert_eq!(p.update(1.0), DrivingMode::SafeStop);
    }

    #[test]
    fn committed_safe_stop_is_sticky() {
        let mut p = ModePolicy::with_defaults();
        assert_eq!(p.update(1.0), DrivingMode::Normal);
        p.commit_safe_stop();
        assert_eq!(p.update(1.0), DrivingMode::SafeStop);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn bad_thresholds_rejected() {
        let _ = ModePolicy::new(0.3, 0.8, 0.05, 15.0);
    }
}
