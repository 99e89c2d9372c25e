//! Dynamic voltage and frequency scaling (DVFS).
//!
//! A processing element exposes a table of operating performance points
//! (OPPs) and a thermal [`ThrottleGovernor`] that steps down the OPP when the
//! die temperature crosses a throttle threshold and steps back up after the
//! element has cooled. This reproduces the cross-layer causality chain in
//! Sec. V of the paper: ambient temperature → throttling → slower execution →
//! deadline misses.

/// One operating performance point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core clock in MHz.
    pub freq_mhz: f64,
    /// Supply voltage in volts.
    pub voltage_v: f64,
}

impl OperatingPoint {
    /// Creates an OPP.
    ///
    /// # Panics
    /// Panics unless frequency and voltage are strictly positive.
    pub fn new(freq_mhz: f64, voltage_v: f64) -> Self {
        assert!(freq_mhz > 0.0, "frequency must be positive");
        assert!(voltage_v > 0.0, "voltage must be positive");
        OperatingPoint {
            freq_mhz,
            voltage_v,
        }
    }
}

/// An ordered table of OPPs, slowest first.
#[derive(Debug, Clone)]
pub struct DvfsTable {
    points: Vec<OperatingPoint>,
}

impl DvfsTable {
    /// Creates a table from OPPs sorted by ascending frequency.
    ///
    /// # Panics
    /// Panics if `points` is empty or not strictly ascending in frequency.
    pub fn new(points: Vec<OperatingPoint>) -> Self {
        assert!(!points.is_empty(), "DVFS table must have at least one OPP");
        for w in points.windows(2) {
            assert!(
                w[0].freq_mhz < w[1].freq_mhz,
                "OPPs must be strictly ascending in frequency"
            );
        }
        DvfsTable { points }
    }

    /// A typical automotive MCU-style table: 400/800/1200/1600 MHz.
    pub fn typical_quad() -> Self {
        DvfsTable::new(vec![
            OperatingPoint::new(400.0, 0.80),
            OperatingPoint::new(800.0, 0.90),
            OperatingPoint::new(1200.0, 1.00),
            OperatingPoint::new(1600.0, 1.10),
        ])
    }

    /// The OPP at `level` (0 = slowest).
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    pub fn point(&self, level: usize) -> OperatingPoint {
        self.points[level]
    }

    /// Index of the fastest OPP.
    pub fn top_level(&self) -> usize {
        self.points.len() - 1
    }

    /// The nominal (fastest) OPP, against which WCETs are specified.
    pub fn nominal(&self) -> OperatingPoint {
        self.points[self.top_level()]
    }

    /// Execution-time scale factor of `level` relative to nominal
    /// (`>= 1.0`; 1.0 at the fastest OPP).
    pub fn slowdown(&self, level: usize) -> f64 {
        self.nominal().freq_mhz / self.point(level).freq_mhz
    }
}

/// Hysteretic thermal throttling governor.
///
/// Steps one OPP down whenever temperature exceeds `throttle_c`, and one OPP
/// up when it falls below `recover_c`. The gap between the two thresholds
/// provides hysteresis so the governor does not oscillate on noise.
#[derive(Debug, Clone)]
pub struct ThrottleGovernor {
    throttle_c: f64,
    recover_c: f64,
    /// Temperature at which the element must shut down to avoid damage.
    critical_c: f64,
}

/// Decision taken by the governor for one control step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorDecision {
    /// Keep the current OPP.
    Hold,
    /// Step one OPP down (slower).
    StepDown,
    /// Step one OPP up (faster).
    StepUp,
    /// Temperature is critical: the element must stop.
    Shutdown,
}

impl ThrottleGovernor {
    /// Creates a governor.
    ///
    /// # Panics
    /// Panics unless `recover_c < throttle_c < critical_c`.
    pub fn new(throttle_c: f64, recover_c: f64, critical_c: f64) -> Self {
        assert!(
            recover_c < throttle_c && throttle_c < critical_c,
            "thresholds must satisfy recover < throttle < critical"
        );
        ThrottleGovernor {
            throttle_c,
            recover_c,
            critical_c,
        }
    }

    /// Default thresholds for automotive-grade silicon (85/70/110 °C).
    pub fn automotive() -> Self {
        ThrottleGovernor::new(85.0, 70.0, 110.0)
    }

    /// Evaluates the governor at the given die temperature and OPP level.
    pub fn evaluate(&self, temp_c: f64, level: usize, top_level: usize) -> GovernorDecision {
        if temp_c >= self.critical_c {
            GovernorDecision::Shutdown
        } else if temp_c >= self.throttle_c && level > 0 {
            GovernorDecision::StepDown
        } else if temp_c <= self.recover_c && level < top_level {
            GovernorDecision::StepUp
        } else {
            GovernorDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_slowdown_relative_to_nominal() {
        let t = DvfsTable::typical_quad();
        assert_eq!(t.top_level(), 3, "four OPPs");
        assert_eq!(t.slowdown(t.top_level()), 1.0);
        assert_eq!(t.slowdown(0), 4.0);
        assert_eq!(t.slowdown(1), 2.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn table_rejects_unsorted() {
        let _ = DvfsTable::new(vec![
            OperatingPoint::new(800.0, 0.9),
            OperatingPoint::new(400.0, 0.8),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn table_rejects_empty() {
        let _ = DvfsTable::new(vec![]);
    }

    #[test]
    fn governor_decisions() {
        let g = ThrottleGovernor::new(85.0, 70.0, 110.0);
        assert_eq!(g.evaluate(60.0, 3, 3), GovernorDecision::Hold);
        assert_eq!(g.evaluate(60.0, 1, 3), GovernorDecision::StepUp);
        assert_eq!(g.evaluate(90.0, 2, 3), GovernorDecision::StepDown);
        assert_eq!(g.evaluate(90.0, 0, 3), GovernorDecision::Hold); // already slowest
        assert_eq!(g.evaluate(115.0, 0, 3), GovernorDecision::Shutdown);
    }

    #[test]
    fn governor_hysteresis_band_holds() {
        let g = ThrottleGovernor::automotive();
        // Between recover and throttle: hold regardless of level headroom.
        assert_eq!(g.evaluate(77.0, 1, 3), GovernorDecision::Hold);
        assert_eq!(g.evaluate(77.0, 3, 3), GovernorDecision::Hold);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn governor_rejects_bad_thresholds() {
        let _ = ThrottleGovernor::new(70.0, 85.0, 110.0);
    }
}
