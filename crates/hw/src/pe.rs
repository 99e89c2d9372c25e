//! Processing elements: the computing resources of the platform.
//!
//! A [`ProcessingElement`] combines a DVFS table, a power model and a
//! thermal node. Each simulation step it computes power from utilization,
//! integrates temperature and lets the throttle governor adjust the
//! operating point or shut the element down. The resulting
//! [`speed_factor`](ProcessingElement::speed_factor) scales task execution
//! times in the RTE — the mechanism by which thermal stress becomes a timing
//! problem, as discussed in Sec. V of the paper.

use saav_sim::time::{Duration, Time};

use crate::dvfs::{DvfsTable, GovernorDecision, ThrottleGovernor};
use crate::power::PowerModel;
use crate::thermal::ThermalModel;

/// Health of a platform element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Health {
    /// Operational (possibly throttled: see
    /// [`ProcessingElement::speed_factor`]).
    Ok,
    /// Shut down by the governor; not operational.
    Failed,
}

impl Health {
    /// Whether the element can still provide (possibly degraded) service.
    pub fn is_operational(self) -> bool {
        !matches!(self, Health::Failed)
    }
}

/// Identifier of a processing element within a [`Platform`].
///
/// [`Platform`]: crate::platform::Platform
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(pub usize);

impl std::fmt::Display for PeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// A single processing element.
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    dvfs: DvfsTable,
    level: usize,
    governor: ThrottleGovernor,
    power: PowerModel,
    thermal: ThermalModel,
    utilization: f64,
    /// Set when the governor demanded shutdown.
    thermally_shutdown: bool,
    throttle_events: u64,
    /// Last OPP change, for governor settling.
    last_level_change: Time,
    /// Minimum dwell between downward OPP steps, giving the rest of the
    /// system time to adapt at each intermediate operating point. Sized at
    /// about twice the thermal time constant so a load reduction at the new
    /// OPP can actually show up in the die temperature before the governor
    /// steps again.
    settle_down: Duration,
    /// Minimum dwell before stepping back up.
    settle_up: Duration,
}

impl ProcessingElement {
    /// Creates a PE from explicit models, starting at the fastest OPP.
    pub fn new(
        dvfs: DvfsTable,
        governor: ThrottleGovernor,
        power: PowerModel,
        thermal: ThermalModel,
    ) -> Self {
        let level = dvfs.top_level();
        ProcessingElement {
            dvfs,
            level,
            governor,
            power,
            thermal,
            utilization: 0.0,
            thermally_shutdown: false,
            throttle_events: 0,
            last_level_change: Time::ZERO,
            settle_down: Duration::from_secs(40),
            settle_up: Duration::from_secs(60),
        }
    }

    /// A PE with typical embedded-SoC models.
    pub fn embedded_soc() -> Self {
        ProcessingElement::new(
            DvfsTable::typical_quad(),
            ThrottleGovernor::automotive(),
            PowerModel::embedded_soc(),
            ThermalModel::embedded_soc(),
        )
    }

    /// Current die temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    /// Current health: [`Health::Failed`] once the governor shut the
    /// element down, else [`Health::Ok`].
    pub fn health(&self) -> Health {
        if self.thermally_shutdown {
            Health::Failed
        } else {
            Health::Ok
        }
    }

    /// Execution-time multiplier relative to nominal WCETs (`>= 1`).
    ///
    /// Returns `f64::INFINITY` when the element is failed, which makes any
    /// execution on it impossible by construction.
    pub fn speed_factor(&self) -> f64 {
        if !self.health().is_operational() {
            f64::INFINITY
        } else {
            self.dvfs.slowdown(self.level)
        }
    }

    /// Times the governor stepped the OPP down so far.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// Sets the utilization (activity factor) used for the next power step.
    pub fn set_utilization(&mut self, utilization: f64) {
        self.utilization = utilization.clamp(0.0, 1.0);
    }

    /// Advances the PE by `dt`: power → temperature → governor.
    pub fn step(&mut self, now: Time, dt: Duration, ambient_c: f64) {
        let active = !self.thermally_shutdown;
        let util = if active { self.utilization } else { 0.0 };
        let p = self.power.power_w(
            self.dvfs.point(self.level),
            util,
            self.thermal.temperature_c(),
        );
        let p = if active { p } else { 0.0 };
        self.thermal.step(p, ambient_c, dt);
        if active {
            let settled_down = now.saturating_since(self.last_level_change) >= self.settle_down;
            let settled_up = now.saturating_since(self.last_level_change) >= self.settle_up;
            match self.governor.evaluate(
                self.thermal.temperature_c(),
                self.level,
                self.dvfs.top_level(),
            ) {
                GovernorDecision::StepDown if settled_down => {
                    self.level -= 1;
                    self.throttle_events += 1;
                    self.last_level_change = now;
                }
                GovernorDecision::StepUp if settled_up => {
                    self.level += 1;
                    self.last_level_change = now;
                }
                GovernorDecision::Shutdown => {
                    // Imminent damage overrides settling.
                    self.thermally_shutdown = true;
                    self.throttle_events += 1;
                    self.last_level_change = now;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_for(pe: &mut ProcessingElement, secs: u64, ambient: f64) {
        let dt = Duration::from_millis(100);
        let mut t = Time::ZERO;
        for _ in 0..secs * 10 {
            t += dt;
            pe.step(t, dt, ambient);
        }
    }

    #[test]
    fn cool_ambient_keeps_top_frequency() {
        let mut pe = ProcessingElement::embedded_soc();
        pe.set_utilization(0.6);
        step_for(&mut pe, 300, 25.0);
        assert_eq!(pe.level, 3);
        assert_eq!(pe.speed_factor(), 1.0);
        assert_eq!(pe.throttle_events(), 0);
    }

    #[test]
    fn hot_ambient_causes_throttling_and_slowdown() {
        let mut pe = ProcessingElement::embedded_soc();
        pe.set_utilization(1.0);
        step_for(&mut pe, 600, 75.0);
        assert!(pe.level < 3, "should have throttled, level={}", pe.level);
        assert!(pe.speed_factor() > 1.0);
        assert!(pe.throttle_events() > 0);
        assert!(pe.health().is_operational());
    }

    #[test]
    fn extreme_ambient_forces_shutdown_and_infinite_speed_factor() {
        let mut pe = ProcessingElement::embedded_soc();
        pe.set_utilization(1.0);
        step_for(&mut pe, 600, 108.0);
        assert_eq!(pe.health(), Health::Failed, "temp {}", pe.temperature_c());
        assert_eq!(pe.speed_factor(), f64::INFINITY);
        // A shut-down element stays down, drawing no power, as it cools.
        step_for(&mut pe, 600, 25.0);
        assert_eq!(pe.health(), Health::Failed);
        assert!(pe.temperature_c() < 30.0, "temp {}", pe.temperature_c());
    }

    #[test]
    fn temperature_tracks_utilization() {
        let mut busy = ProcessingElement::embedded_soc();
        let mut idle = ProcessingElement::embedded_soc();
        busy.set_utilization(1.0);
        idle.set_utilization(0.05);
        step_for(&mut busy, 120, 25.0);
        step_for(&mut idle, 120, 25.0);
        assert!(busy.temperature_c() > idle.temperature_c() + 5.0);
    }
}
