//! The hardware platform: a set of processing elements plus environment
//! coupling.

use saav_sim::time::{Duration, Time};

use crate::pe::{Health, PeId, ProcessingElement};

/// The full hardware platform.
#[derive(Debug)]
pub struct Platform {
    pes: Vec<ProcessingElement>,
    ambient_c: f64,
    now: Time,
}

impl Platform {
    /// Creates a platform with `n` identical embedded-SoC PEs at 25 °C
    /// ambient.
    pub fn with_embedded_pes(n: usize) -> Self {
        let pes: Vec<ProcessingElement> = (0..n)
            .map(|i| ProcessingElement::embedded_soc(PeId(i), format!("ecu{i}")))
            .collect();
        Platform {
            pes,
            ambient_c: 25.0,
            now: Time::ZERO,
        }
    }

    /// Number of PEs.
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// Whether the platform has no PEs.
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// Sets the ambient temperature (scenario input).
    pub fn set_ambient_c(&mut self, ambient_c: f64) {
        self.ambient_c = ambient_c;
    }

    /// Current ambient temperature.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Current simulated time as seen by the platform.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Immutable access to a PE.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn pe(&self, id: PeId) -> &ProcessingElement {
        &self.pes[id.0]
    }

    /// Mutable access to a PE.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn pe_mut(&mut self, id: PeId) -> &mut ProcessingElement {
        &mut self.pes[id.0]
    }

    /// Iterates over all PEs.
    pub fn iter(&self) -> impl Iterator<Item = &ProcessingElement> {
        self.pes.iter()
    }

    /// Ids of PEs that are currently operational.
    pub fn operational_pes(&self) -> Vec<PeId> {
        self.pes
            .iter()
            .filter(|pe| pe.health().is_operational())
            .map(|pe| pe.id())
            .collect()
    }

    /// Worst (slowest) speed factor among operational PEs, or `None` when no
    /// PE is operational.
    pub fn worst_speed_factor(&self) -> Option<f64> {
        self.pes
            .iter()
            .filter(|pe| pe.health().is_operational())
            .map(|pe| pe.speed_factor())
            .fold(None, |acc, f| Some(acc.map_or(f, |a: f64| a.max(f))))
    }

    /// Advances all PEs by `dt`.
    pub fn step(&mut self, dt: Duration) {
        self.now += dt;
        let now = self.now;
        let ambient = self.ambient_c;
        for pe in &mut self.pes {
            pe.step(now, dt, ambient);
        }
    }

    /// Overall platform health: `Failed` if all PEs failed, `Degraded` if any
    /// PE is degraded/failed/throttled, else `Ok`.
    pub fn health(&self) -> Health {
        let operational = self
            .pes
            .iter()
            .filter(|p| p.health().is_operational())
            .count();
        if operational == 0 {
            return Health::Failed;
        }
        let any_issue = self.pes.iter().any(|p| {
            !p.health().is_operational() || p.health() == Health::Degraded || p.speed_factor() > 1.0
        });
        if any_issue {
            Health::Degraded
        } else {
            Health::Ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_secs(p: &mut Platform, secs: u64) {
        for _ in 0..secs * 10 {
            p.step(Duration::from_millis(100));
        }
    }

    #[test]
    fn platform_steps_all_pes() {
        let mut p = Platform::with_embedded_pes(3);
        for i in 0..3 {
            p.pe_mut(PeId(i)).set_utilization(0.9);
        }
        step_secs(&mut p, 60);
        assert!(p.pe(PeId(0)).temperature_c() > 30.0);
        assert_eq!(p.health(), Health::Ok);
        assert_eq!(p.now(), Time::from_secs(60));
    }

    /// At 100 °C ambient the busy PE shuts down; the idle one stays below
    /// its critical temperature and keeps running, throttled.
    #[test]
    fn failed_pe_degrades_platform() {
        let mut p = Platform::with_embedded_pes(2);
        p.pe_mut(PeId(0)).set_utilization(1.0);
        p.set_ambient_c(100.0);
        step_secs(&mut p, 600);
        assert_eq!(p.pe(PeId(0)).health(), Health::Failed);
        assert_eq!(p.health(), Health::Degraded);
        assert_eq!(p.operational_pes(), vec![PeId(1)]);
        assert_eq!(p.worst_speed_factor(), Some(p.pe(PeId(1)).speed_factor()));
    }

    #[test]
    fn all_failed_means_platform_failed() {
        let mut p = Platform::with_embedded_pes(1);
        p.pe_mut(PeId(0)).set_utilization(1.0);
        p.set_ambient_c(108.0);
        step_secs(&mut p, 600);
        assert_eq!(p.health(), Health::Failed);
        assert_eq!(p.worst_speed_factor(), None);
    }

    #[test]
    fn hot_ambient_degrades_via_throttling() {
        let mut p = Platform::with_embedded_pes(1);
        p.pe_mut(PeId(0)).set_utilization(1.0);
        p.set_ambient_c(80.0);
        step_secs(&mut p, 600);
        assert_eq!(p.health(), Health::Degraded);
        assert!(p.worst_speed_factor().unwrap() > 1.0);
    }
}
