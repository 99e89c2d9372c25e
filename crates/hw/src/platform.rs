//! The hardware platform: a set of processing elements plus environment
//! coupling.

use saav_sim::time::{Duration, Time};

use crate::pe::{PeId, ProcessingElement};

/// The full hardware platform.
#[derive(Debug)]
pub struct Platform {
    pes: Vec<ProcessingElement>,
    ambient_c: f64,
    now: Time,
}

impl Platform {
    /// Creates a platform with `n` identical embedded-SoC PEs at 25 °C
    /// ambient, addressed as `PeId(0)` to `PeId(n - 1)`.
    pub fn with_embedded_pes(n: usize) -> Self {
        let pes: Vec<ProcessingElement> =
            (0..n).map(|_| ProcessingElement::embedded_soc()).collect();
        Platform {
            pes,
            ambient_c: 25.0,
            now: Time::ZERO,
        }
    }

    /// Sets the ambient temperature (scenario input).
    pub fn set_ambient_c(&mut self, ambient_c: f64) {
        self.ambient_c = ambient_c;
    }

    /// Current ambient temperature.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
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

    /// Advances all PEs by `dt`.
    pub fn step(&mut self, dt: Duration) {
        self.now += dt;
        let now = self.now;
        let ambient = self.ambient_c;
        for pe in &mut self.pes {
            pe.step(now, dt, ambient);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::Health;

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
        for i in 0..3 {
            assert!(p.pe(PeId(i)).temperature_c() > 30.0);
            assert_eq!(p.pe(PeId(i)).health(), Health::Ok);
            assert_eq!(p.pe(PeId(i)).speed_factor(), 1.0);
        }
        assert_eq!(p.now, Time::from_secs(60));
    }

    /// At 100 °C ambient the busy PE shuts down; the idle ones stay below
    /// their critical temperature and keep running, throttled.
    #[test]
    fn failed_pe_degrades_platform() {
        let mut p = Platform::with_embedded_pes(3);
        p.pe_mut(PeId(0)).set_utilization(1.0);
        p.set_ambient_c(100.0);
        step_secs(&mut p, 600);
        // The shut-down PE has left service; the others still serve,
        // throttled.
        assert_eq!(p.pe(PeId(0)).health(), Health::Failed);
        assert!(!p.pe(PeId(0)).health().is_operational());
        for i in 1..3 {
            assert!(p.pe(PeId(i)).health().is_operational());
            assert!(p.pe(PeId(i)).speed_factor() > 1.0);
        }
    }

    #[test]
    fn all_failed_means_platform_failed() {
        let mut p = Platform::with_embedded_pes(1);
        p.pe_mut(PeId(0)).set_utilization(1.0);
        p.set_ambient_c(108.0);
        step_secs(&mut p, 600);
        assert_eq!(p.pe(PeId(0)).health(), Health::Failed);
        assert_eq!(p.pe(PeId(0)).speed_factor(), f64::INFINITY);
    }

    #[test]
    fn hot_ambient_degrades_via_throttling() {
        let mut p = Platform::with_embedded_pes(1);
        p.pe_mut(PeId(0)).set_utilization(1.0);
        p.set_ambient_c(80.0);
        step_secs(&mut p, 600);
        assert_eq!(p.pe(PeId(0)).health(), Health::Ok);
        assert!(p.pe(PeId(0)).speed_factor() > 1.0);
    }
}
