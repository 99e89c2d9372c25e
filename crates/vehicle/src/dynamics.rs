//! Longitudinal vehicle dynamics.
//!
//! Point-mass model on level road with aerodynamic drag and rolling
//! resistance, integrated with semi-implicit Euler:
//!
//! ```text
//! m·dv/dt = F_drive − F_brake − ½·ρ·c_d·A·v² − c_rr·m·g
//! ```
//!
//! Parameters default to a mid-size battery-electric research vehicle
//! (the MOBILE x-by-wire vehicle the paper's use cases run on is of this
//! class).

use saav_sim::time::Duration;

/// Standard gravity in m/s².
pub const G: f64 = 9.81;

/// Vehicle parameters.
#[derive(Debug, Clone)]
pub struct VehicleParams {
    /// Vehicle mass in kg.
    pub mass_kg: f64,
    /// Drag coefficient × frontal area in m².
    pub cd_a: f64,
    /// Air density in kg/m³.
    pub air_density: f64,
    /// Rolling resistance coefficient.
    pub c_rr: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams {
            mass_kg: 1_600.0,
            cd_a: 0.65,
            air_density: 1.2,
            c_rr: 0.012,
        }
    }
}

/// Longitudinal state integrator.
#[derive(Debug, Clone)]
pub struct Longitudinal {
    params: VehicleParams,
    position_m: f64,
    speed_mps: f64,
}

impl Longitudinal {
    /// Creates a vehicle at rest at position 0 on level road.
    pub fn new(params: VehicleParams) -> Self {
        Longitudinal {
            params,
            position_m: 0.0,
            speed_mps: 0.0,
        }
    }

    /// Position along the road in meters.
    pub fn position_m(&self) -> f64 {
        self.position_m
    }

    /// Current speed in m/s (never negative; the model does not reverse).
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// Sets the current speed (scenario setup).
    ///
    /// # Panics
    /// Panics on negative speed.
    pub fn set_speed_mps(&mut self, v: f64) {
        assert!(v >= 0.0, "speed must be non-negative");
        self.speed_mps = v;
    }

    /// Resistive force at the current speed (drag + rolling), N.
    pub fn resistance_n(&self) -> f64 {
        let p = &self.params;
        let drag = 0.5 * p.air_density * p.cd_a * self.speed_mps * self.speed_mps;
        let rolling = if self.speed_mps > 0.0 {
            p.c_rr * p.mass_kg * G
        } else {
            0.0
        };
        drag + rolling
    }

    /// Advances the model by `dt` under the given drive and brake forces
    /// (both in newtons; brake force is applied opposing motion only).
    ///
    /// # Panics
    /// Panics on negative brake force.
    pub fn step(&mut self, drive_force_n: f64, brake_force_n: f64, dt: Duration) {
        assert!(brake_force_n >= 0.0, "brake force must be non-negative");
        let dt_s = dt.as_secs_f64();
        let net = drive_force_n - self.resistance_n() - brake_force_n;
        let accel_mps2 = net / self.params.mass_kg;
        let new_speed = self.speed_mps + accel_mps2 * dt_s;
        // Braking and resistance cannot push the vehicle backwards.
        let new_speed = if new_speed < 0.0 && drive_force_n <= 0.0 {
            0.0
        } else {
            new_speed.max(0.0)
        };
        // Semi-implicit: integrate position with the updated speed.
        self.position_m += new_speed * dt_s;
        self.speed_mps = new_speed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt() -> Duration {
        Duration::from_millis(10)
    }

    #[test]
    fn accelerates_under_drive_force() {
        let mut v = Longitudinal::new(VehicleParams::default());
        for _ in 0..500 {
            v.step(3_000.0, 0.0, dt());
        }
        assert!(v.speed_mps() > 5.0);
        assert!(v.position_m() > 0.0);
    }

    #[test]
    fn reaches_terminal_velocity() {
        let mut v = Longitudinal::new(VehicleParams::default());
        // 3kN constant: terminal speed where 3000 = drag + rolling.
        for _ in 0..120_000 {
            v.step(3_000.0, 0.0, dt());
        }
        let v_t = v.speed_mps();
        // residual = 3000 - resistance ≈ 0.
        let residual = 3_000.0 - v.resistance_n();
        assert!(residual.abs() < 10.0, "residual {residual}");
        assert!(v_t > 20.0 && v_t < 100.0, "terminal {v_t}");
    }

    #[test]
    fn braking_stops_without_reversing() {
        let mut v = Longitudinal::new(VehicleParams::default());
        v.set_speed_mps(20.0);
        for _ in 0..3_000 {
            v.step(0.0, 8_000.0, dt());
        }
        assert_eq!(v.speed_mps(), 0.0);
    }

    #[test]
    fn braking_distance_close_to_ideal() {
        let mut v = Longitudinal::new(VehicleParams::default());
        v.set_speed_mps(20.0);
        // Ideal stopping distance under a constant 5 m/s²: v²/2a = 40 m.
        let ideal = 40.0;
        let start = v.position_m();
        // 5 m/s² ≈ 8kN on 1600 kg; drag helps, so actual ≤ ideal.
        while v.speed_mps() > 0.0 {
            v.step(0.0, 1_600.0 * 5.0, dt());
        }
        let dist = v.position_m() - start;
        assert!(dist <= ideal * 1.01, "dist {dist} vs ideal {ideal}");
        assert!(dist > ideal * 0.8, "dist {dist} vs ideal {ideal}");
    }

    #[test]
    fn no_rolling_resistance_at_standstill() {
        let v = Longitudinal::new(VehicleParams::default());
        assert_eq!(v.resistance_n(), 0.0);
    }
}
