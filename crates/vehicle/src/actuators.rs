//! Actuators: powertrain (with regenerative braking) and the split-circuit
//! friction brake system.
//!
//! The brake system has independent front and rear circuits. The rear
//! circuit can be disabled at run time — this is the hook for the paper's
//! security scenario, where the component governing rear braking is
//! compromised and must be shut off, after which *"generating additional
//! brake torque from the drive train"* (regen) compensates within limits.

use saav_sim::time::Duration;

/// First-order lag applied to actuator commands.
///
/// `τ` is fixed at construction and the plant steps at one period, so the
/// lag keeps the blend factor of the last step size and recomputes it only
/// when the size changes.
#[derive(Debug, Clone)]
struct Lag {
    tau_s: f64,
    current: f64,
    /// The step size `alpha` belongs to.
    alpha_dt: Duration,
    /// `1 − exp(−alpha_dt/τ)`.
    alpha: f64,
}

impl Lag {
    fn new(tau_s: f64) -> Self {
        Lag {
            tau_s,
            current: 0.0,
            alpha_dt: Duration::ZERO,
            alpha: Self::blend(tau_s, Duration::ZERO),
        }
    }

    fn blend(tau_s: f64, dt: Duration) -> f64 {
        1.0 - (-dt.as_secs_f64() / tau_s).exp()
    }

    fn step(&mut self, target: f64, dt: Duration) -> f64 {
        if dt != self.alpha_dt {
            self.alpha_dt = dt;
            self.alpha = Self::blend(self.tau_s, dt);
        }
        self.current += (target - self.current) * self.alpha;
        self.current
    }
}

/// The powertrain: positive drive force plus bounded regenerative braking.
#[derive(Debug, Clone)]
pub struct Powertrain {
    max_drive_n: f64,
    max_regen_n: f64,
    lag: Lag,
    enabled: bool,
}

impl Powertrain {
    /// Creates a powertrain.
    ///
    /// # Panics
    /// Panics unless both force limits are positive.
    pub fn new(max_drive_n: f64, max_regen_n: f64) -> Self {
        assert!(max_drive_n > 0.0 && max_regen_n > 0.0);
        Powertrain {
            max_drive_n,
            max_regen_n,
            lag: Lag::new(0.15),
            enabled: true,
        }
    }

    /// A typical mid-size BEV: 6 kN drive, 3 kN regen.
    pub fn typical_bev() -> Self {
        Powertrain::new(6_000.0, 3_000.0)
    }

    /// Maximum regenerative braking force.
    pub fn max_regen_n(&self) -> f64 {
        self.max_regen_n
    }

    /// Maximum drive force.
    pub fn max_drive_n(&self) -> f64 {
        self.max_drive_n
    }

    /// Enables/disables the powertrain.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the powertrain responds to commands.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Applies a force command (positive = drive, negative = regen brake)
    /// for one step; returns the realized force after saturation and lag.
    /// Regen produces no force at standstill.
    pub fn step(&mut self, command_n: f64, speed_mps: f64, dt: Duration) -> f64 {
        if !self.enabled {
            return self.lag.step(0.0, dt);
        }
        let mut target = command_n.clamp(-self.max_regen_n, self.max_drive_n);
        if speed_mps <= 0.01 && target < 0.0 {
            target = 0.0;
        }
        self.lag.step(target, dt)
    }
}

/// One friction brake circuit.
#[derive(Debug, Clone)]
pub struct BrakeCircuit {
    max_force_n: f64,
    lag: Lag,
    enabled: bool,
}

impl BrakeCircuit {
    /// Creates a circuit with the given maximum force.
    ///
    /// # Panics
    /// Panics unless `max_force_n > 0`.
    pub fn new(max_force_n: f64) -> Self {
        assert!(max_force_n > 0.0);
        BrakeCircuit {
            max_force_n,
            lag: Lag::new(0.08),
            enabled: true,
        }
    }

    /// Maximum force of this circuit.
    pub fn max_force_n(&self) -> f64 {
        self.max_force_n
    }

    /// Enables/disables the circuit (the compromised-component shutdown).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the circuit responds.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Applies a brake force command; returns the realized force.
    ///
    /// # Panics
    /// Panics on negative commands.
    pub fn step(&mut self, command_n: f64, dt: Duration) -> f64 {
        assert!(command_n >= 0.0, "brake command must be non-negative");
        let target = if self.enabled {
            command_n.min(self.max_force_n)
        } else {
            0.0
        };
        self.lag.step(target, dt)
    }
}

/// The complete split-circuit brake system (60/40 front/rear bias).
#[derive(Debug, Clone)]
pub struct BrakeSystem {
    /// Front circuit.
    pub front: BrakeCircuit,
    /// Rear circuit.
    pub rear: BrakeCircuit,
}

impl BrakeSystem {
    /// A typical system: 7 kN front, 5 kN rear.
    pub fn typical() -> Self {
        BrakeSystem {
            front: BrakeCircuit::new(7_000.0),
            rear: BrakeCircuit::new(5_000.0),
        }
    }

    /// Total achievable friction brake force given circuit availability.
    pub fn available_force_n(&self) -> f64 {
        let f = if self.front.is_enabled() {
            self.front.max_force_n()
        } else {
            0.0
        };
        let r = if self.rear.is_enabled() {
            self.rear.max_force_n()
        } else {
            0.0
        };
        f + r
    }

    /// Distributes a total brake demand across the circuits (front-biased
    /// 60/40, spilling over to whichever circuit has headroom) and steps
    /// both; returns the realized total force.
    ///
    /// # Panics
    /// Panics on negative demand.
    pub fn step(&mut self, demand_n: f64, dt: Duration) -> f64 {
        assert!(demand_n >= 0.0, "brake demand must be non-negative");
        let front_share = demand_n * 0.6;
        let rear_share = demand_n * 0.4;
        // Spill-over: a disabled or saturated circuit pushes demand to the
        // other one.
        let front_cap = if self.front.is_enabled() {
            self.front.max_force_n()
        } else {
            0.0
        };
        let rear_cap = if self.rear.is_enabled() {
            self.rear.max_force_n()
        } else {
            0.0
        };
        let front_cmd = front_share + (rear_share - rear_cap).max(0.0);
        let rear_cmd = rear_share + (front_share - front_cap).max(0.0);
        let f = self.front.step(front_cmd.min(front_cap), dt);
        let r = self.rear.step(rear_cmd.min(rear_cap), dt);
        f + r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt() -> Duration {
        Duration::from_millis(10)
    }

    fn settle<F: FnMut() -> f64>(mut f: F) -> f64 {
        let mut last = 0.0;
        for _ in 0..500 {
            last = f();
        }
        last
    }

    /// The stored blend factor gives the output a fresh
    /// `1 − exp(−dt/τ)` gives, bit for bit, at every step — including
    /// after the step size changes mid-run and changes back.
    #[test]
    fn stored_lag_factor_matches_a_fresh_exponential() {
        let mut lag = Lag::new(0.08);
        let mut current = 0.0f64;
        let dts = [10, 10, 10, 4, 4, 10, 100, 10, 0, 10].map(Duration::from_millis);
        for (i, &dt) in dts.iter().cycle().take(200).enumerate() {
            let target = [0.0, 2_500.0, 7_000.0, 1_000.0][i % 4];
            current += (target - current) * (1.0 - (-dt.as_secs_f64() / 0.08).exp());
            let got = lag.step(target, dt);
            assert_eq!(got.to_bits(), current.to_bits(), "step {i} ({dt:?})");
        }
    }

    #[test]
    fn powertrain_saturates_and_lags() {
        let mut p = Powertrain::typical_bev();
        let first = p.step(10_000.0, 10.0, dt());
        assert!(first < 6_000.0, "lag limits the first step");
        let final_force = settle(|| p.step(10_000.0, 10.0, dt()));
        assert!((final_force - 6_000.0).abs() < 1.0);
    }

    #[test]
    fn regen_limited_and_zero_at_standstill() {
        let mut p = Powertrain::typical_bev();
        let f = settle(|| p.step(-10_000.0, 10.0, dt()));
        assert!((f + 3_000.0).abs() < 1.0, "regen saturates at -3kN: {f}");
        let mut p2 = Powertrain::typical_bev();
        let f0 = settle(|| p2.step(-10_000.0, 0.0, dt()));
        assert!(f0.abs() < 1.0, "no regen at standstill: {f0}");
    }

    #[test]
    fn disabled_powertrain_produces_nothing() {
        let mut p = Powertrain::typical_bev();
        p.set_enabled(false);
        let f = settle(|| p.step(5_000.0, 10.0, dt()));
        assert!(f.abs() < 1.0);
    }

    #[test]
    fn brake_split_nominal() {
        let mut b = BrakeSystem::typical();
        let total = settle(|| b.step(5_000.0, dt()));
        assert!((total - 5_000.0).abs() < 5.0, "total {total}");
    }

    #[test]
    fn rear_circuit_loss_spills_to_front() {
        let mut b = BrakeSystem::typical();
        b.rear.set_enabled(false);
        assert_eq!(b.available_force_n(), 7_000.0);
        // Demand 5 kN: front takes everything (0.6*5k + spill 0.4*5k = 5k).
        let total = settle(|| b.step(5_000.0, dt()));
        assert!((total - 5_000.0).abs() < 5.0, "total {total}");
        // Demand 10 kN: limited by the front circuit alone.
        let total = settle(|| b.step(10_000.0, dt()));
        assert!((total - 7_000.0).abs() < 5.0, "total {total}");
    }

    #[test]
    fn both_circuits_lost_no_friction_braking() {
        let mut b = BrakeSystem::typical();
        b.front.set_enabled(false);
        b.rear.set_enabled(false);
        assert_eq!(b.available_force_n(), 0.0);
        let total = settle(|| b.step(8_000.0, dt()));
        assert!(total.abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_brake_demand_rejected() {
        let mut b = BrakeSystem::typical();
        b.step(-1.0, dt());
    }
}
