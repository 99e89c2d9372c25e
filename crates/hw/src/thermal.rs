//! First-order RC thermal model.
//!
//! Die temperature follows the lumped-parameter model
//!
//! ```text
//! C_th · dT/dt = P − (T − T_amb) / R_th
//! ```
//!
//! where `P` is dissipated power, `R_th` the junction-to-ambient thermal
//! resistance and `C_th` the thermal capacitance. The steady-state
//! temperature for constant power is `T_amb + P·R_th`; the time constant is
//! `τ = R_th·C_th`. Integration uses the exact exponential solution per step,
//! so the model is unconditionally stable for any step size. `τ` is fixed
//! at construction and the platform steps at one period, so the model keeps
//! the decay factor of the last step size and recomputes it only when the
//! size changes.

use saav_sim::time::Duration;

/// Parameters and state of a first-order thermal node.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    /// Junction-to-ambient thermal resistance in K/W.
    r_th_k_per_w: f64,
    /// Thermal capacitance in J/K.
    c_th_j_per_k: f64,
    /// Current die temperature in °C.
    temp_c: f64,
    /// The step size `decay` belongs to.
    decay_dt: Duration,
    /// `exp(−decay_dt/τ)`.
    decay: f64,
}

impl ThermalModel {
    /// Creates a thermal node at the given initial temperature.
    ///
    /// # Panics
    /// Panics unless resistance and capacitance are strictly positive.
    pub fn new(r_th_k_per_w: f64, c_th_j_per_k: f64, initial_temp_c: f64) -> Self {
        assert!(r_th_k_per_w > 0.0, "thermal resistance must be positive");
        assert!(c_th_j_per_k > 0.0, "thermal capacitance must be positive");
        ThermalModel {
            r_th_k_per_w,
            c_th_j_per_k,
            temp_c: initial_temp_c,
            decay_dt: Duration::ZERO,
            decay: decay_factor(r_th_k_per_w * c_th_j_per_k, Duration::ZERO),
        }
    }

    /// Parameters representative of an embedded SoC with a small heat
    /// spreader: R=8 K/W, C=2.5 J/K (τ = 20 s), starting at 25 °C.
    pub fn embedded_soc() -> Self {
        ThermalModel::new(8.0, 2.5, 25.0)
    }

    /// Current die temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Thermal time constant τ = R·C.
    pub fn time_constant(&self) -> Duration {
        Duration::from_secs_f64(self.r_th_k_per_w * self.c_th_j_per_k)
    }

    /// Steady-state temperature for constant `power_w` at `ambient_c`.
    pub fn steady_state_c(&self, power_w: f64, ambient_c: f64) -> f64 {
        ambient_c + power_w * self.r_th_k_per_w
    }

    /// Advances the model by `dt` under constant `power_w` and `ambient_c`,
    /// using the exact solution of the linear ODE:
    /// `T(t+dt) = T_ss + (T(t) − T_ss)·exp(−dt/τ)`.
    pub fn step(&mut self, power_w: f64, ambient_c: f64, dt: Duration) -> f64 {
        let t_ss = self.steady_state_c(power_w, ambient_c);
        if dt != self.decay_dt {
            self.decay_dt = dt;
            self.decay = decay_factor(self.r_th_k_per_w * self.c_th_j_per_k, dt);
        }
        self.temp_c = t_ss + (self.temp_c - t_ss) * self.decay;
        self.temp_c
    }
}

/// The exact solution's decay factor over `dt`: `exp(−dt/τ)`.
fn decay_factor(tau_s: f64, dt: Duration) -> f64 {
    (-dt.as_secs_f64() / tau_s).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_steady_state() {
        let mut m = ThermalModel::new(8.0, 2.5, 25.0);
        let expected = m.steady_state_c(5.0, 25.0);
        assert_eq!(expected, 65.0);
        for _ in 0..1_000 {
            m.step(5.0, 25.0, Duration::from_millis(500));
        }
        assert!((m.temperature_c() - 65.0).abs() < 1e-6);
    }

    #[test]
    fn exact_solution_step_size_invariant() {
        // One big step equals many small steps (exact exponential update).
        let mut coarse = ThermalModel::new(8.0, 2.5, 25.0);
        let mut fine = ThermalModel::new(8.0, 2.5, 25.0);
        coarse.step(5.0, 25.0, Duration::from_secs(10));
        for _ in 0..10_000 {
            fine.step(5.0, 25.0, Duration::from_millis(1));
        }
        assert!((coarse.temperature_c() - fine.temperature_c()).abs() < 1e-6);
    }

    #[test]
    fn cools_toward_ambient_without_power() {
        let mut m = ThermalModel::new(8.0, 2.5, 90.0);
        m.step(0.0, 25.0, Duration::from_secs(200));
        assert!(m.temperature_c() < 26.0);
        assert!(m.temperature_c() >= 25.0);
    }

    #[test]
    fn one_time_constant_covers_63_percent() {
        let mut m = ThermalModel::new(8.0, 2.5, 25.0);
        let tau = m.time_constant();
        assert_eq!(tau, Duration::from_secs(20));
        m.step(5.0, 25.0, tau);
        let progress = (m.temperature_c() - 25.0) / 40.0;
        assert!((progress - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
    }

    /// The stored decay factor gives the temperature a fresh
    /// `exp(−dt/τ)` gives, bit for bit, at every step — including after
    /// the step size changes mid-run and changes back.
    #[test]
    fn stored_decay_matches_a_fresh_exponential() {
        let mut m = ThermalModel::new(8.0, 2.5, 25.0);
        let mut temp = 25.0f64;
        let dts = [10, 10, 10, 7, 7, 10, 250, 10, 10, 0, 10].map(Duration::from_millis);
        for (i, &dt) in dts.iter().cycle().take(200).enumerate() {
            let (power, ambient) = (1.0 + (i % 5) as f64, 25.0 + (i % 3) as f64);
            let t_ss = ambient + power * 8.0;
            temp = t_ss + (temp - t_ss) * (-dt.as_secs_f64() / (8.0 * 2.5)).exp();
            let got = m.step(power, ambient, dt);
            assert_eq!(got.to_bits(), temp.to_bits(), "step {i} ({dt:?})");
        }
    }

    #[test]
    fn hotter_ambient_shifts_equilibrium() {
        let m = ThermalModel::embedded_soc();
        assert_eq!(
            m.steady_state_c(3.0, 45.0) - m.steady_state_c(3.0, 25.0),
            20.0
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_parameters() {
        let _ = ThermalModel::new(0.0, 1.0, 25.0);
    }
}
