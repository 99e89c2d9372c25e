//! Environment sensors with weather- and fault-dependent degradation.
//!
//! Sec. IV of the paper demands *"data quality assessment for environmental
//! sensors (e.g. cameras, LiDAR-, RADAR-sensors)"*; these models produce
//! exactly the degradation phenomenology the monitors must detect: fog
//! shrinks effective range and raises noise and dropout rates, faults freeze
//! or kill the signal.

use saav_sim::rng::SimRng;
use saav_sim::time::Time;

/// Environmental conditions affecting sensors and the plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weather {
    /// Fog density in `[0, 1]` (0 = clear, 1 = dense fog).
    pub fog: f64,
    /// Ambient temperature in °C.
    pub temperature_c: f64,
}

impl Default for Weather {
    fn default() -> Self {
        Weather {
            fog: 0.0,
            temperature_c: 25.0,
        }
    }
}

impl Weather {
    /// Foggy conditions (fog clamped to `[0, 1]`).
    pub fn foggy(fog: f64) -> Self {
        Weather {
            fog: fog.clamp(0.0, 1.0),
            temperature_c: 10.0,
        }
    }
}

/// A radar measurement of the lead vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadarReading {
    /// Measurement time.
    pub at: Time,
    /// Measured gap to the lead vehicle in m.
    pub range_m: f64,
    /// Range rate in m/s (negative = closing).
    pub range_rate_mps: f64,
}

/// Fault modes a sensor can be put into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensorFault {
    /// Nominal operation.
    #[default]
    None,
    /// Output frozen at the last value (plausible but wrong — invisible to
    /// boundary checks).
    StuckAt,
    /// No output at all (heartbeat loss).
    Dead,
    /// Heavily elevated noise.
    Noisy,
}

/// A forward radar model.
#[derive(Debug, Clone)]
pub struct RadarSensor {
    max_range_m: f64,
    base_noise_m: f64,
    base_dropout: f64,
    fault: SensorFault,
    last: Option<RadarReading>,
}

impl RadarSensor {
    /// Creates a radar with the given clear-weather maximum range.
    ///
    /// # Panics
    /// Panics unless `max_range_m > 0`.
    pub fn new(max_range_m: f64) -> Self {
        assert!(max_range_m > 0.0);
        RadarSensor {
            max_range_m,
            base_noise_m: 0.3,
            base_dropout: 0.002,
            fault: SensorFault::None,
            last: None,
        }
    }

    /// A typical 77 GHz long-range radar (180 m).
    pub fn long_range() -> Self {
        RadarSensor::new(180.0)
    }

    /// Injects (or clears) a fault mode.
    pub fn set_fault(&mut self, fault: SensorFault) {
        self.fault = fault;
    }

    /// Current fault mode.
    pub fn fault(&self) -> SensorFault {
        self.fault
    }

    /// The clear-weather maximum range.
    pub fn max_range_m(&self) -> f64 {
        self.max_range_m
    }

    /// Effective maximum range under the given weather: dense fog cuts the
    /// detection range to 30%.
    pub fn effective_range_m(&self, weather: Weather) -> f64 {
        self.max_range_m * (1.0 - 0.7 * weather.fog)
    }

    /// Measurement noise standard deviation under the given weather.
    pub fn noise_std_m(&self, weather: Weather) -> f64 {
        let fault_factor = if self.fault == SensorFault::Noisy {
            8.0
        } else {
            1.0
        };
        self.base_noise_m * (1.0 + 4.0 * weather.fog) * fault_factor
    }

    /// Per-sample dropout probability under the given weather.
    pub fn dropout_probability(&self, weather: Weather) -> f64 {
        (self.base_dropout + 0.4 * weather.fog * weather.fog).clamp(0.0, 1.0)
    }

    /// Produces a measurement of the true gap/closing speed, or `None` on a
    /// dropout (or when the target is beyond the effective range).
    pub fn measure(
        &mut self,
        at: Time,
        true_range_m: f64,
        true_range_rate_mps: f64,
        weather: Weather,
        rng: &mut SimRng,
    ) -> Option<RadarReading> {
        match self.fault {
            SensorFault::Dead => return None,
            SensorFault::StuckAt => {
                return self.last.map(|mut r| {
                    r.at = at;
                    r
                })
            }
            SensorFault::None | SensorFault::Noisy => {}
        }
        if true_range_m > self.effective_range_m(weather) {
            return None;
        }
        if rng.chance(self.dropout_probability(weather)) {
            return None;
        }
        let noise = self.noise_std_m(weather);
        let reading = RadarReading {
            at,
            range_m: (true_range_m + rng.normal(0.0, noise)).max(0.0),
            range_rate_mps: true_range_rate_mps + rng.normal(0.0, noise * 0.5),
        };
        self.last = Some(reading);
        Some(reading)
    }
}

/// Driver inputs from the HMI: the ACC set point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmiInput {
    /// Desired cruise speed in m/s.
    pub set_speed_mps: f64,
    /// Desired time gap to the lead vehicle in seconds.
    pub time_gap_s: f64,
}

impl Default for HmiInput {
    fn default() -> Self {
        HmiInput {
            set_speed_mps: 27.8, // 100 km/h
            time_gap_s: 1.8,
        }
    }
}

/// A wheel-speed sensor.
#[derive(Debug, Clone)]
pub struct WheelSpeedSensor {
    noise_std_mps: f64,
    fault: SensorFault,
    last: f64,
}

impl WheelSpeedSensor {
    /// Creates a sensor with the given noise level.
    pub fn new(noise_std_mps: f64) -> Self {
        WheelSpeedSensor {
            noise_std_mps: noise_std_mps.abs(),
            fault: SensorFault::None,
            last: 0.0,
        }
    }

    /// Injects (or clears) a fault mode.
    pub fn set_fault(&mut self, fault: SensorFault) {
        self.fault = fault;
    }

    /// Measures the ego speed.
    pub fn measure(&mut self, true_speed_mps: f64, rng: &mut SimRng) -> Option<f64> {
        match self.fault {
            SensorFault::Dead => None,
            SensorFault::StuckAt => Some(self.last),
            SensorFault::Noisy => {
                let v = (true_speed_mps + rng.normal(0.0, self.noise_std_mps * 10.0)).max(0.0);
                self.last = v;
                Some(v)
            }
            SensorFault::None => {
                let v = (true_speed_mps + rng.normal(0.0, self.noise_std_mps)).max(0.0);
                self.last = v;
                Some(v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(9)
    }

    #[test]
    fn clear_weather_measures_reliably() {
        let mut r = RadarSensor::long_range();
        let mut rng = rng();
        let w = Weather::default();
        let ok = (0..1000)
            .filter(|_| r.measure(Time::ZERO, 50.0, -2.0, w, &mut rng).is_some())
            .count();
        assert!(ok > 980, "ok {ok}");
    }

    #[test]
    fn fog_shrinks_range_and_raises_dropouts() {
        let mut r = RadarSensor::long_range();
        let mut rng = rng();
        let fog = Weather::foggy(0.8);
        assert!(r.effective_range_m(fog) < 80.0);
        // Target at 100 m is invisible in dense fog.
        assert!(r.measure(Time::ZERO, 100.0, 0.0, fog, &mut rng).is_none());
        // Close target: dropouts are frequent.
        let ok = (0..1000)
            .filter(|_| r.measure(Time::ZERO, 30.0, 0.0, fog, &mut rng).is_some())
            .count();
        assert!(ok < 900, "ok {ok}");
        assert!(ok > 500, "ok {ok}");
        // Noise grows with fog.
        assert!(r.noise_std_m(fog) > r.noise_std_m(Weather::default()) * 3.0);
    }

    #[test]
    fn dead_sensor_yields_nothing() {
        let mut r = RadarSensor::long_range();
        let mut rng = rng();
        r.set_fault(SensorFault::Dead);
        for _ in 0..100 {
            assert!(r
                .measure(Time::ZERO, 20.0, 0.0, Weather::default(), &mut rng)
                .is_none());
        }
    }

    #[test]
    fn stuck_sensor_repeats_last_reading() {
        let mut r = RadarSensor::long_range();
        let mut rng = rng();
        let w = Weather::default();
        let first = r.measure(Time::ZERO, 50.0, -1.0, w, &mut rng).unwrap();
        r.set_fault(SensorFault::StuckAt);
        // True range changes drastically; reading stays frozen.
        let stuck = r
            .measure(Time::from_secs(5), 10.0, -9.0, w, &mut rng)
            .unwrap();
        assert_eq!(stuck.range_m, first.range_m);
        assert_eq!(stuck.at, Time::from_secs(5));
    }

    #[test]
    fn noisy_fault_amplifies_noise() {
        let mut r = RadarSensor::long_range();
        r.set_fault(SensorFault::Noisy);
        assert!(r.noise_std_m(Weather::default()) > 2.0);
    }

    #[test]
    fn wheel_speed_faults() {
        let mut s = WheelSpeedSensor::new(0.05);
        let mut rng = rng();
        assert!(s.measure(10.0, &mut rng).is_some());
        s.set_fault(SensorFault::StuckAt);
        let v1 = s.measure(20.0, &mut rng).unwrap();
        let v2 = s.measure(30.0, &mut rng).unwrap();
        assert_eq!(v1, v2);
        s.set_fault(SensorFault::Dead);
        assert!(s.measure(10.0, &mut rng).is_none());
    }
}
