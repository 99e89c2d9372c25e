//! The closed-loop vehicle world: plant, sensors, actuators, ACC function
//! and lead vehicle, stepped together with safety metrics.

use saav_sim::rng::SimRng;
use saav_sim::time::{Duration, Time};

use crate::acc_fn::{AccController, AccParams, ActuatorCommands, Allocator};
use crate::actuators::{BrakeSystem, Powertrain};
use crate::dynamics::{Longitudinal, VehicleParams};
use crate::sensors::{HmiInput, RadarSensor, Weather, WheelSpeedSensor};
use crate::traffic::LeadVehicle;

/// Safety metrics accumulated over a run.
#[derive(Debug, Clone, Copy)]
pub struct SafetyMetrics {
    /// Minimum gap to the lead vehicle observed (m).
    pub min_gap_m: f64,
    /// Minimum time-to-collision observed (s); `INFINITY` if never closing.
    pub min_ttc_s: f64,
    /// Whether a collision (gap ≤ 0) occurred.
    pub collision: bool,
}

impl Default for SafetyMetrics {
    fn default() -> Self {
        SafetyMetrics {
            min_gap_m: f64::INFINITY,
            min_ttc_s: f64::INFINITY,
            collision: false,
        }
    }
}

/// The composed vehicle world.
#[derive(Debug)]
pub struct VehicleWorld {
    /// Ego longitudinal dynamics.
    pub ego: Longitudinal,
    /// Powertrain actuator.
    pub powertrain: Powertrain,
    /// Split-circuit brake system.
    pub brakes: BrakeSystem,
    /// Forward radar.
    pub radar: RadarSensor,
    /// Wheel-speed sensor.
    pub wheel_speed: WheelSpeedSensor,
    /// The lead vehicle.
    pub lead: LeadVehicle,
    /// The ACC function.
    pub acc: AccController,
    /// The actuator allocator.
    pub allocator: Allocator,
    /// Driver HMI input.
    pub hmi: HmiInput,
    /// Current weather.
    pub weather: Weather,
    metrics: SafetyMetrics,
    now: Time,
    rng: SimRng,
    /// Once set, the ACC is disengaged for good and only brakes act.
    safe_stop: bool,
    last_radar: Option<crate::sensors::RadarReading>,
    /// Offset of this world's frame on the shared road: the ego's absolute
    /// longitudinal start position. Zero for a solo vehicle; a platoon
    /// engine staggers members along the road with it.
    road_offset_m: f64,
}

impl VehicleWorld {
    /// Creates a world: ego at `ego_speed`, lead cruising `gap` ahead.
    pub fn new(seed: u64, ego_speed_mps: f64, lead: LeadVehicle) -> Self {
        let params = VehicleParams::default();
        let mass = params.mass_kg;
        let mut ego = Longitudinal::new(params);
        ego.set_speed_mps(ego_speed_mps);
        VehicleWorld {
            ego,
            powertrain: Powertrain::typical_bev(),
            brakes: BrakeSystem::typical(),
            radar: RadarSensor::long_range(),
            wheel_speed: WheelSpeedSensor::new(0.05),
            lead,
            acc: AccController::new(AccParams::default()),
            allocator: Allocator::new(mass),
            hmi: HmiInput::default(),
            weather: Weather::default(),
            metrics: SafetyMetrics::default(),
            now: Time::ZERO,
            rng: SimRng::seed_from(seed),
            safe_stop: false,
            last_radar: None,
            road_offset_m: 0.0,
        }
    }

    /// Places this world's frame at an absolute longitudinal offset on the
    /// shared road (the ego's start position). The ego dynamics and the
    /// lead keep their own frame; only [`Self::abs_position_m`] and
    /// [`Self::push_lead_state`] translate.
    pub fn set_road_offset_m(&mut self, offset_m: f64) {
        self.road_offset_m = offset_m;
    }

    /// The ego's absolute longitudinal position on the shared road (m).
    pub fn abs_position_m(&self) -> f64 {
        self.road_offset_m + self.ego.position_m()
    }

    /// Pushes the true state of the vehicle ahead (absolute road position,
    /// speed) into this world's externally-driven lead participant — the
    /// co-simulation coupling called once per lockstep tick.
    pub fn push_lead_state(&mut self, abs_position_m: f64, speed_mps: f64) {
        self.lead
            .push_state(abs_position_m - self.road_offset_m, speed_mps);
    }

    /// Current gap to the lead vehicle (m).
    pub fn gap_m(&self) -> f64 {
        self.lead.position_m() - self.ego.position_m()
    }

    /// Accumulated safety metrics.
    pub fn metrics(&self) -> SafetyMetrics {
        self.metrics
    }

    /// Commands a minimal-risk stop: moderate constant braking to
    /// standstill, ACC off.
    pub fn command_safe_stop(&mut self) {
        self.safe_stop = true;
    }

    /// Whether the vehicle has come to a stop.
    pub fn is_stopped(&self) -> bool {
        self.ego.speed_mps() == 0.0
    }

    /// The most recent radar reading produced during [`step`](Self::step),
    /// if any.
    pub fn last_radar(&self) -> Option<crate::sensors::RadarReading> {
        self.last_radar
    }

    /// Advances the whole world by `dt` (plant, sensors, function,
    /// actuators) and updates safety metrics. Returns the actuator commands
    /// applied, for observability.
    pub fn step(&mut self, dt: Duration) -> ActuatorCommands {
        self.now += dt;
        self.lead.step(dt);
        let true_gap = self.gap_m();
        let true_rate = self.lead.speed_mps() - self.ego.speed_mps();
        let radar = self
            .radar
            .measure(self.now, true_gap, true_rate, self.weather, &mut self.rng);
        self.last_radar = radar;
        let measured_speed = self
            .wheel_speed
            .measure(self.ego.speed_mps(), &mut self.rng)
            .unwrap_or(self.ego.speed_mps());

        let commands = if self.safe_stop {
            ActuatorCommands {
                powertrain_n: 0.0,
                brake_n: 4_000.0,
            }
        } else {
            let cmd = self.acc.step(self.now, measured_speed, radar, self.hmi);
            self.allocator
                .allocate(cmd, measured_speed, self.powertrain.max_regen_n())
        };

        let drive = self
            .powertrain
            .step(commands.powertrain_n, self.ego.speed_mps(), dt);
        let friction = self.brakes.step(commands.brake_n, dt);
        let brake_total = friction + (-drive).max(0.0);
        let drive_pos = drive.max(0.0);
        self.ego.step(drive_pos, brake_total, dt);

        // Safety metrics.
        let gap = self.gap_m();
        self.metrics.min_gap_m = self.metrics.min_gap_m.min(gap);
        if gap <= 0.0 {
            self.metrics.collision = true;
        }
        let closing = self.ego.speed_mps() - self.lead.speed_mps();
        if closing > 0.0 && gap > 0.0 {
            self.metrics.min_ttc_s = self.metrics.min_ttc_s.min(gap / closing);
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(world: &mut VehicleWorld, secs: u64) {
        let dt = Duration::from_millis(10);
        for _ in 0..secs * 100 {
            world.step(dt);
        }
    }

    #[test]
    fn acc_converges_to_time_gap() {
        let mut w = VehicleWorld::new(1, 20.0, LeadVehicle::cruising(60.0, 20.0));
        w.hmi.set_speed_mps = 27.0;
        run(&mut w, 120);
        // Desired gap at ~20 m/s: 4 + 36 = 40 m.
        let gap = w.gap_m();
        assert!((gap - 40.0).abs() < 5.0, "gap {gap}");
        assert!((w.ego.speed_mps() - 20.0).abs() < 0.5);
        assert!(!w.metrics().collision);
    }

    #[test]
    fn free_road_reaches_set_speed() {
        let mut w = VehicleWorld::new(2, 10.0, LeadVehicle::cruising(5_000.0, 40.0));
        w.hmi.set_speed_mps = 25.0;
        run(&mut w, 60);
        // Proportional speed control has a small droop against drag
        // (~0.7 m/s at 25 m/s), as in simple production controllers.
        assert!(
            (w.ego.speed_mps() - 25.0).abs() < 1.0,
            "{}",
            w.ego.speed_mps()
        );
    }

    #[test]
    fn hard_lead_braking_is_survived() {
        let mut w = VehicleWorld::new(
            3,
            25.0,
            LeadVehicle::brake_event(55.0, 25.0, Time::from_secs(10), 5.0, Duration::from_secs(4)),
        );
        w.hmi.set_speed_mps = 25.0;
        run(&mut w, 60);
        let m = w.metrics();
        assert!(!m.collision, "min gap {}", m.min_gap_m);
        assert!(m.min_gap_m > 2.0, "min gap {}", m.min_gap_m);
        assert!((w.ego.speed_mps() - 5.0).abs() < 1.0);
    }

    #[test]
    fn safe_stop_brings_vehicle_to_standstill() {
        let mut w = VehicleWorld::new(4, 25.0, LeadVehicle::cruising(500.0, 30.0));
        w.command_safe_stop();
        run(&mut w, 30);
        assert!(w.is_stopped());
    }

    #[test]
    fn rear_brake_loss_with_regen_preference_still_brakes() {
        let mut w = VehicleWorld::new(
            5,
            25.0,
            LeadVehicle::brake_event(60.0, 25.0, Time::from_secs(5), 10.0, Duration::from_secs(4)),
        );
        w.brakes.rear.set_enabled(false);
        w.allocator.prefer_regen = true;
        w.allocator.set_speed_cap(Some(15.0));
        run(&mut w, 60);
        assert!(!w.metrics().collision, "min gap {}", w.metrics().min_gap_m);
        // Speed cap respected at the end.
        assert!(w.ego.speed_mps() <= 15.5);
    }

    #[test]
    fn absolute_positions_translate_the_frame() {
        let mut w = VehicleWorld::new(7, 20.0, LeadVehicle::external(40.0, 20.0));
        w.set_road_offset_m(-120.0);
        assert!((w.abs_position_m() - -120.0).abs() < 1e-12);
        // Pushing the true predecessor state in road coordinates lands the
        // lead 35 m ahead in this world's own frame.
        w.push_lead_state(-85.0, 18.0);
        assert!((w.gap_m() - 35.0).abs() < 1e-12);
        assert_eq!(w.lead.speed_mps(), 18.0);
        w.step(Duration::from_millis(10));
        assert!(w.abs_position_m() > -120.0, "ego advanced on the road");
    }

    #[test]
    fn external_lead_follows_pushed_trajectory() {
        let mut w = VehicleWorld::new(8, 22.0, LeadVehicle::external(60.0, 22.0));
        w.hmi.set_speed_mps = 22.0;
        // Predecessor decelerating 1 m/s² from 22 m/s, pushed every tick.
        let dt = Duration::from_millis(10);
        let mut pos = 60.0f64;
        let mut speed = 22.0f64;
        for _ in 0..2_000 {
            speed = (speed - 0.01).max(0.0);
            pos += speed * dt.as_secs_f64();
            w.push_lead_state(pos, speed);
            w.step(dt);
        }
        // The ACC tracked the externally-driven predecessor without
        // colliding.
        assert!(!w.metrics().collision, "min gap {}", w.metrics().min_gap_m);
        assert!(w.ego.speed_mps() < 10.0, "{}", w.ego.speed_mps());
    }
}
