//! # saav-vehicle — vehicle substrate with degradable sensors and actuators
//!
//! The functional-level plant for the SAAV reproduction (Sec. IV of
//! Schlatow et al., DATE 2017): a longitudinal vehicle model with the
//! specific degradation affordances the paper's scenarios need —
//! fog-sensitive radar, injectable sensor faults, a split-circuit brake
//! system whose rear circuit can be compromised, and a powertrain whose
//! regenerative braking can substitute for lost friction brakes.
//!
//! * [`dynamics`] — point-mass longitudinal model on level road (drag,
//!   rolling resistance).
//! * [`actuators`] — powertrain with regen, split front/rear brakes.
//! * [`sensors`] — radar/wheel-speed with weather coupling and fault modes,
//!   the driver HMI.
//! * [`traffic`] — road participants: scripted lead-vehicle profiles and
//!   externally-driven co-simulation peers.
//! * [`surrogate`] — struct-of-arrays background traffic for city-scale
//!   co-simulation: batched IDM car-following over contiguous lanes.
//! * [`acc_fn`] — the ACC function: target handling, constant-time-gap
//!   control, actuator allocation with speed caps and regen preference.
//! * [`world`] — the closed loop with safety metrics (min gap, TTC,
//!   collision).
//!
//! ```
//! use saav_sim::time::Duration;
//! use saav_vehicle::traffic::LeadVehicle;
//! use saav_vehicle::world::VehicleWorld;
//!
//! let mut world = VehicleWorld::new(42, 20.0, LeadVehicle::cruising(60.0, 20.0));
//! for _ in 0..100 {
//!     world.step(Duration::from_millis(10));
//! }
//! assert!(world.gap_m() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acc_fn;
pub mod actuators;
pub mod dynamics;
pub mod sensors;
pub mod surrogate;
pub mod traffic;
pub mod world;

pub use acc_fn::{
    AccController, AccParams, AccelCommand, ActuatorCommands, Allocator, ControlBranch,
};
pub use actuators::{BrakeCircuit, BrakeSystem, Powertrain};
pub use dynamics::{Longitudinal, VehicleParams};
pub use sensors::{HmiInput, RadarReading, RadarSensor, SensorFault, Weather, WheelSpeedSensor};
pub use surrogate::{IdmParams, SurrogateTraffic};
pub use traffic::{LeadVehicle, Participant, ProfileSegment};
pub use world::{SafetyMetrics, VehicleWorld};
