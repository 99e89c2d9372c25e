//! # saav-monitor — run-time monitoring for self-awareness
//!
//! The monitoring side of the CCC execution domain (Sec. II-B of Schlatow et
//! al., DATE 2017): application and platform monitors that (a) check that
//! implementations adhere to their modeled behaviour and (b) extract metrics
//! fed back to the model domain.
//!
//! * [`anomaly`] — the common deviation type all monitors emit.
//! * [`exec`] — execution-time/deadline supervision and WCET refinement.
//! * [`signal`] — heartbeat (SAFER baseline), boundary checks (RACE
//!   baseline) and signal-quality estimation.
//! * [`access_mon`] — capability-violation and message-rate intrusion
//!   detection over the RTE access log.
//!
//! ```
//! use saav_monitor::signal::BoundaryMonitor;
//! use saav_sim::time::Time;
//!
//! let tire_pressure = BoundaryMonitor::new("tire.fl", 1.8, 3.2);
//! assert!(tire_pressure.observe(Time::ZERO, 2.4).is_none());
//! assert!(tire_pressure.observe(Time::ZERO, 1.2).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access_mon;
pub mod anomaly;
pub mod exec;
pub mod signal;

pub use access_mon::{AccessMonitor, AccessObservation, ChannelSlot};
pub use anomaly::{Anomaly, AnomalyKind};
pub use exec::{ExecProfile, ExecutionMonitor, JobObservation, JobTiming, TaskSlot};
pub use signal::{BoundaryMonitor, HeartbeatMonitor, QualityMonitor};
