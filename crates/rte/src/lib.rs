//! # saav-rte — microkernel-style run-time environment
//!
//! The execution domain of the CCC architecture (Sec. II-B of Schlatow et
//! al., DATE 2017): application components hosted in isolated execution
//! domains (VMs) on a component RTE with strong isolation, fine-grained
//! capability-based access control, fixed-priority preemptive scheduling and
//! run-time budget enforcement.
//!
//! * [`component`] — components, micro-server services, VMs.
//! * [`access`] — capability grant table plus the audited access log the
//!   intrusion-detection monitor consumes.
//! * [`sched`] — preemptive fixed-priority scheduler with per-job budgets,
//!   speed-factor coupling to the hardware layer and overrun injection.
//! * [`rte`] — the facade: installation, capability-checked service
//!   access, quarantine, atomic reconfiguration with
//!   validation-before-mutation semantics.
//!
//! ```
//! use saav_rte::component::{ComponentSpec, VmId};
//! use saav_rte::rte::Rte;
//! use saav_sim::time::Time;
//!
//! # fn main() -> Result<(), saav_rte::rte::RteError> {
//! let mut rte = Rte::new(42, 1024);
//! let radar = rte.install(ComponentSpec::new("radar", VmId(0)).provides("sensor.radar"))?;
//! let acc = rte.install(ComponentSpec::new("acc", VmId(0)).requires("sensor.radar"))?;
//! rte.grant(acc, "sensor.radar");
//! rte.open_session(acc, "sensor.radar", Time::ZERO)?;
//! # let _ = radar;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod component;
pub mod rte;
pub mod sched;

pub use access::{AccessControl, AccessEvent};
pub use component::{ComponentId, ComponentSpec, ComponentState, ServiceName, VmId};
pub use rte::{Configuration, Rte, RteError};
pub use sched::{JobRecord, Priority, Scheduler, TaskRef, TaskSpec};
