//! # saav-timing — compositional performance analysis
//!
//! The formal timing methods of the CCC model domain (Sec. II-A of Schlatow
//! et al., DATE 2017): the Multi-Change Controller uses worst-case response
//! time (WCRT) analysis as an *acceptance test* — an update is only applied
//! if the new configuration provably meets all real-time constraints.
//!
//! * [`event_model`] — (P, J, d_min) event models with `η⁺`/`δ⁻`.
//! * [`task`] — tasks/frame streams, priorities, analysis results.
//! * [`cpu`] — busy-window WCRT for static-priority preemptive CPUs.
//! * [`can_rt`] — non-preemptive CAN WCRT with blocking (Davis et al. 2007).
//! * [`system`] — multi-resource fixpoint with output-jitter propagation
//!   along task chains and end-to-end path latencies.
//!
//! ```
//! use saav_sim::time::Duration;
//! use saav_timing::cpu::CpuAnalysis;
//! use saav_timing::event_model::EventModel;
//! use saav_timing::task::{Priority, Task};
//!
//! let mut cpu = CpuAnalysis::new();
//! let p = Duration::from_millis(10);
//! cpu.add_task(Task::new("ctl", Duration::from_millis(2), Priority(0),
//!                        EventModel::periodic(p), p));
//! let result = cpu.analyze().expect("schedulable");
//! assert_eq!(result.response("ctl").unwrap().wcrt, Duration::from_millis(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod can_rt;
pub mod cpu;
pub mod event_model;
pub mod system;
pub mod task;

pub use can_rt::CanAnalysis;
pub use cpu::CpuAnalysis;
pub use event_model::EventModel;
pub use system::{Activation, ResourceId, SystemAnalysis, SystemModel, TaskId};
pub use task::{AnalysisError, Priority, ResourceAnalysis, Task, TaskResponse};
