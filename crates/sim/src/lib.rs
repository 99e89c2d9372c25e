//! # saav-sim — discrete-event simulation kernel
//!
//! Foundation crate of the SAAV (Self-Aware Autonomous Vehicle) workspace,
//! the reproduction of Schlatow et al., *Self-awareness in autonomous
//! automotive systems* (DATE 2017).
//!
//! Every other crate builds on the primitives here:
//!
//! * [`time`] — virtual [`time::Time`]/[`time::Duration`] with nanosecond
//!   resolution; wall-clock time never enters simulation results.
//! * [`event`] — a deterministic typed [`event::EventQueue`] with FIFO
//!   tie-breaking.
//! * [`rng`] — seedable [`rng::SimRng`] so every experiment is reproducible.
//! * [`series`] — time-series recording and the summary statistics the
//!   benchmark harness reports.
//! * [`report`] — aligned text tables for regenerated paper tables.
//!
//! ## Example
//!
//! ```
//! use saav_sim::event::EventQueue;
//! use saav_sim::time::{Duration, Time};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { SensorSample, Deadline }
//!
//! let mut q = EventQueue::new();
//! let now = Time::ZERO;
//! q.schedule_after(now, Duration::from_millis(10), Ev::SensorSample);
//! q.schedule_after(now, Duration::from_millis(5), Ev::Deadline);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::Deadline);
//! assert_eq!(t, Time::from_millis(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod name;
pub mod report;
pub mod rng;
pub mod series;
pub mod time;

pub use event::EventQueue;
pub use name::Name;
pub use rng::SimRng;
pub use series::Series;
pub use time::{Duration, Time};
