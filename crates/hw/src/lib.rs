//! # saav-hw — hardware platform substrate
//!
//! Models the computing hardware an autonomous vehicle's functions run on,
//! as required by the platform layer of Schlatow et al. (DATE 2017):
//! processing elements with DVFS ([`dvfs`]), a first-order RC thermal model
//! ([`thermal`]), a CMOS-style power model ([`power`]) and the aggregate
//! [`platform::Platform`].
//!
//! The crate exists to reproduce the paper's thermal cross-layer scenario
//! (Sec. V): high ambient temperature drives die temperature up, the
//! throttle governor lowers the operating point, execution slows down
//! ([`pe::ProcessingElement::speed_factor`]), and the timing layer starts
//! missing deadlines — a platform-level effect that must be handled at a
//! different layer. A PE the governor shuts down reads
//! [`Health::Failed`] and stays down.
//!
//! ```
//! use saav_hw::platform::Platform;
//! use saav_hw::pe::PeId;
//! use saav_sim::time::Duration;
//!
//! let mut platform = Platform::with_embedded_pes(1);
//! platform.pe_mut(PeId(0)).set_utilization(0.8);
//! platform.set_ambient_c(45.0);
//! for _ in 0..100 {
//!     platform.step(Duration::from_millis(100));
//! }
//! assert!(platform.pe(PeId(0)).temperature_c() > 25.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dvfs;
pub mod pe;
pub mod platform;
pub mod power;
pub mod thermal;

pub use dvfs::{DvfsTable, OperatingPoint, ThrottleGovernor};
pub use pe::{Health, PeId, ProcessingElement};
pub use platform::Platform;
pub use power::PowerModel;
pub use thermal::ThermalModel;
