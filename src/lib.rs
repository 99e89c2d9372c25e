//! # saav — Self-Awareness in Autonomous Automotive Systems
//!
//! Umbrella crate for the reproduction of Schlatow, Möstl, Ernst, Nolte,
//! Jatzkowski, Maurer, Herber & Herkersdorf, *Self-awareness in autonomous
//! automotive systems* (DATE 2017). It re-exports every layer of the stack:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | discrete-event kernel: virtual time, queues, RNG, traces |
//! | [`hw`] | platform: PEs, DVFS, thermal/power models, thermal shutdown |
//! | [`can`] | CAN bus + the virtualized (PF/VF) CAN controller of Fig. 2 |
//! | [`rte`] | microkernel-style execution domain with budgets and capabilities |
//! | [`timing`] | compositional WCRT analysis (CPU + CAN) |
//! | [`mcc`] | model domain: contracts, viewpoints, integration, FMEA |
//! | [`monitor`] | execution/heartbeat/boundary/quality/access monitors |
//! | [`learn`] | learned self-awareness: quantizers, state vocabulary, DBN transitions, online abnormality scoring |
//! | [`skills`] | skill & ability graphs (Sec. IV), driving-mode policy |
//! | [`vehicle`] | longitudinal plant, degradable sensors, ACC function |
//! | [`platoon`] | Byzantine agreement, trust, risk-aware routing |
//! | [`core`] | cross-layer coordination, scenario engine, vehicle + fleet runner (Sec. V) |
//!
//! ## Quick start
//!
//! ```
//! use saav::core::{runner, ResponseStrategy, Scenario};
//!
//! // Run the paper's intrusion scenario with cross-layer self-awareness.
//! let outcome = runner::run(Scenario::intrusion(
//!     ResponseStrategy::CrossLayer,
//!     42,
//! ));
//! assert!(!outcome.collision);
//! assert!(outcome.first_detection.is_some());
//! ```
//!
//! See `examples/` for scenario walkthroughs and
//! `cargo run -p saav-bench --bin repro -- all` for every reproduced table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use saav_can as can;
pub use saav_core as core;
pub use saav_hw as hw;
pub use saav_learn as learn;
pub use saav_mcc as mcc;
pub use saav_monitor as monitor;
pub use saav_platoon as platoon;
pub use saav_rte as rte;
pub use saav_sim as sim;
pub use saav_skills as skills;
pub use saav_timing as timing;
pub use saav_vehicle as vehicle;
