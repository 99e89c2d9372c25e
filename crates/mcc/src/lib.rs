//! # saav-mcc — the Multi-Change Controller (model domain)
//!
//! The model domain of the CCC architecture (Sec. II-A of Schlatow et al.,
//! DATE 2017): an automated, model-based integration process that admits
//! in-field changes to a safety-critical system only after formal acceptance
//! tests pass.
//!
//! * [`contract`] — the contracting language: per-component requirements
//!   across viewpoints (ASIL, trust domain, tasks, frames, resources), with
//!   a line-oriented text syntax and parser.
//! * [`model`] — platform model and candidate configurations (the
//!   functional → technical → implementation refinement chain).
//! * [`viewpoints`] — acceptance tests: timing (WCRT via `saav-timing`),
//!   safety (ASIL sufficiency incl. decomposition over redundant
//!   providers), security (no influence path from untrusted components to
//!   critical services), resources (memory/utilization headroom).
//! * [`integration`] — the MCC itself: admission, first-fit mapping,
//!   viewpoint battery, versioned commits and rollback.
//! * [`renegotiator`] — the in-loop bridge: runtime pressure (deadline
//!   misses, thermal/DVFS counters) mapped to prepared update requests,
//!   admitted through the same viewpoints, with deterministic fallback
//!   and rollback.
//! * [`dependency`] — automated cross-layer FMEA: failure propagation over
//!   typed dependency graphs with redundancy groups (Sec. V).
//!
//! ```
//! use saav_mcc::contract::parse_contracts;
//! use saav_mcc::integration::{Mcc, UpdateRequest};
//! use saav_mcc::model::PlatformModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mcc = Mcc::new(PlatformModel::reference());
//! let report = mcc.propose_update(UpdateRequest {
//!     label: "add radar driver".into(),
//!     add: parse_contracts(
//!         "component radar {\n provides sensor.radar\n \
//!          task drv { period 10ms wcet 1ms priority 1 }\n}")?,
//!     remove: vec![],
//! })?;
//! assert!(report.accepted);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod dependency;
pub mod integration;
pub mod model;
pub mod renegotiator;
pub mod viewpoints;

pub use contract::{parse_contracts, Asil, Contract, ParseError, TrustDomain};
pub use dependency::{DependencyGraph, ElementId, LayerTag};
pub use integration::{IntegrationError, IntegrationReport, Mcc, UpdateRequest};
pub use model::{CandidateConfig, PlatformModel};
pub use renegotiator::{NegotiationOutcome, Pressure, PressureKind, ReconfigPlan, Renegotiator};
pub use viewpoints::{default_viewpoints, Verdict, Viewpoint};
