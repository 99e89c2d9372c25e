//! # saav-platoon — cooperation under distrust
//!
//! The cooperative self-awareness substrate of Sec. V of Schlatow et al.
//! (DATE 2017): vehicles that must *"cooperate to share information or even
//! to agree on collective behavior"* while any neighbour's communication or
//! platform *"might not be fully trustworthy or even compromised"*.
//!
//! * [`agreement`] — Byzantine-tolerant protocols: iterative trimmed-mean
//!   approximate agreement (`n > 3f`) and a robust minimum for safety
//!   parameters.
//! * [`platoon`] — membership, negotiation of the common cruise speed from
//!   per-vehicle safe speeds, and evidence-based trust with ejection.
//! * [`routing`] — risk-aware route planning under weather forecasts,
//!   including the paper's alpine-pass-vs-detour scenario.
//!
//! ```
//! use saav_platoon::agreement::{robust_min};
//!
//! // Four vehicles report safe speeds; one lies absurdly low.
//! let agreed = robust_min(&[22.0, 25.0, 23.0, 1.0], 1);
//! assert_eq!(agreed, 22.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod platoon;
pub mod routing;

pub use agreement::{
    robust_min, trimmed_mean_agreement, try_trimmed_mean_agreement, AgreementResult, Behavior,
    InsufficientQuorum,
};
pub use platoon::{Member, MemberId, Negotiation, Platoon};
pub use routing::{alpine_scenario, CostModel, RoadGraph, RoadNode, Route};
