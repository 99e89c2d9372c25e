//! In-loop contract renegotiation: the live bridge between runtime
//! pressure signals and the MCC's integration process.
//!
//! Sec. II-A describes the MCC as an *in-field* integration authority:
//! changes are proposed while the system runs and admitted only after the
//! acceptance tests pass. The engine's containment layers detect pressure
//! (deadline misses on a throttled PE, thermal stress, DVFS events) but
//! until now reconfigured contracts by hand. The [`Renegotiator`] closes
//! that loop: pressure classes map to prepared [`UpdateRequest`]s
//! (registered once at assembly time, so the in-loop path performs no
//! request construction), each attempt runs the full viewpoint battery,
//! and a rejected preferred request deterministically falls back to a
//! conservative alternative. When the pressure clears, [`Renegotiator::
//! rollback`] restores the previously admitted configuration.
//!
//! Everything here is deterministic: plans are tried in registration
//! order, viewpoints run in battery order, and no wall-clock or host state
//! is consulted — the same pressure sequence yields bit-identical
//! outcomes on every rerun and thread count.

use std::fmt;

use crate::integration::{IntegrationError, Mcc, UpdateRequest};
use crate::model::CandidateConfig;

/// Classes of runtime pressure a renegotiation plan can respond to.
/// Mirrors the engine's problem-kind vocabulary without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PressureKind {
    /// Thermal stress: a hot, throttled PE missing deadlines.
    Thermal,
    /// Timing violations without thermal cause (overload, interference).
    Timing,
}

/// A sampled pressure reading handed to [`Renegotiator::respond`]. All
/// fields are plain numbers so sampling never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pressure {
    /// The pressure class observed.
    pub kind: PressureKind,
    /// Die temperature of the stressed PE (°C).
    pub temperature_c: f64,
    /// Deadline-miss ratio over the observation window (`[0,1]`).
    pub deadline_miss_ratio: f64,
    /// DVFS throttle events observed so far.
    pub throttle_events: u64,
}

/// A prepared response to one pressure class: a preferred update and an
/// optional conservative fallback tried when the viewpoints reject the
/// preferred one.
#[derive(Debug, Clone)]
pub struct ReconfigPlan {
    /// The pressure class this plan responds to.
    pub kind: PressureKind,
    /// The update tried first.
    pub preferred: UpdateRequest,
    /// Tried when `preferred` fails its acceptance tests.
    pub fallback: Option<UpdateRequest>,
}

/// Outcome of one [`Renegotiator::respond`] attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NegotiationOutcome {
    /// The preferred update passed every viewpoint and was committed.
    Accepted {
        /// Label of the committed update.
        label: String,
    },
    /// The preferred update was rejected; the fallback was committed.
    FallbackAccepted {
        /// Label of the committed fallback update.
        label: String,
        /// Viewpoints that rejected the preferred update, in battery order.
        rejected_by: Vec<&'static str>,
    },
    /// Every candidate update was rejected; the configuration is unchanged.
    Rejected {
        /// Viewpoints that rejected the last attempt, in battery order.
        rejected_by: Vec<&'static str>,
    },
    /// No plan is registered for the observed pressure class.
    NoPlan,
}

impl fmt::Display for NegotiationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiationOutcome::Accepted { label } => write!(f, "accepted `{label}`"),
            NegotiationOutcome::FallbackAccepted { label, rejected_by } => {
                write!(f, "fallback `{label}` (rejected by {rejected_by:?})")
            }
            NegotiationOutcome::Rejected { rejected_by } => {
                write!(f, "rejected by {rejected_by:?}")
            }
            NegotiationOutcome::NoPlan => f.write_str("no plan"),
        }
    }
}

/// The live renegotiation controller: an [`Mcc`] plus the prepared
/// pressure→update plans, with switch accounting.
#[derive(Debug)]
pub struct Renegotiator {
    mcc: Mcc,
    plans: Vec<ReconfigPlan>,
    attempts: u64,
    commits: u64,
    rollbacks: u64,
}

impl Renegotiator {
    /// Wraps an MCC (typically carrying an installed baseline) with an
    /// empty plan table.
    pub fn new(mcc: Mcc) -> Self {
        Renegotiator {
            mcc,
            plans: Vec::new(),
            attempts: 0,
            commits: 0,
            rollbacks: 0,
        }
    }

    /// Registers a plan. Plans are consulted in registration order; the
    /// first whose `kind` matches the pressure wins.
    pub fn register(&mut self, plan: ReconfigPlan) {
        self.plans.push(plan);
    }

    /// The wrapped controller.
    pub fn mcc(&self) -> &Mcc {
        &self.mcc
    }

    /// Renegotiation attempts so far (each may run one or two updates).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Committed configuration switches (accepted preferred or fallback).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Rollbacks performed.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Responds to a pressure sample: tries the matching plan's preferred
    /// update, then its fallback when the viewpoints reject the preferred
    /// one. Refinement failures (duplicate component, no feasible
    /// mapping) are hard errors — plans are supposed to be well-formed
    /// against the installed baseline.
    ///
    /// # Errors
    /// Propagates [`IntegrationError`] from a malformed plan.
    pub fn respond(&mut self, pressure: &Pressure) -> Result<NegotiationOutcome, IntegrationError> {
        let Some(idx) = self.plans.iter().position(|p| p.kind == pressure.kind) else {
            return Ok(NegotiationOutcome::NoPlan);
        };
        self.attempts += 1;
        let plan = self.plans[idx].clone();
        let report = self.mcc.propose_update(plan.preferred)?;
        if report.accepted {
            self.commits += 1;
            return Ok(NegotiationOutcome::Accepted {
                label: report.label,
            });
        }
        let rejected_by = report.rejecting_viewpoints();
        let Some(fallback) = plan.fallback else {
            return Ok(NegotiationOutcome::Rejected { rejected_by });
        };
        let fb = self.mcc.propose_update(fallback)?;
        if fb.accepted {
            self.commits += 1;
            Ok(NegotiationOutcome::FallbackAccepted {
                label: fb.label,
                rejected_by,
            })
        } else {
            Ok(NegotiationOutcome::Rejected {
                rejected_by: fb.rejecting_viewpoints(),
            })
        }
    }

    /// Restores the previously admitted configuration (pressure cleared).
    ///
    /// # Errors
    /// [`IntegrationError::NoHistory`] when nothing was committed before.
    pub fn rollback(&mut self) -> Result<&CandidateConfig, IntegrationError> {
        self.mcc.rollback()?;
        self.rollbacks += 1;
        Ok(self.mcc.current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::parse_contracts;
    use crate::model::PlatformModel;

    fn baseline_mcc() -> Mcc {
        let mut mcc = Mcc::new(PlatformModel::reference());
        let base = parse_contracts(
            "component ctl {\n task t { period 10ms wcet 3ms priority 3 }\n}\n\
             component drv {\n task t { period 10ms wcet 1ms priority 1 }\n}",
        )
        .unwrap();
        let report = mcc
            .propose_update(UpdateRequest {
                label: "baseline".into(),
                add: base,
                remove: vec![],
            })
            .unwrap();
        assert!(report.accepted);
        mcc
    }

    fn pressure() -> Pressure {
        Pressure {
            kind: PressureKind::Thermal,
            temperature_c: 85.0,
            deadline_miss_ratio: 0.2,
            throttle_events: 4,
        }
    }

    #[test]
    fn accepted_preferred_commits() {
        let mut r = Renegotiator::new(baseline_mcc());
        r.register(ReconfigPlan {
            kind: PressureKind::Thermal,
            preferred: UpdateRequest {
                label: "lowrate".into(),
                add: parse_contracts(
                    "component ctl_lowrate {\n task t { period 20ms wcet 3ms priority 3 }\n}",
                )
                .unwrap(),
                remove: vec!["ctl".into()],
            },
            fallback: None,
        });
        let outcome = r.respond(&pressure()).unwrap();
        assert_eq!(
            outcome,
            NegotiationOutcome::Accepted {
                label: "lowrate".into()
            }
        );
        assert_eq!(r.commits(), 1);
        assert!(r.mcc().current().component("ctl_lowrate").is_some());
        assert!(r.mcc().current().component("ctl").is_none());
    }

    #[test]
    fn rejected_preferred_falls_back_deterministically() {
        let mut r = Renegotiator::new(baseline_mcc());
        // Preferred: a tight-deadline add-on the timing viewpoint rejects.
        r.register(ReconfigPlan {
            kind: PressureKind::Thermal,
            preferred: UpdateRequest {
                label: "boost".into(),
                add: parse_contracts(
                    "component boost {\n task t { period 10ms wcet 1ms deadline 2ms priority 9 }\n}",
                )
                .unwrap(),
                remove: vec![],
            },
            fallback: Some(UpdateRequest {
                label: "lowrate".into(),
                add: parse_contracts(
                    "component ctl_lowrate {\n task t { period 20ms wcet 3ms priority 3 }\n}",
                )
                .unwrap(),
                remove: vec!["ctl".into()],
            }),
        });
        let outcome = r.respond(&pressure()).unwrap();
        assert_eq!(
            outcome,
            NegotiationOutcome::FallbackAccepted {
                label: "lowrate".into(),
                rejected_by: vec!["timing"],
            }
        );
        // Rerun from a fresh controller: bit-identical outcome.
        let mut r2 = Renegotiator::new(baseline_mcc());
        r2.register(ReconfigPlan {
            kind: PressureKind::Thermal,
            preferred: UpdateRequest {
                label: "boost".into(),
                add: parse_contracts(
                    "component boost {\n task t { period 10ms wcet 1ms deadline 2ms priority 9 }\n}",
                )
                .unwrap(),
                remove: vec![],
            },
            fallback: Some(UpdateRequest {
                label: "lowrate".into(),
                add: parse_contracts(
                    "component ctl_lowrate {\n task t { period 20ms wcet 3ms priority 3 }\n}",
                )
                .unwrap(),
                remove: vec!["ctl".into()],
            }),
        });
        assert_eq!(outcome, r2.respond(&pressure()).unwrap());
    }

    #[test]
    fn no_plan_and_rollback_accounting() {
        let mut r = Renegotiator::new(baseline_mcc());
        assert_eq!(
            r.respond(&Pressure {
                kind: PressureKind::Timing,
                ..pressure()
            })
            .unwrap(),
            NegotiationOutcome::NoPlan
        );
        assert_eq!(r.attempts(), 0);
        // Rollback to the pre-baseline empty configuration.
        let restored = r.rollback().unwrap();
        assert!(restored.components.is_empty());
        assert_eq!(r.rollbacks(), 1);
        // Nothing further to roll back: the error propagates.
        assert_eq!(r.rollback().unwrap_err(), IntegrationError::NoHistory);
        assert_eq!(r.rollbacks(), 1);
    }
}
