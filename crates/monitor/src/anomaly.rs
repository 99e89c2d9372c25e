//! Anomalies: the common output type of all monitors.

use std::fmt;

use saav_sim::name::Name;
use saav_sim::time::Time;

/// What kind of deviation a monitor detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// A job executed longer than its contracted WCET.
    ExecutionOverrun,
    /// A job finished after its deadline.
    DeadlineMiss,
    /// An expected heartbeat did not arrive in time.
    HeartbeatLoss,
    /// A value left its static boundary range.
    OutOfRange,
    /// Signal quality dropped below its requirement.
    QualityDegraded,
    /// A capability check was violated (denied access attempt).
    AccessViolation,
    /// Message rate on a channel deviates strongly from its profile.
    RateAnomaly,
    /// Behaviour deviates from a *learned* model of nominal operation
    /// (windowed surprise above the calibrated threshold).
    ModelDeviation,
    /// A cooperating peer vehicle misbehaves: its broadcast claims
    /// repeatedly deviate from the negotiated agreement and its trust has
    /// collapsed (Byzantine platoon member).
    PeerMisbehavior,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AnomalyKind::ExecutionOverrun => "execution overrun",
            AnomalyKind::DeadlineMiss => "deadline miss",
            AnomalyKind::HeartbeatLoss => "heartbeat loss",
            AnomalyKind::OutOfRange => "value out of range",
            AnomalyKind::QualityDegraded => "quality degraded",
            AnomalyKind::AccessViolation => "access violation",
            AnomalyKind::RateAnomaly => "message rate anomaly",
            AnomalyKind::ModelDeviation => "learned-model deviation",
            AnomalyKind::PeerMisbehavior => "peer misbehavior",
        };
        f.write_str(s)
    }
}

/// A detected deviation from modeled/expected behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Detection instant.
    pub at: Time,
    /// The monitored entity (task, signal, channel, component). Interned:
    /// monitors hold their subject as a [`Name`] and raising an anomaly
    /// clones it with a reference-count bump, not a heap allocation.
    pub subject: Name,
    /// Deviation class.
    pub kind: AnomalyKind,
}

impl Anomaly {
    /// Creates an anomaly.
    pub fn new(at: Time, subject: impl Into<Name>, kind: AnomalyKind) -> Self {
        Anomaly {
            at,
            subject: subject.into(),
            kind,
        }
    }
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.subject, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let a = Anomaly::new(Time::from_secs(3), "acc_ctl", AnomalyKind::DeadlineMiss);
        let s = a.to_string();
        assert!(s.contains("acc_ctl"));
        assert!(s.contains("deadline miss"));
    }
}
