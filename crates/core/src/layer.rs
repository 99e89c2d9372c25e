//! Layers, problems and directives — the vocabulary of cross-layer
//! self-awareness.
//!
//! The paper's central claim (Sec. V) is that detected problems must be
//! handled *"on the appropriate layer"* and that layers must cooperate
//! without forwarding problems ad infinitum and without issuing
//! *"conflicting decisions"*. This module defines the layer lattice, the
//! problem records that travel across it, and a [`DirectiveBoard`] that
//! arbitrates contradictory countermeasures by layer precedence.

use std::borrow::Cow;
use std::fmt;

use saav_sim::name::Name;
use saav_sim::time::Time;

/// The self-awareness layers, ordered by abstraction (escalation goes
/// upward through this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Hardware platform (PEs, thermal, power).
    Platform,
    /// Communication (buses, controllers).
    Communication,
    /// Safety mechanisms (redundancy, restart, quarantine).
    Safety,
    /// Functional abilities (skill/ability graph, graceful degradation).
    Ability,
    /// Driving objective (mission, safe stop).
    Objective,
}

impl Layer {
    /// All layers in escalation order.
    pub const ALL: [Layer; 5] = [
        Layer::Platform,
        Layer::Communication,
        Layer::Safety,
        Layer::Ability,
        Layer::Objective,
    ];

    /// The next layer upward, or `None` at the objective layer.
    pub fn above(self) -> Option<Layer> {
        let idx = Layer::ALL.iter().position(|&l| l == self).expect("in ALL");
        Layer::ALL.get(idx + 1).copied()
    }

    /// Precedence for conflicting directives: safety dominates everything,
    /// then the objective layer, then abilities, then the lower layers.
    /// (A safety shutdown must never be overridden by an ability-layer
    /// keep-alive — the paper's "catastrophic effects" case.)
    pub fn directive_precedence(self) -> u8 {
        match self {
            Layer::Safety => 4,
            Layer::Objective => 3,
            Layer::Ability => 2,
            Layer::Communication => 1,
            Layer::Platform => 0,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::Platform => "platform",
            Layer::Communication => "communication",
            Layer::Safety => "safety",
            Layer::Ability => "ability",
            Layer::Objective => "objective",
        };
        f.write_str(s)
    }
}

/// Classes of detected problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// A component is compromised (intrusion detected).
    SecurityBreach,
    /// A component or hardware element failed.
    ComponentFailure,
    /// Thermal stress degrading the platform.
    ThermalStress,
    /// Deadlines are being missed.
    TimingViolation,
    /// Sensor/data quality degraded.
    SensorDegradation,
    /// Bus or controller fault.
    CommunicationFault,
    /// Behaviour deviates from a learned model of nominal operation
    /// (raised by the learned self-awareness monitor).
    BehaviorDeviation,
    /// A cooperating peer vehicle misbehaves (untrustworthy platoon
    /// member); cooperative containment ejects it or leaves the platoon.
    PeerMisbehavior,
}

impl fmt::Display for ProblemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProblemKind::SecurityBreach => "security breach",
            ProblemKind::ComponentFailure => "component failure",
            ProblemKind::ThermalStress => "thermal stress",
            ProblemKind::TimingViolation => "timing violation",
            ProblemKind::SensorDegradation => "sensor degradation",
            ProblemKind::CommunicationFault => "communication fault",
            ProblemKind::BehaviorDeviation => "behavior deviation",
            ProblemKind::PeerMisbehavior => "peer misbehavior",
        };
        f.write_str(s)
    }
}

/// A problem record travelling between layers.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Unique id within one coordinator.
    pub id: u64,
    /// Detection time.
    pub detected_at: Time,
    /// Layer whose monitor detected it.
    pub origin: Layer,
    /// Affected entity (component, sensor, PE…). Interned: escalation
    /// clones the subject per hop, which must stay allocation-free.
    pub subject: Name,
    /// Problem class.
    pub kind: ProblemKind,
}

/// Outcome of a layer's containment attempt.
///
/// Actions borrow static text unless they name a runtime subject, so an
/// escalation storm that repeats one countermeasure allocates no string.
#[derive(Debug, Clone, PartialEq)]
pub enum Containment {
    /// Fully handled at this layer.
    Resolved {
        /// What was done.
        action: Cow<'static, str>,
    },
    /// Partially handled: the residual must escalate further.
    Mitigated {
        /// What was done at this layer.
        action: Cow<'static, str>,
    },
    /// This layer has no applicable countermeasure.
    CannotHandle,
}

/// A countermeasure directive proposed by a layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// Shut a component down / keep it down.
    Shutdown,
    /// Keep a component running (explicitly).
    KeepAlive,
    /// Cap the vehicle speed (m/s).
    SpeedCap(f64),
    /// Commit to a minimal-risk stop.
    SafeStop,
}

impl Directive {
    /// Whether two directives on the same subject contradict each other.
    pub fn conflicts_with(&self, other: &Directive) -> bool {
        matches!(
            (self, other),
            (Directive::Shutdown, Directive::KeepAlive)
                | (Directive::KeepAlive, Directive::Shutdown)
                | (Directive::SafeStop, Directive::KeepAlive)
                | (Directive::KeepAlive, Directive::SafeStop)
        )
    }
}

/// Result of posting a directive to the [`DirectiveBoard`].
#[derive(Debug, Clone, PartialEq)]
pub enum Posting {
    /// No conflict; directive is active.
    Accepted,
    /// Conflicted with a lower-precedence directive, which was displaced.
    Overrode {
        /// The displaced directive.
        displaced: Directive,
        /// The layer that had posted it.
        from: Layer,
    },
    /// Conflicted with a higher-precedence directive and was rejected.
    Rejected {
        /// The prevailing directive.
        prevailing: Directive,
        /// The layer holding it.
        held_by: Layer,
    },
}

/// Arbitrates conflicting directives across layers by precedence.
///
/// This is the mechanism preventing the paper's *"conflicting decisions
/// between multiple layers of self-awareness"*: every countermeasure is
/// posted here before execution, and contradictions are resolved
/// deterministically in favour of the higher-precedence layer.
#[derive(Debug, Clone, Default)]
pub struct DirectiveBoard {
    active: Vec<(Layer, Name, Directive)>,
    conflicts_detected: u64,
}

impl DirectiveBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        DirectiveBoard::default()
    }

    /// Posts a directive for `subject` from `layer`.
    pub fn post(
        &mut self,
        layer: Layer,
        subject: impl Into<Name>,
        directive: Directive,
    ) -> Posting {
        let subject = subject.into();
        // Find a conflicting active directive on the same subject.
        if let Some(pos) = self
            .active
            .iter()
            .position(|(_, s, d)| *s == subject && d.conflicts_with(&directive))
        {
            self.conflicts_detected += 1;
            let (holder, _, held) = self.active[pos].clone();
            if layer.directive_precedence() > holder.directive_precedence() {
                self.active.remove(pos);
                self.active.push((layer, subject, directive));
                return Posting::Overrode {
                    displaced: held,
                    from: holder,
                };
            }
            return Posting::Rejected {
                prevailing: held,
                held_by: holder,
            };
        }
        self.active.push((layer, subject, directive));
        Posting::Accepted
    }

    /// Whether `layer` already holds `directive` for `subject`: a caller
    /// repeating a standing directive checks this instead of appending a
    /// duplicate entry with every repetition.
    pub fn holds(&self, layer: Layer, subject: &str, directive: &Directive) -> bool {
        self.active
            .iter()
            .any(|(l, s, d)| *l == layer && s == subject && d == directive)
    }

    /// Active directives for a subject.
    pub fn directives_for<'a>(&'a self, subject: &'a str) -> impl Iterator<Item = &'a Directive> {
        self.active
            .iter()
            .filter(move |(_, s, _)| s == subject)
            .map(|(_, _, d)| d)
    }

    /// Number of conflicts detected so far.
    pub fn conflicts_detected(&self) -> u64 {
        self.conflicts_detected
    }

    /// Total active directives.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether the board is empty.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Clears all directives (scenario reset).
    pub fn clear(&mut self) {
        self.active.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_order() {
        assert_eq!(Layer::Platform.above(), Some(Layer::Communication));
        assert_eq!(Layer::Ability.above(), Some(Layer::Objective));
        assert_eq!(Layer::Objective.above(), None);
    }

    #[test]
    fn safety_precedence_dominates() {
        assert!(Layer::Safety.directive_precedence() > Layer::Objective.directive_precedence());
        assert!(Layer::Objective.directive_precedence() > Layer::Ability.directive_precedence());
    }

    #[test]
    fn conflicting_directives_detected() {
        assert!(Directive::Shutdown.conflicts_with(&Directive::KeepAlive));
        assert!(!Directive::Shutdown.conflicts_with(&Directive::SpeedCap(10.0)));
        assert!(Directive::SafeStop.conflicts_with(&Directive::KeepAlive));
    }

    #[test]
    fn board_resolves_by_precedence() {
        let mut board = DirectiveBoard::new();
        // Ability layer wants the rear brake kept alive (degraded use).
        assert_eq!(
            board.post(Layer::Ability, "brake_rear", Directive::KeepAlive),
            Posting::Accepted
        );
        // Safety layer demands shutdown: overrides.
        let posting = board.post(Layer::Safety, "brake_rear", Directive::Shutdown);
        assert!(matches!(
            posting,
            Posting::Overrode {
                from: Layer::Ability,
                ..
            }
        ));
        assert_eq!(board.conflicts_detected(), 1);
        // Ability retries keep-alive: rejected.
        let posting = board.post(Layer::Ability, "brake_rear", Directive::KeepAlive);
        assert!(matches!(
            posting,
            Posting::Rejected {
                held_by: Layer::Safety,
                ..
            }
        ));
        assert_eq!(board.conflicts_detected(), 2);
        let active: Vec<&Directive> = board.directives_for("brake_rear").collect();
        assert_eq!(active, vec![&Directive::Shutdown]);
    }

    #[test]
    fn unrelated_subjects_coexist() {
        let mut board = DirectiveBoard::new();
        board.post(Layer::Safety, "brake_rear", Directive::Shutdown);
        assert_eq!(
            board.post(Layer::Ability, "vehicle", Directive::SpeedCap(15.0)),
            Posting::Accepted
        );
        assert_eq!(board.len(), 2);
        assert_eq!(board.conflicts_detected(), 0);
    }
}
