//! The cross-layer coordinator: routes detected problems to the layer best
//! suited to contain them, with guaranteed termination.
//!
//! Sec. V: *"A self-aware system is then able to identify the most
//! appropriate layer to respond to detected anomalies"* and *"it must
//! ensure that these \[layers\] also cooperate and avoid situations in which
//! the problem is forwarded ad infinitum."*
//!
//! Termination is structural: under [`EscalationPolicy::LocalFirst`] a
//! problem starts at its origin layer and only ever moves *upward* through
//! the finite layer order, so every resolution trace has at most
//! `|layers|` attempts; a hop budget additionally caps the broadcast
//! policy. This invariant is property-tested in the crate's tests.
//!
//! The coordinator keeps no history. [`Coordinator::resolve`] returns each
//! problem's [`ResolutionTrace`] by value and only counts it: problems
//! routed, problems resolved, the longest hop count and resolutions per
//! layer. Its statistics read those counters, so its memory stays constant
//! however long an escalation storm lasts.

use saav_sim::name::Name;
use saav_sim::time::Time;

use crate::layer::{Containment, Layer, Problem, ProblemKind};

/// How problems are routed to layers (ablation A2 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationPolicy {
    /// Try the origin layer first, escalate strictly upward on failure.
    LocalFirst,
    /// Offer the problem to every layer from the bottom up, regardless of
    /// origin (more containment attempts, more actions, more conflicts).
    BroadcastUp,
}

/// One containment attempt in a resolution trace.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The layer that was asked.
    pub layer: Layer,
    /// What it answered.
    pub outcome: Containment,
}

/// The full record of one problem's journey through the layers.
#[derive(Debug, Clone)]
pub struct ResolutionTrace {
    /// The problem handled.
    pub problem: Problem,
    /// Attempts in order.
    pub attempts: Vec<Attempt>,
    /// The layer that finally resolved it, if any.
    pub resolved_by: Option<Layer>,
}

impl ResolutionTrace {
    /// Number of layer hops taken.
    pub fn hops(&self) -> usize {
        self.attempts.len()
    }

    /// Whether the problem was resolved.
    pub fn resolved(&self) -> bool {
        self.resolved_by.is_some()
    }

    /// All actions taken along the way (mitigations and the resolution).
    pub fn actions(&self) -> Vec<&str> {
        self.attempts
            .iter()
            .filter_map(|a| match &a.outcome {
                Containment::Resolved { action } | Containment::Mitigated { action } => {
                    Some(action.as_ref())
                }
                Containment::CannotHandle => None,
            })
            .collect()
    }
}

/// The coordinator.
#[derive(Debug)]
pub struct Coordinator {
    policy: EscalationPolicy,
    next_id: u64,
    routed: usize,
    resolved: usize,
    max_hops: usize,
    /// Resolved problems per layer, in [`Layer::ALL`] order.
    resolved_by_layer: [usize; Layer::ALL.len()],
}

impl Coordinator {
    /// Creates a coordinator with the given routing policy.
    pub fn new(policy: EscalationPolicy) -> Self {
        Coordinator {
            policy,
            next_id: 0,
            routed: 0,
            resolved: 0,
            max_hops: 0,
            resolved_by_layer: [0; Layer::ALL.len()],
        }
    }

    /// The active policy.
    pub fn policy(&self) -> EscalationPolicy {
        self.policy
    }

    /// The layer sequence a problem detected at `origin` is offered to,
    /// under the active policy.
    ///
    /// This is the *single* routing implementation: [`Coordinator::resolve`]
    /// and the assembly's stepping loop both iterate exactly this sequence.
    /// Under [`EscalationPolicy::LocalFirst`] it is the origin layer and then
    /// strictly upward; under [`EscalationPolicy::BroadcastUp`] it is every
    /// layer bottom-up regardless of origin.
    pub fn route(&self, origin: Layer) -> impl Iterator<Item = Layer> {
        self.route_slice(origin).iter().copied()
    }

    /// The same routing as [`Self::route`], as a borrowed slice of
    /// [`Layer::ALL`] — the escalation hot path iterates this directly so
    /// routing never materializes a temporary collection.
    pub fn route_slice(&self, origin: Layer) -> &'static [Layer] {
        let start = match self.policy {
            EscalationPolicy::LocalFirst => Layer::ALL
                .iter()
                .position(|&l| l == origin)
                .expect("origin is in Layer::ALL"),
            EscalationPolicy::BroadcastUp => 0,
        };
        &Layer::ALL[start..]
    }

    /// Creates a new problem record.
    pub fn detect(
        &mut self,
        at: Time,
        origin: Layer,
        subject: impl Into<Name>,
        kind: ProblemKind,
    ) -> Problem {
        let id = self.next_id;
        self.next_id += 1;
        Problem {
            id,
            detected_at: at,
            origin,
            subject: subject.into(),
            kind,
        }
    }

    /// Routes `problem` through the layers. `handler(layer, problem)` is the
    /// concrete containment logic of each layer (implemented by the vehicle
    /// assembly); the coordinator supplies routing, bounding and counting.
    ///
    /// The trace is returned, not stored: only the statistics count it.
    pub fn resolve<F>(&mut self, problem: Problem, mut handler: F) -> ResolutionTrace
    where
        F: FnMut(Layer, &Problem) -> Containment,
    {
        let mut attempts = Vec::new();
        let mut resolved_by = None;
        for &layer in self.route_slice(problem.origin) {
            let outcome = handler(layer, &problem);
            let is_resolved = matches!(outcome, Containment::Resolved { .. });
            attempts.push(Attempt { layer, outcome });
            if is_resolved {
                resolved_by = Some(layer);
                break;
            }
        }
        self.record(attempts.len(), resolved_by);
        ResolutionTrace {
            problem,
            attempts,
            resolved_by,
        }
    }

    /// Counts one problem routed elsewhere through [`Self::route_slice`]:
    /// the live escalation loop contains in place and hands over only the
    /// hop count and the resolving layer.
    pub(crate) fn record(&mut self, hops: usize, resolved_by: Option<Layer>) {
        self.routed += 1;
        self.max_hops = self.max_hops.max(hops);
        if let Some(layer) = resolved_by {
            self.resolved += 1;
            // `Layer`'s discriminants follow `Layer::ALL` order.
            self.resolved_by_layer[layer as usize] += 1;
        }
    }

    /// Number of problems routed so far.
    pub(crate) fn routed(&self) -> usize {
        self.routed
    }

    /// Number of routed problems some layer resolved.
    pub(crate) fn resolved(&self) -> usize {
        self.resolved
    }

    /// Fraction of problems resolved, or `None` when no problem was seen.
    pub fn resolution_rate(&self) -> Option<f64> {
        (self.routed > 0).then(|| self.resolved as f64 / self.routed as f64)
    }

    /// Histogram of resolving layers.
    pub fn resolution_layers(&self) -> Vec<(Layer, usize)> {
        Layer::ALL.into_iter().zip(self.resolved_by_layer).collect()
    }

    /// The longest propagation chain observed.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(c: &mut Coordinator, origin: Layer) -> Problem {
        c.detect(Time::ZERO, origin, "x", ProblemKind::ComponentFailure)
    }

    #[test]
    fn local_first_stops_at_origin_when_contained() {
        let mut c = Coordinator::new(EscalationPolicy::LocalFirst);
        let p = problem(&mut c, Layer::Platform);
        let trace = c.resolve(p, |layer, _| {
            assert_eq!(layer, Layer::Platform);
            Containment::Resolved {
                action: "dvfs".into(),
            }
        });
        assert_eq!(trace.hops(), 1);
        assert_eq!(trace.resolved_by, Some(Layer::Platform));
    }

    #[test]
    fn escalates_upward_until_resolved() {
        let mut c = Coordinator::new(EscalationPolicy::LocalFirst);
        let p = problem(&mut c, Layer::Platform);
        let trace = c.resolve(p, |layer, _| {
            if layer == Layer::Ability {
                Containment::Resolved {
                    action: "speed cap".into(),
                }
            } else {
                Containment::CannotHandle
            }
        });
        assert_eq!(trace.resolved_by, Some(Layer::Ability));
        let visited: Vec<Layer> = trace.attempts.iter().map(|a| a.layer).collect();
        assert_eq!(
            visited,
            vec![
                Layer::Platform,
                Layer::Communication,
                Layer::Safety,
                Layer::Ability
            ]
        );
    }

    #[test]
    fn propagation_always_terminates() {
        // Even a handler that never resolves terminates within |layers| hops
        // from any origin — the paper's no-ad-infinitum requirement.
        for &origin in &Layer::ALL {
            let mut c = Coordinator::new(EscalationPolicy::LocalFirst);
            let p = problem(&mut c, origin);
            let trace = c.resolve(p, |_, _| Containment::CannotHandle);
            assert!(trace.hops() <= Layer::ALL.len());
            assert!(!trace.resolved());
        }
    }

    #[test]
    fn mitigations_accumulate_actions() {
        let mut c = Coordinator::new(EscalationPolicy::LocalFirst);
        let p = problem(&mut c, Layer::Safety);
        let trace = c.resolve(p, |layer, _| match layer {
            Layer::Safety => Containment::Mitigated {
                action: "quarantine".into(),
            },
            Layer::Ability => Containment::Resolved {
                action: "regen braking + speed cap".into(),
            },
            _ => Containment::CannotHandle,
        });
        assert_eq!(trace.actions().len(), 2);
        assert_eq!(trace.resolved_by, Some(Layer::Ability));
    }

    #[test]
    fn broadcast_visits_all_layers_bottom_up() {
        let mut c = Coordinator::new(EscalationPolicy::BroadcastUp);
        let p = problem(&mut c, Layer::Ability);
        let trace = c.resolve(p, |_, _| Containment::Mitigated {
            action: "noted".into(),
        });
        assert_eq!(trace.hops(), Layer::ALL.len());
    }

    #[test]
    fn statistics_track_traces() {
        let mut c = Coordinator::new(EscalationPolicy::LocalFirst);
        let p1 = problem(&mut c, Layer::Platform);
        c.resolve(p1, |_, _| Containment::Resolved { action: "a".into() });
        let p2 = problem(&mut c, Layer::Ability);
        c.resolve(p2, |_, _| Containment::CannotHandle);
        assert_eq!(c.resolution_rate(), Some(0.5));
        assert_eq!(c.max_hops(), 2); // Ability -> Objective
        let by_layer = c.resolution_layers();
        assert_eq!(
            by_layer
                .iter()
                .find(|(l, _)| *l == Layer::Platform)
                .unwrap()
                .1,
            1
        );
        assert_eq!(by_layer.iter().map(|&(_, n)| n).sum::<usize>(), 1);
        assert_eq!((c.resolved(), c.routed()), (1, 2));
    }

    /// `route` and `resolve` must visit identical layer sequences — the
    /// assembly loop and the coordinator share one routing implementation.
    #[test]
    fn route_and_resolve_visit_identical_sequences() {
        for policy in [EscalationPolicy::LocalFirst, EscalationPolicy::BroadcastUp] {
            for &origin in &Layer::ALL {
                let mut c = Coordinator::new(policy);
                let routed: Vec<Layer> = c.route(origin).collect();
                let p = problem(&mut c, origin);
                // A never-resolving handler forces the full sequence.
                let trace = c.resolve(p, |_, _| Containment::CannotHandle);
                let visited: Vec<Layer> = trace.attempts.iter().map(|a| a.layer).collect();
                assert_eq!(routed, visited, "{policy:?} from {origin:?}");
            }
        }
    }

    #[test]
    fn local_first_route_is_origin_then_strictly_upward() {
        let c = Coordinator::new(EscalationPolicy::LocalFirst);
        let routed: Vec<Layer> = c.route(Layer::Safety).collect();
        assert_eq!(
            routed,
            vec![Layer::Safety, Layer::Ability, Layer::Objective]
        );
        let mut expected = vec![Layer::Safety];
        while let Some(l) = expected.last().unwrap().above() {
            expected.push(l);
        }
        assert_eq!(routed, expected);
    }

    #[test]
    fn problem_ids_are_unique() {
        let mut c = Coordinator::new(EscalationPolicy::LocalFirst);
        let a = problem(&mut c, Layer::Platform);
        let b = problem(&mut c, Layer::Platform);
        assert_ne!(a.id, b.id);
    }
}
