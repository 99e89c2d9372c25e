//! Ability graphs: skill graphs instantiated for run-time monitoring.
//!
//! Per the paper, *"an ability is derived from an abstract skill by
//! instantiation and including information about the ability's current
//! performance"*. Each node carries a performance level in `[0, 1]`:
//! sources/sinks receive measured quality from the monitoring layer, skills
//! combine their dependencies through an aggregation operator and an own
//! *local health* factor (degraded or compromised implementations pull it
//! below 1). Levels propagate leaf-to-root in topological order.
//!
//! Propagation is a pure function of the measured inputs, the local
//! healths and the fixed graph, so [`AbilityGraph::propagate`] recomputes
//! only after an input changed: the vehicle calls it every control period,
//! while its inputs move only when radar quality does or a containment
//! sets one.
//!
//! The paper leaves the aggregation metric open ("the development of
//! appropriate metrics … is subject to ongoing research"); three operators
//! are provided and compared in ablation A1.

use std::collections::HashMap;

use crate::graph::{NodeId, SkillGraph};

/// How a skill combines the performance of its dependencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateOp {
    /// The weakest dependency dominates (conservative default).
    Min,
    /// Dependencies multiply (compounding degradation).
    Product,
    /// Arithmetic mean of dependencies (optimistic).
    Mean,
}

impl AggregateOp {
    /// Combines dependency levels streamed from an iterator — the hot
    /// propagation path runs this once per node per tick, so it must not
    /// materialize the levels into a temporary allocation.
    fn combine(self, mut values: impl Iterator<Item = f64>) -> f64 {
        let Some(first) = values.next() else {
            return 1.0;
        };
        match self {
            AggregateOp::Min => values.fold(first, f64::min),
            AggregateOp::Product => first * values.product::<f64>(),
            AggregateOp::Mean => {
                let (sum, n) = values.fold((first, 1u32), |(s, n), v| (s + v, n + 1));
                sum / f64::from(n)
            }
        }
    }
}

/// Discrete availability status derived from a performance level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbilityStatus {
    /// Performance below the unavailable threshold.
    Unavailable,
    /// Performance between the thresholds.
    Degraded,
    /// Performance at or above the degraded threshold.
    Available,
}

/// Thresholds mapping a performance level to a status.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Below this level the ability counts as degraded.
    pub degraded_below: f64,
    /// Below this level the ability counts as unavailable.
    pub unavailable_below: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            degraded_below: 0.8,
            unavailable_below: 0.3,
        }
    }
}

impl Thresholds {
    /// Classifies a performance level.
    pub fn classify(&self, level: f64) -> AbilityStatus {
        if level < self.unavailable_below {
            AbilityStatus::Unavailable
        } else if level < self.degraded_below {
            AbilityStatus::Degraded
        } else {
            AbilityStatus::Available
        }
    }
}

/// A status transition produced by propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusChange {
    /// The affected node.
    pub node: NodeId,
    /// Node name (for reports).
    pub name: String,
    /// Previous status.
    pub from: AbilityStatus,
    /// New status.
    pub to: AbilityStatus,
    /// New performance level.
    pub level: f64,
}

/// The runtime ability graph.
#[derive(Debug, Clone)]
pub struct AbilityGraph {
    graph: SkillGraph,
    op: AggregateOp,
    thresholds: Thresholds,
    /// Measured performance of sources/sinks (monitor inputs).
    measured: Vec<f64>,
    /// Local implementation health of each node.
    local_health: Vec<f64>,
    /// Propagated performance level.
    level: Vec<f64>,
    status: Vec<AbilityStatus>,
    /// Leaf-to-root evaluation order (reverse topological).
    eval_order: Vec<NodeId>,
    /// The main skill, as proven unique by [`SkillGraph::validate`].
    root: NodeId,
    /// Whether an input changed bits since the last propagation.
    dirty: bool,
}

impl AbilityGraph {
    /// Instantiates a validated skill graph with uniform thresholds.
    ///
    /// # Errors
    /// Propagates [`crate::graph::GraphError`] from validation.
    pub fn instantiate(
        graph: SkillGraph,
        op: AggregateOp,
        thresholds: Thresholds,
    ) -> Result<Self, crate::graph::GraphError> {
        let root = graph.validate()?;
        let n = graph.len();
        let mut eval_order = graph
            .topological_order()
            .expect("validated graph is acyclic");
        eval_order.reverse(); // leaves first
        Ok(AbilityGraph {
            graph,
            op,
            thresholds,
            measured: vec![1.0; n],
            local_health: vec![1.0; n],
            level: vec![1.0; n],
            status: vec![AbilityStatus::Available; n],
            eval_order,
            root,
            // The initial levels are not derived from the thresholds, so
            // the first propagation always runs.
            dirty: true,
        })
    }

    /// The underlying skill graph.
    pub fn graph(&self) -> &SkillGraph {
        &self.graph
    }

    /// Sets the measured performance of a source/sink (or the base level of
    /// any node), clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn set_measured(&mut self, node: NodeId, value: f64) {
        Self::store(&mut self.measured[node.0], value, &mut self.dirty);
    }

    /// Sets a node's local implementation health (1 = nominal, 0 = failed or
    /// compromised), clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn set_local_health(&mut self, node: NodeId, value: f64) {
        Self::store(&mut self.local_health[node.0], value, &mut self.dirty);
    }

    /// Stores a clamped input, marking the graph dirty only when the stored
    /// bits change.
    fn store(slot: &mut f64, value: f64, dirty: &mut bool) {
        let value = value.clamp(0.0, 1.0);
        if slot.to_bits() != value.to_bits() {
            *slot = value;
            *dirty = true;
        }
    }

    /// Current performance level of a node.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn level(&self, node: NodeId) -> f64 {
        self.level[node.0]
    }

    /// Current status of a node.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn status(&self, node: NodeId) -> AbilityStatus {
        self.status[node.0]
    }

    /// Re-propagates performance levels leaf-to-root and returns all status
    /// changes (in evaluation order). Without an input change since the
    /// last call the levels cannot move, so it returns at once with none.
    pub fn propagate(&mut self) -> Vec<StatusChange> {
        let mut changes = Vec::new();
        if !std::mem::take(&mut self.dirty) {
            return changes;
        }
        for &node in &self.eval_order {
            let children = self.graph.children(node);
            let new_level = if children.is_empty() {
                self.measured[node.0] * self.local_health[node.0]
            } else {
                let combined = self.op.combine(children.iter().map(|c| self.level[c.0]));
                combined * self.local_health[node.0]
            };
            let new_level = new_level.clamp(0.0, 1.0);
            self.level[node.0] = new_level;
            let new_status = self.thresholds.classify(new_level);
            if new_status != self.status[node.0] {
                changes.push(StatusChange {
                    node,
                    name: self.graph.name(node).to_string(),
                    from: self.status[node.0],
                    to: new_status,
                    level: new_level,
                });
                self.status[node.0] = new_status;
            }
        }
        changes
    }

    /// Convenience: performance level of the main skill (root).
    pub fn root_level(&self) -> f64 {
        self.level[self.root.0]
    }

    /// Snapshot of all levels by node name (for reports).
    pub fn levels_by_name(&self) -> HashMap<String, f64> {
        self.graph
            .ids()
            .map(|id| (self.graph.name(id).to_string(), self.level[id.0]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::build_acc_graph;

    fn acc(op: AggregateOp) -> (AbilityGraph, crate::acc::AccNodes) {
        let (g, n) = build_acc_graph().unwrap();
        (
            AbilityGraph::instantiate(g, op, Thresholds::default()).unwrap(),
            n,
        )
    }

    #[test]
    fn nominal_everything_available() {
        let (mut a, n) = acc(AggregateOp::Min);
        let changes = a.propagate();
        assert!(changes.is_empty());
        assert_eq!(a.root_level(), 1.0);
        assert_eq!(a.status(n.acc_driving), AbilityStatus::Available);
    }

    #[test]
    fn sensor_degradation_reaches_root_with_min() {
        let (mut a, n) = acc(AggregateOp::Min);
        a.propagate();
        a.set_measured(n.env_sensors, 0.5);
        let changes = a.propagate();
        assert_eq!(a.level(n.env_sensors), 0.5);
        assert_eq!(a.level(n.perceive_objects), 0.5);
        assert_eq!(a.level(n.acc_driving), 0.5);
        // Intent estimation path untouched.
        assert_eq!(a.level(n.estimate_driver_intent), 1.0);
        // Change list includes the root.
        assert!(changes
            .iter()
            .any(|c| c.node == n.acc_driving && c.to == AbilityStatus::Degraded));
    }

    #[test]
    fn brake_loss_makes_deceleration_unavailable() {
        let (mut a, n) = acc(AggregateOp::Min);
        a.propagate();
        a.set_measured(n.brakes, 0.0);
        a.propagate();
        assert_eq!(a.status(n.decelerate), AbilityStatus::Unavailable);
        assert_eq!(a.status(n.keep_controllable), AbilityStatus::Unavailable);
        assert_eq!(a.status(n.acc_driving), AbilityStatus::Unavailable);
        // Acceleration unaffected.
        assert_eq!(a.status(n.accelerate), AbilityStatus::Available);
    }

    #[test]
    fn local_health_models_compromised_implementation() {
        let (mut a, n) = acc(AggregateOp::Min);
        a.propagate();
        // The decelerate *skill implementation* is quarantined even though
        // the physical brakes are fine — the paper's security scenario.
        a.set_local_health(n.decelerate, 0.0);
        a.propagate();
        assert_eq!(a.status(n.decelerate), AbilityStatus::Unavailable);
        assert_eq!(a.level(n.brakes), 1.0);
    }

    #[test]
    fn operators_order_severity() {
        // Two degraded inputs: min < product? No: product(0.9,0.8)=0.72 <
        // min(0.9,0.8)=0.8; mean = 0.85. Verify orderings on the root.
        let mut levels = HashMap::new();
        for op in [AggregateOp::Min, AggregateOp::Product, AggregateOp::Mean] {
            let (mut a, n) = acc(op);
            a.set_measured(n.env_sensors, 0.8);
            a.set_measured(n.hmi, 0.9);
            a.propagate();
            levels.insert(format!("{op:?}"), a.root_level());
        }
        assert!(levels["Product"] <= levels["Min"]);
        assert!(levels["Min"] <= levels["Mean"]);
    }

    #[test]
    fn propagation_is_idempotent() {
        let (mut a, n) = acc(AggregateOp::Product);
        a.set_measured(n.env_sensors, 0.6);
        let first = a.propagate();
        assert!(!first.is_empty());
        let second = a.propagate();
        assert!(second.is_empty(), "no changes without new inputs");
    }

    #[test]
    fn recovery_propagates_back_up() {
        let (mut a, n) = acc(AggregateOp::Min);
        a.set_measured(n.env_sensors, 0.1);
        a.propagate();
        assert_eq!(a.status(n.acc_driving), AbilityStatus::Unavailable);
        a.set_measured(n.env_sensors, 1.0);
        let changes = a.propagate();
        assert_eq!(a.status(n.acc_driving), AbilityStatus::Available);
        assert!(changes
            .iter()
            .any(|c| c.node == n.acc_driving && c.to == AbilityStatus::Available));
    }

    /// The root is the main skill that validation proved unique, even when
    /// a data source nothing depends on (legal) comes first in the graph.
    #[test]
    fn root_level_reads_the_main_skill_past_a_parentless_source() {
        let mut g = SkillGraph::new();
        let spare = g.add_source("spare_sensor").unwrap();
        let drive = g.add_skill("drive").unwrap();
        let radar = g.add_source("radar").unwrap();
        g.depend(drive, radar).unwrap();
        let mut a = AbilityGraph::instantiate(g, AggregateOp::Min, Thresholds::default()).unwrap();
        a.set_measured(radar, 0.4);
        a.set_measured(spare, 0.9);
        a.propagate();
        assert_eq!(a.level(drive), 0.4);
        assert_eq!(a.root_level(), 0.4);
    }

    #[test]
    fn levels_by_name_snapshot() {
        let (mut a, n) = acc(AggregateOp::Min);
        a.set_measured(n.hmi, 0.4);
        a.propagate();
        let snap = a.levels_by_name();
        assert_eq!(snap["hmi"], 0.4);
        assert_eq!(snap["estimate_driver_intent"], 0.4);
        assert_eq!(snap.len(), 13);
    }
}
