//! Skill graphs: directed acyclic graphs of skills, data sources and data
//! sinks.
//!
//! Following Reschka et al. \[22\] as summarized in Sec. IV of the paper: *"A
//! skill graph is a directed acyclic graph (DAG) that consists of skill
//! nodes, data sink nodes, data source nodes, and dependency relations
//! between the nodes. A path in this DAG, starting with a main skill and
//! ending at a data source or data sink, represents a chain of dependencies
//! between abilities."*
//!
//! [`SkillGraph::validate`] enforces exactly these structural rules.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Kind of a graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An abstract representation of (part of) the driving task.
    Skill,
    /// An information source (sensor, HMI, communication).
    DataSource,
    /// An actuation target (powertrain, brakes, steering).
    DataSink,
}

/// Errors raised by graph construction or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node name was used twice.
    DuplicateName(String),
    /// An edge references a missing node.
    UnknownNode(String),
    /// A dependency edge would close a cycle.
    CycleDetected(String),
    /// A data source/sink was given a dependency.
    LeafWithDependency(String),
    /// A skill node has no dependencies (paths must end at sources/sinks).
    DanglingSkill(String),
    /// The graph has no unique main skill (root).
    NoUniqueRoot {
        /// Names of parentless skills found.
        roots: Vec<String>,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            GraphError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            GraphError::CycleDetected(n) => {
                write!(f, "adding dependency at `{n}` would create a cycle")
            }
            GraphError::LeafWithDependency(n) => {
                write!(f, "data source/sink `{n}` cannot have dependencies")
            }
            GraphError::DanglingSkill(n) => {
                write!(f, "skill `{n}` has no dependencies")
            }
            GraphError::NoUniqueRoot { roots } => {
                write!(f, "expected exactly one main skill, found {roots:?}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
    children: Vec<NodeId>,
    parents: Vec<NodeId>,
}

/// A skill graph under construction or in use.
#[derive(Debug, Clone, Default)]
pub struct SkillGraph {
    nodes: Vec<Node>,
    by_name: HashMap<String, NodeId>,
}

impl SkillGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SkillGraph::default()
    }

    fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> Result<NodeId, GraphError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        let id = NodeId(self.nodes.len());
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            kind,
            children: Vec::new(),
            parents: Vec::new(),
        });
        Ok(id)
    }

    /// Adds a skill node.
    ///
    /// # Errors
    /// [`GraphError::DuplicateName`].
    pub fn add_skill(&mut self, name: impl Into<String>) -> Result<NodeId, GraphError> {
        self.add_node(name, NodeKind::Skill)
    }

    /// Adds a data source node.
    ///
    /// # Errors
    /// [`GraphError::DuplicateName`].
    pub fn add_source(&mut self, name: impl Into<String>) -> Result<NodeId, GraphError> {
        self.add_node(name, NodeKind::DataSource)
    }

    /// Adds a data sink node.
    ///
    /// # Errors
    /// [`GraphError::DuplicateName`].
    pub fn add_sink(&mut self, name: impl Into<String>) -> Result<NodeId, GraphError> {
        self.add_node(name, NodeKind::DataSink)
    }

    /// Declares that `skill` depends on `dependency`.
    ///
    /// # Errors
    /// [`GraphError::LeafWithDependency`] if `skill` is a source/sink, or
    /// [`GraphError::CycleDetected`] if the edge would close a cycle.
    pub fn depend(&mut self, skill: NodeId, dependency: NodeId) -> Result<(), GraphError> {
        if self.nodes[skill.0].kind != NodeKind::Skill {
            return Err(GraphError::LeafWithDependency(
                self.nodes[skill.0].name.clone(),
            ));
        }
        // Cycle check: `skill` must not be reachable from `dependency`.
        if skill == dependency || self.reachable(dependency, skill) {
            return Err(GraphError::CycleDetected(self.nodes[skill.0].name.clone()));
        }
        self.nodes[skill.0].children.push(dependency);
        self.nodes[dependency.0].parents.push(skill);
        Ok(())
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if std::mem::replace(&mut seen[n.0], true) {
                continue;
            }
            stack.extend(self.nodes[n.0].children.iter().copied());
        }
        false
    }

    /// Looks up a node by name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// The kind of a node.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0].kind
    }

    /// Direct dependencies of a node.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0].children
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Validates the structural rules and returns the main skill (root).
    ///
    /// # Errors
    /// Any [`GraphError`] variant describing the violated rule.
    pub fn validate(&self) -> Result<NodeId, GraphError> {
        // Exactly one parentless skill = the main skill.
        let roots: Vec<NodeId> = self
            .ids()
            .filter(|&id| {
                self.nodes[id.0].kind == NodeKind::Skill && self.nodes[id.0].parents.is_empty()
            })
            .collect();
        if roots.len() != 1 {
            return Err(GraphError::NoUniqueRoot {
                roots: roots.iter().map(|&r| self.name(r).to_string()).collect(),
            });
        }
        // Every skill must depend on something.
        for id in self.ids() {
            let n = &self.nodes[id.0];
            if n.kind == NodeKind::Skill && n.children.is_empty() {
                return Err(GraphError::DanglingSkill(n.name.clone()));
            }
        }
        // Acyclicity is maintained incrementally by `depend`; re-verify via
        // a topological sort for defence in depth.
        self.topological_order()
            .map(|_| roots[0])
            .ok_or_else(|| GraphError::CycleDetected(self.name(roots[0]).to_string()))
    }

    /// Nodes ordered such that every node appears after all its dependents
    /// (root first, leaves last). `None` if a cycle exists.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let mut in_deg: Vec<usize> = self.nodes.iter().map(|n| n.parents.len()).collect();
        let mut queue: Vec<NodeId> = self.ids().filter(|id| in_deg[id.0] == 0).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop() {
            order.push(n);
            for &c in &self.nodes[n.0].children {
                in_deg[c.0] -= 1;
                if in_deg[c.0] == 0 {
                    queue.push(c);
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }

    /// All nodes transitively reachable from `id` (its dependency cone),
    /// excluding `id` itself.
    pub fn dependencies_of(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.nodes[id.0].children.clone();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.0], true) {
                continue;
            }
            out.push(n);
            stack.extend(self.nodes[n.0].children.iter().copied());
        }
        out.sort();
        out
    }

    /// All nodes that transitively depend on `id` (who is affected when `id`
    /// degrades), excluding `id` itself.
    pub fn dependents_of(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.nodes[id.0].parents.clone();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.0], true) {
                continue;
            }
            out.push(n);
            stack.extend(self.nodes[n.0].parents.iter().copied());
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (SkillGraph, NodeId, NodeId, NodeId) {
        let mut g = SkillGraph::new();
        let root = g.add_skill("drive").unwrap();
        let child = g.add_skill("perceive").unwrap();
        let src = g.add_source("radar").unwrap();
        g.depend(root, child).unwrap();
        g.depend(child, src).unwrap();
        (g, root, child, src)
    }

    #[test]
    fn build_and_validate() {
        let (g, root, child, src) = tiny();
        assert_eq!(g.validate().unwrap(), root);
        assert_eq!(g.children(root), &[child]);
        assert_eq!(g.nodes[src.0].parents, [child]);
        assert_eq!(g.node("radar"), Some(src));
        assert_eq!(g.kind(src), NodeKind::DataSource);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = SkillGraph::new();
        g.add_skill("x").unwrap();
        assert_eq!(
            g.add_source("x"),
            Err(GraphError::DuplicateName("x".into()))
        );
    }

    #[test]
    fn cycles_rejected_incrementally() {
        let mut g = SkillGraph::new();
        let a = g.add_skill("a").unwrap();
        let b = g.add_skill("b").unwrap();
        g.depend(a, b).unwrap();
        assert_eq!(g.depend(b, a), Err(GraphError::CycleDetected("b".into())));
        assert_eq!(g.depend(a, a), Err(GraphError::CycleDetected("a".into())));
    }

    #[test]
    fn leaves_cannot_have_dependencies() {
        let mut g = SkillGraph::new();
        let s = g.add_source("radar").unwrap();
        let k = g.add_skill("drive").unwrap();
        assert_eq!(
            g.depend(s, k),
            Err(GraphError::LeafWithDependency("radar".into()))
        );
    }

    #[test]
    fn dangling_skill_fails_validation() {
        let mut g = SkillGraph::new();
        let root = g.add_skill("drive").unwrap();
        let orphan = g.add_skill("orphan").unwrap();
        let src = g.add_source("radar").unwrap();
        g.depend(root, src).unwrap();
        g.depend(root, orphan).unwrap();
        assert_eq!(
            g.validate(),
            Err(GraphError::DanglingSkill("orphan".into()))
        );
    }

    #[test]
    fn two_roots_fail_validation() {
        let mut g = SkillGraph::new();
        let a = g.add_skill("a").unwrap();
        let b = g.add_skill("b").unwrap();
        let s = g.add_source("s").unwrap();
        g.depend(a, s).unwrap();
        g.depend(b, s).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::NoUniqueRoot { .. })));
    }

    #[test]
    fn topological_order_parents_first() {
        let (g, root, child, src) = tiny();
        let order = g.topological_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(root) < pos(child));
        assert!(pos(child) < pos(src));
    }

    #[test]
    fn dependency_cones() {
        let (g, root, child, src) = tiny();
        assert_eq!(g.dependencies_of(root), vec![child, src]);
        assert_eq!(g.dependents_of(src), vec![root, child]);
        assert!(g.dependencies_of(src).is_empty());
    }
}
