//! # saav-skills — skill and ability graphs for functional self-awareness
//!
//! The functional-level self-awareness of Sec. IV of Schlatow et al.
//! (DATE 2017), following the skill/ability-graph concept of Reschka et
//! al. \[22\]:
//!
//! * [`graph`] — skill graphs: DAGs of skills, data sources and data sinks
//!   with structural validation (unique main skill, paths end at
//!   sources/sinks, acyclicity) and dependency cones.
//! * [`acc`] — the paper's worked example: the Adaptive Cruise Control
//!   skill graph, encoded edge-by-edge from the text.
//! * [`ability`] — ability graphs: instantiated skill graphs carrying
//!   run-time performance levels with leaf-to-root propagation and three
//!   aggregation operators (ablation A1).
//! * [`decision`] — hysteretic mapping from the root ability level to a
//!   driving mode (normal / reduced / safe stop).
//!
//! ```
//! use saav_skills::ability::{AbilityGraph, AggregateOp, Thresholds};
//! use saav_skills::acc::build_acc_graph;
//!
//! # fn main() -> Result<(), saav_skills::graph::GraphError> {
//! let (graph, nodes) = build_acc_graph()?;
//! let mut abilities = AbilityGraph::instantiate(graph, AggregateOp::Min,
//!                                               Thresholds::default())?;
//! abilities.set_measured(nodes.env_sensors, 0.5); // fog degrades the radar
//! abilities.propagate();
//! assert_eq!(abilities.level(nodes.acc_driving), 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ability;
pub mod acc;
pub mod decision;
pub mod graph;

pub use ability::{AbilityGraph, AbilityStatus, AggregateOp, StatusChange, Thresholds};
pub use acc::{build_acc_graph, AccNodes};
pub use decision::{DrivingMode, ModePolicy};
pub use graph::{GraphError, NodeId, NodeKind, SkillGraph};
