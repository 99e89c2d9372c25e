//! E10/A2: cross-layer problem propagation — termination and routing
//! policies (Sec. V).
//!
//! A randomized campaign of problems with layer-dependent containment
//! abilities is pushed through the coordinator. E10 checks the paper's
//! requirement that problems are never *"forwarded ad infinitum"* (every
//! chain is bounded by the layer count) and shows where problems come to
//! rest. A2 compares the local-first escalation policy with a broadcast
//! policy on actions taken and directive conflicts.

use saav_core::coordinator::{Coordinator, EscalationPolicy};
use saav_core::layer::{Containment, Directive, DirectiveBoard, Layer, ProblemKind};
use saav_sim::report::{fmt_f64, Table};
use saav_sim::rng::SimRng;
use saav_sim::time::Time;

const KINDS: [ProblemKind; 7] = [
    ProblemKind::SecurityBreach,
    ProblemKind::ComponentFailure,
    ProblemKind::ThermalStress,
    ProblemKind::TimingViolation,
    ProblemKind::SensorDegradation,
    ProblemKind::CommunicationFault,
    ProblemKind::BehaviorDeviation,
];

/// Probability that `layer` can fully contain `kind` (the campaign's model
/// of per-layer countermeasure coverage).
fn containment_probability(layer: Layer, kind: ProblemKind) -> f64 {
    match (layer, kind) {
        (Layer::Platform, ProblemKind::ThermalStress) => 0.4,
        (Layer::Platform, ProblemKind::ComponentFailure) => 0.3,
        (Layer::Communication, ProblemKind::CommunicationFault) => 0.7,
        (Layer::Communication, ProblemKind::SecurityBreach) => 0.3,
        (Layer::Safety, ProblemKind::ComponentFailure) => 0.7,
        (Layer::Safety, ProblemKind::SecurityBreach) => 0.5,
        (Layer::Ability, ProblemKind::SensorDegradation) => 0.8,
        (Layer::Ability, ProblemKind::BehaviorDeviation) => 0.7,
        (Layer::Ability, ProblemKind::TimingViolation) => 0.5,
        (Layer::Ability, _) => 0.4,
        (Layer::Objective, _) => 1.0, // safe stop always terminates a problem
        _ => 0.1,
    }
}

fn origin_of(kind: ProblemKind) -> Layer {
    match kind {
        ProblemKind::ThermalStress | ProblemKind::TimingViolation => Layer::Platform,
        ProblemKind::CommunicationFault | ProblemKind::SecurityBreach => Layer::Communication,
        ProblemKind::ComponentFailure => Layer::Safety,
        ProblemKind::SensorDegradation
        | ProblemKind::BehaviorDeviation
        | ProblemKind::PeerMisbehavior => Layer::Ability,
    }
}

/// Statistics of one campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Policy used.
    pub policy: EscalationPolicy,
    /// Problems injected.
    pub problems: usize,
    /// Resolution rate.
    pub resolved: f64,
    /// Mean hops per problem.
    pub mean_hops: f64,
    /// Longest chain.
    pub max_hops: usize,
    /// Containment actions executed.
    pub actions: usize,
    /// Directive conflicts arbitrated.
    pub conflicts: u64,
    /// Problems resolved per layer, in `Layer::ALL` order.
    pub per_layer: Vec<usize>,
}

/// Runs a campaign of `n` random problems under the given policy.
pub fn campaign(policy: EscalationPolicy, n: usize, seed: u64) -> Campaign {
    let mut rng = SimRng::seed_from(seed);
    let mut coordinator = Coordinator::new(policy);
    let mut board = DirectiveBoard::new();
    let mut actions = 0usize;
    let mut hops = 0usize;
    for i in 0..n {
        let kind = KINDS[rng.index(KINDS.len())];
        let origin = origin_of(kind);
        let problem = coordinator.detect(
            Time::from_millis(i as u64 * 10),
            origin,
            format!("element{}", rng.index(20)),
            kind,
        );
        let subject = problem.subject.clone();
        let trace = coordinator.resolve(problem, |layer, p| {
            if rng.chance(containment_probability(layer, p.kind)) {
                // Each layer posts its directive; the board arbitrates.
                let directive = match layer {
                    Layer::Safety => Directive::Shutdown,
                    Layer::Ability => Directive::SpeedCap(15.0),
                    Layer::Objective => Directive::SafeStop,
                    _ => Directive::KeepAlive,
                };
                board.post(layer, subject.clone(), directive);
                actions += 1;
                Containment::Resolved {
                    action: format!("{layer} countermeasure").into(),
                }
            } else {
                Containment::CannotHandle
            }
        });
        hops += trace.hops();
    }
    let mean_hops = hops as f64 / n.max(1) as f64;
    let per_layer = coordinator
        .resolution_layers()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    Campaign {
        policy,
        problems: n,
        resolved: coordinator.resolution_rate().unwrap_or(0.0),
        mean_hops,
        max_hops: coordinator.max_hops(),
        actions,
        conflicts: board.conflicts_detected(),
        per_layer,
    }
}

/// E10 as a printable table.
pub fn e10_table() -> Table {
    let c = campaign(EscalationPolicy::LocalFirst, 500, 99);
    let mut t = Table::new(["metric", "value"])
        .with_title("E10: problem propagation (500 random faults, local-first policy)");
    t.row(["problems", &c.problems.to_string()]);
    t.row(["resolved", &fmt_f64(c.resolved * 100.0, 1)]);
    t.row(["mean hops", &fmt_f64(c.mean_hops, 2)]);
    t.row(["max hops (bound = 5 layers)", &c.max_hops.to_string()]);
    for (layer, count) in Layer::ALL.iter().zip(&c.per_layer) {
        t.row([format!("resolved at {layer}"), count.to_string()]);
    }
    t
}

/// Builds the cross-layer dependency model of the reference vehicle (the
/// automated FMEA input of Möstl & Ernst, used by the paper's Sec. V
/// discussion of anticipating change effects).
pub fn reference_dependency_graph() -> saav_mcc::dependency::DependencyGraph {
    use saav_mcc::dependency::{DependencyGraph, LayerTag};
    let mut g = DependencyGraph::new();
    // Function layer.
    let acc_driving = g.add("acc_driving", LayerTag::Function);
    let braking = g.add("braking", LayerTag::Function);
    let perception = g.add("perception", LayerTag::Function);
    // Software layer.
    let acc_sw = g.add("acc_controller", LayerTag::Software);
    let radar_sw = g.add("radar_driver", LayerTag::Software);
    let brake_front_sw = g.add("brake_front", LayerTag::Software);
    let brake_rear_sw = g.add("brake_rear", LayerTag::Software);
    // Platform layer.
    let ecu0 = g.add("ecu0", LayerTag::Platform);
    let ecu1 = g.add("ecu1", LayerTag::Platform);
    let radar_hw = g.add("radar_hw", LayerTag::Platform);
    // Communication layer.
    let can0 = g.add("can0", LayerTag::Communication);
    // Wiring.
    g.depends_on(acc_driving, acc_sw);
    g.depends_on(acc_driving, perception);
    g.depends_on(acc_driving, braking);
    g.depends_on(perception, radar_sw);
    g.depends_on(radar_sw, radar_hw);
    g.depends_on(radar_sw, ecu0);
    g.depends_on(acc_sw, ecu0);
    g.depends_on(acc_sw, can0);
    // Braking survives the loss of either circuit (redundancy group), but
    // both controllers live on ecu1 and talk over can0.
    g.depends_on_any(braking, vec![brake_front_sw, brake_rear_sw]);
    g.depends_on(brake_front_sw, ecu1);
    g.depends_on(brake_rear_sw, ecu1);
    g.depends_on(brake_front_sw, can0);
    g.depends_on(brake_rear_sw, can0);
    g
}

/// E10b: the automated FMEA of the reference vehicle.
pub fn e10b_fmea_table() -> Table {
    let g = reference_dependency_graph();
    let mut t = Table::new(["element", "layer", "functions lost on sole failure"])
        .with_title("E10b: automated cross-layer FMEA of the reference vehicle");
    for (id, affected) in g.fmea() {
        if g.layer(id) == saav_mcc::dependency::LayerTag::Function {
            continue;
        }
        let lost: Vec<&str> = affected.iter().map(|&a| g.name(a)).collect();
        t.row([
            g.name(id).to_string(),
            g.layer(id).to_string(),
            if lost.is_empty() {
                "none (covered by redundancy)".into()
            } else {
                lost.join(", ")
            },
        ]);
    }
    t
}

/// A2: policy ablation.
pub fn a2_table() -> Table {
    let mut t = Table::new([
        "policy",
        "resolved",
        "mean hops",
        "max hops",
        "actions",
        "conflicts",
    ])
    .with_title("A2: escalation policy ablation (500 random faults)");
    for policy in [EscalationPolicy::LocalFirst, EscalationPolicy::BroadcastUp] {
        let c = campaign(policy, 500, 99);
        t.row([
            format!("{policy:?}"),
            format!("{:.1}%", c.resolved * 100.0),
            fmt_f64(c.mean_hops, 2),
            c.max_hops.to_string(),
            c.actions.to_string(),
            c.conflicts.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_is_always_bounded() {
        for policy in [EscalationPolicy::LocalFirst, EscalationPolicy::BroadcastUp] {
            for seed in 0..5 {
                let c = campaign(policy, 200, seed);
                assert!(c.max_hops <= Layer::ALL.len(), "{policy:?} seed {seed}");
            }
        }
    }

    #[test]
    fn local_first_resolves_everything_eventually() {
        // The objective layer is a universal backstop, so the local-first
        // policy resolves every problem.
        let c = campaign(EscalationPolicy::LocalFirst, 500, 1);
        assert!((c.resolved - 1.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_takes_more_actions_and_conflicts() {
        let local = campaign(EscalationPolicy::LocalFirst, 500, 99);
        let broadcast = campaign(EscalationPolicy::BroadcastUp, 500, 99);
        assert!(broadcast.actions >= local.actions);
        assert!(broadcast.conflicts >= local.conflicts);
    }

    #[test]
    fn fmea_identifies_the_expected_single_points_of_failure() {
        let g = reference_dependency_graph();
        let spofs: Vec<String> = g
            .single_points_of_failure()
            .iter()
            .map(|&id| g.name(id).to_string())
            .collect();
        // The shared bus and the radar chain are single points of failure…
        assert!(spofs.contains(&"can0".to_string()));
        assert!(spofs.contains(&"radar_hw".to_string()));
        assert!(spofs.contains(&"ecu0".to_string()));
        // …but a single brake controller is not (redundant pair).
        assert!(!spofs.contains(&"brake_front".to_string()));
        assert!(!spofs.contains(&"brake_rear".to_string()));
    }

    #[test]
    fn fmea_rear_brake_loss_is_absorbed_single_layer() {
        use saav_mcc::dependency::LayerTag;
        let g = reference_dependency_graph();
        let rear = g.element("brake_rear").unwrap();
        // The safety layer's redundancy absorbs the loss: containment stays
        // at the software layer, exactly the paper's "anticipated as part of
        // the safety design" path.
        assert_eq!(g.containment_layer(rear), LayerTag::Software);
        let ecu1 = g.element("ecu1").unwrap();
        assert_eq!(g.containment_layer(ecu1), LayerTag::Function);
    }

    #[test]
    fn sensor_problems_mostly_resolve_at_ability_layer() {
        let c = campaign(EscalationPolicy::LocalFirst, 1_000, 3);
        let ability_idx = Layer::ALL
            .iter()
            .position(|&l| l == Layer::Ability)
            .unwrap();
        let platform_idx = Layer::ALL
            .iter()
            .position(|&l| l == Layer::Platform)
            .unwrap();
        assert!(c.per_layer[ability_idx] > c.per_layer[platform_idx]);
    }
}
