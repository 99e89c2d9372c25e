//! Quickstart: the smallest end-to-end tour of the SAAV stack.
//!
//! Builds the paper's ACC skill graph, degrades a sensor, watches the
//! ability level propagate, lets the decision policy pick a driving mode,
//! and runs one full self-aware scenario.
//!
//! Run with: `cargo run --example quickstart`

use saav::core::{runner, ResponseStrategy, Scenario};
use saav::skills::ability::{AbilityGraph, AggregateOp, Thresholds};
use saav::skills::acc::build_acc_graph;
use saav::skills::decision::ModePolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The ACC skill graph from Sec. IV of the paper.
    let (graph, nodes) = build_acc_graph()?;
    println!(
        "ACC skill graph: {} nodes, root = `{}`",
        graph.len(),
        graph.name(graph.validate()?)
    );

    // 2. Instantiate it as an ability graph and degrade the radar.
    let mut abilities = AbilityGraph::instantiate(graph, AggregateOp::Min, Thresholds::default())?;
    abilities.set_measured(nodes.env_sensors, 0.55); // fog!
    let changes = abilities.propagate();
    println!("\nfog degrades the radar to 0.55:");
    for c in &changes {
        println!("  {} -> {:?} (level {:.2})", c.name, c.to, c.level);
    }

    // 3. The decision policy maps the root ability to a driving mode.
    let mut policy = ModePolicy::with_defaults();
    let mode = policy.update(abilities.root_level());
    println!(
        "\nroot ability {:.2} => mode: {mode}",
        abilities.root_level()
    );

    // 4. A full closed-loop scenario: the paper's rear-brake intrusion with
    //    cross-layer response.
    println!("\nrunning the intrusion scenario (cross-layer response)...");
    let outcome = runner::run(Scenario::intrusion(ResponseStrategy::CrossLayer, 42));
    println!("  first detection : {:?}", outcome.first_detection);
    println!("  actions taken   : {:?}", outcome.actions);
    println!("  distance driven : {:.0} m", outcome.distance_m);
    println!("  final mode      : {}", outcome.final_mode);
    println!("  collision       : {}", outcome.collision);
    Ok(())
}
