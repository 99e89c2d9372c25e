//! Risk-aware route planning under weather uncertainty.
//!
//! Sec. V: *"if the system was aware that its systems may degrade on a
//! certain route due to possible weather influences, it could plan
//! alternative routes … whether it plans a (possibly shorter) route across
//! an alpine pass in winter or whether it is advantageous to take a longer
//! detour without risking degraded performance."*
//!
//! Edges carry a base travel time, a *weather exposure* and a forecast
//! probability of bad weather. The risk-aware cost is the expected travel
//! time plus a risk penalty for potential degradation; a naive planner sees
//! only base times. Shortest paths via Dijkstra.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Node index in a road graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoadNode(pub usize);

/// A directed road segment.
#[derive(Debug, Clone)]
pub struct RoadEdge {
    /// Source node.
    pub from: RoadNode,
    /// Destination node.
    pub to: RoadNode,
    /// Travel time in good conditions (minutes).
    pub base_min: f64,
    /// How strongly bad weather degrades this segment (`[0, 1]`).
    pub exposure: f64,
    /// Forecast probability of bad weather on this segment (`[0, 1]`).
    pub p_bad: f64,
}

/// Planner cost model.
#[derive(Debug, Clone, Copy)]
pub enum CostModel {
    /// Ignore weather: cost = base time (the baseline planner).
    Naive,
    /// Expected time plus risk penalty:
    /// `base·(1 + exposure·p_bad·slowdown) + λ·exposure·p_bad·base`.
    RiskAware {
        /// Relative slowdown when caught in bad weather (e.g. 1.0 =
        /// doubled travel time).
        slowdown: f64,
        /// Risk aversion weight λ for the degradation penalty.
        risk_weight: f64,
    },
}

impl CostModel {
    fn edge_cost(&self, e: &RoadEdge) -> f64 {
        match *self {
            CostModel::Naive => e.base_min,
            CostModel::RiskAware {
                slowdown,
                risk_weight,
            } => {
                let expected = e.base_min * (1.0 + e.exposure * e.p_bad * slowdown);
                let penalty = risk_weight * e.exposure * e.p_bad * e.base_min;
                expected + penalty
            }
        }
    }
}

/// A road network.
#[derive(Debug, Clone, Default)]
pub struct RoadGraph {
    node_count: usize,
    edges: Vec<RoadEdge>,
}

/// A planned route.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Node sequence from start to goal.
    pub nodes: Vec<RoadNode>,
    /// Total cost under the planner's model.
    pub cost: f64,
}

impl RoadGraph {
    /// Creates a graph with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        RoadGraph {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Adds a bidirectional road segment.
    ///
    /// # Panics
    /// Panics if a node is out of range or parameters are out of bounds.
    pub fn add_road(&mut self, a: RoadNode, b: RoadNode, base_min: f64, exposure: f64, p_bad: f64) {
        assert!(a.0 < self.node_count && b.0 < self.node_count);
        assert!(base_min > 0.0);
        assert!((0.0..=1.0).contains(&exposure) && (0.0..=1.0).contains(&p_bad));
        self.edges.push(RoadEdge {
            from: a,
            to: b,
            base_min,
            exposure,
            p_bad,
        });
        self.edges.push(RoadEdge {
            from: b,
            to: a,
            base_min,
            exposure,
            p_bad,
        });
    }

    /// Shortest path from `start` to `goal` under the cost model, or `None`
    /// when unreachable.
    pub fn plan(&self, start: RoadNode, goal: RoadNode, model: CostModel) -> Option<Route> {
        const SCALE: f64 = 1e6; // fixed-point keys for the binary heap
        let mut dist = vec![f64::INFINITY; self.node_count];
        let mut prev: Vec<Option<usize>> = vec![None; self.node_count];
        let mut heap = BinaryHeap::new();
        dist[start.0] = 0.0;
        heap.push(Reverse((0u64, start.0)));
        while let Some(Reverse((d_key, u))) = heap.pop() {
            let d = d_key as f64 / SCALE;
            if d > dist[u] + 1e-12 {
                continue;
            }
            if u == goal.0 {
                break;
            }
            for e in self.edges.iter().filter(|e| e.from.0 == u) {
                let nd = dist[u] + model.edge_cost(e);
                if nd + 1e-12 < dist[e.to.0] {
                    dist[e.to.0] = nd;
                    prev[e.to.0] = Some(u);
                    heap.push(Reverse(((nd * SCALE) as u64, e.to.0)));
                }
            }
        }
        if dist[goal.0].is_infinite() {
            return None;
        }
        let mut nodes = vec![goal];
        let mut cur = goal.0;
        while let Some(p) = prev[cur] {
            nodes.push(RoadNode(p));
            cur = p;
        }
        nodes.reverse();
        Some(Route {
            nodes,
            cost: dist[goal.0],
        })
    }

    /// True travel time of a route if the weather realizes as `bad` on every
    /// segment (for evaluating a plan after the fact).
    pub fn realized_time(&self, route: &Route, bad_weather: bool, slowdown: f64) -> f64 {
        route
            .nodes
            .windows(2)
            .map(|w| {
                let e = self
                    .edges
                    .iter()
                    .find(|e| e.from == w[0] && e.to == w[1])
                    .expect("route uses existing edges");
                if bad_weather {
                    e.base_min * (1.0 + e.exposure * slowdown)
                } else {
                    e.base_min
                }
            })
            .sum()
    }
}

/// The paper's alpine scenario: start → goal via a short exposed mountain
/// pass (node 1) or a long sheltered valley detour (node 2).
pub fn alpine_scenario(p_bad_pass: f64) -> (RoadGraph, RoadNode, RoadNode) {
    let mut g = RoadGraph::new(4);
    let start = RoadNode(0);
    let pass = RoadNode(1);
    let valley = RoadNode(2);
    let goal = RoadNode(3);
    // Pass: 60 min total, heavily weather-exposed.
    g.add_road(start, pass, 30.0, 0.9, p_bad_pass);
    g.add_road(pass, goal, 30.0, 0.9, p_bad_pass);
    // Detour: 100 min total, sheltered.
    g.add_road(start, valley, 50.0, 0.1, 0.1);
    g.add_road(valley, goal, 50.0, 0.1, 0.1);
    (g, start, goal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn risk() -> CostModel {
        CostModel::RiskAware {
            slowdown: 1.0,
            risk_weight: 1.0,
        }
    }

    #[test]
    fn naive_always_takes_the_pass() {
        for p in [0.0, 0.5, 1.0] {
            let (g, s, t) = alpine_scenario(p);
            let route = g.plan(s, t, CostModel::Naive).unwrap();
            assert!(route.nodes.contains(&RoadNode(1)), "p={p}");
            assert!((route.cost - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    fn risk_aware_flips_to_detour_when_forecast_is_bad() {
        // Clear forecast: pass.
        let (g, s, t) = alpine_scenario(0.05);
        let route = g.plan(s, t, risk()).unwrap();
        assert!(route.nodes.contains(&RoadNode(1)));
        // Bad forecast: detour.
        let (g, s, t) = alpine_scenario(0.8);
        let route = g.plan(s, t, risk()).unwrap();
        assert!(route.nodes.contains(&RoadNode(2)), "{route:?}");
    }

    #[test]
    fn flip_threshold_is_where_expected_costs_cross() {
        // Pass cost: 60(1 + 0.9p·1) + 1·0.9p·60 = 60 + 108p.
        // Detour cost: 100(1+0.1·0.1) + 0.1·0.1·100 = 102.
        // Crossover at p = 42/108 ≈ 0.389.
        let below = alpine_scenario(0.35);
        let above = alpine_scenario(0.43);
        let r1 = below.0.plan(below.1, below.2, risk()).unwrap();
        let r2 = above.0.plan(above.1, above.2, risk()).unwrap();
        assert!(r1.nodes.contains(&RoadNode(1)), "still pass at 0.35");
        assert!(r2.nodes.contains(&RoadNode(2)), "detour at 0.43");
    }

    #[test]
    fn realized_time_rewards_risk_awareness_in_storms() {
        let (g, s, t) = alpine_scenario(0.8);
        let naive = g.plan(s, t, CostModel::Naive).unwrap();
        let smart = g.plan(s, t, risk()).unwrap();
        // Storm hits: naive (pass) route degrades badly.
        let naive_time = g.realized_time(&naive, true, 1.0);
        let smart_time = g.realized_time(&smart, true, 1.0);
        assert!(naive_time > 110.0, "{naive_time}");
        assert!(smart_time < naive_time, "{smart_time} vs {naive_time}");
    }

    #[test]
    fn unreachable_goal_yields_none() {
        let g = RoadGraph::new(2);
        assert!(g.plan(RoadNode(0), RoadNode(1), CostModel::Naive).is_none());
    }
}
