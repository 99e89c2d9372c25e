//! Cross-layer dependency analysis (automated FMEA).
//!
//! Sec. V: *"In traditional design, such dependencies are identified with
//! semiformal methods, such as a Failure Mode and Effects Analysis (FMEA).
//! In CCC, such dependency analysis is automated to derive cross-layer
//! dependency models describing the effect of change and actions on the
//! overall system"* (Möstl & Ernst \[23\], \[24\]).
//!
//! The model is a typed directed graph of elements across layers (function,
//! software component, service, processing element, network, frame …) with
//! *depends-on* edges and **redundancy groups**: an element with a
//! redundancy group fails only when *all* members of the group have failed.
//! [`DependencyGraph::affected_by`] computes transitive failure propagation;
//! [`DependencyGraph::fmea`] tabulates single-point failures.

use std::collections::HashMap;
use std::fmt;

/// The architectural layer an element belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerTag {
    /// Driving function / ability.
    Function,
    /// Software component.
    Software,
    /// Platform hardware (PE, memory).
    Platform,
    /// Communication (bus, controller).
    Communication,
}

impl fmt::Display for LayerTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerTag::Function => "function",
            LayerTag::Software => "software",
            LayerTag::Platform => "platform",
            LayerTag::Communication => "communication",
        };
        f.write_str(s)
    }
}

/// Identifier of an element in a [`DependencyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub usize);

#[derive(Debug, Clone)]
struct Element {
    name: String,
    layer: LayerTag,
    /// Elements this one depends on. Plain entries are single points of
    /// failure; grouped entries are redundant alternatives.
    depends: Vec<ElementId>,
    /// Redundancy groups: each group is a set of alternatives of which at
    /// least one must survive.
    redundancy: Vec<Vec<ElementId>>,
}

/// The cross-layer dependency model.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    elements: Vec<Element>,
    by_name: HashMap<String, ElementId>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    /// Adds an element.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn add(&mut self, name: impl Into<String>, layer: LayerTag) -> ElementId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate element `{name}`"
        );
        let id = ElementId(self.elements.len());
        self.by_name.insert(name.clone(), id);
        self.elements.push(Element {
            name,
            layer,
            depends: Vec::new(),
            redundancy: Vec::new(),
        });
        id
    }

    /// Declares a hard (single-point) dependency.
    pub fn depends_on(&mut self, element: ElementId, on: ElementId) {
        self.elements[element.0].depends.push(on);
    }

    /// Declares a redundancy group: `element` needs at least one of
    /// `alternatives` to survive.
    ///
    /// # Panics
    /// Panics on an empty group.
    pub fn depends_on_any(&mut self, element: ElementId, alternatives: Vec<ElementId>) {
        assert!(!alternatives.is_empty(), "empty redundancy group");
        self.elements[element.0].redundancy.push(alternatives);
    }

    /// Element lookup by name.
    pub fn element(&self, name: &str) -> Option<ElementId> {
        self.by_name.get(name).copied()
    }

    /// Name of an element.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn name(&self, id: ElementId) -> &str {
        &self.elements[id.0].name
    }

    /// Layer of an element.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn layer(&self, id: ElementId) -> LayerTag {
        self.elements[id.0].layer
    }

    /// Computes the set of elements that fail (transitively) when `failed`
    /// fail, honoring redundancy groups. The result includes the initially
    /// failed elements and is sorted.
    pub fn affected_by(&self, failed: &[ElementId]) -> Vec<ElementId> {
        let mut down = vec![false; self.elements.len()];
        for &f in failed {
            down[f.0] = true;
        }
        // Fixpoint: an element fails if any hard dependency failed, or all
        // members of any redundancy group failed.
        loop {
            let mut changed = false;
            for (i, el) in self.elements.iter().enumerate() {
                if down[i] {
                    continue;
                }
                let hard_hit = el.depends.iter().any(|d| down[d.0]);
                let group_hit = el
                    .redundancy
                    .iter()
                    .any(|group| group.iter().all(|d| down[d.0]));
                if hard_hit || group_hit {
                    down[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut out: Vec<ElementId> = down
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| ElementId(i))
            .collect();
        out.sort();
        out
    }

    /// Single-point FMEA: for each element, the function-layer elements its
    /// sole failure would take down.
    pub fn fmea(&self) -> Vec<(ElementId, Vec<ElementId>)> {
        (0..self.elements.len())
            .map(|i| {
                let id = ElementId(i);
                let affected: Vec<ElementId> = self
                    .affected_by(&[id])
                    .into_iter()
                    .filter(|&a| a != id && self.layer(a) == LayerTag::Function)
                    .collect();
                (id, affected)
            })
            .collect()
    }

    /// Elements whose single failure takes down at least one function:
    /// the critical items list of the FMEA.
    pub fn single_points_of_failure(&self) -> Vec<ElementId> {
        self.fmea()
            .into_iter()
            .filter(|(id, affected)| !affected.is_empty() && self.layer(*id) != LayerTag::Function)
            .map(|(id, _)| id)
            .collect()
    }

    /// The lowest layer at which a failure of `failed` can be contained:
    /// the layer of the failed element itself if some redundancy absorbs it
    /// (no function affected), otherwise [`LayerTag::Function`].
    pub fn containment_layer(&self, failed: ElementId) -> LayerTag {
        let affected = self.affected_by(&[failed]);
        let any_function = affected
            .iter()
            .any(|&a| a != failed && self.layer(a) == LayerTag::Function);
        if any_function {
            LayerTag::Function
        } else {
            self.layer(failed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// brake function depends on brake_sw on ecu0; redundant radar pair.
    fn sample() -> (DependencyGraph, HashMap<&'static str, ElementId>) {
        let mut g = DependencyGraph::new();
        let mut ids = HashMap::new();
        ids.insert("braking", g.add("braking", LayerTag::Function));
        ids.insert("perception", g.add("perception", LayerTag::Function));
        ids.insert("brake_sw", g.add("brake_sw", LayerTag::Software));
        ids.insert("radar_a", g.add("radar_a", LayerTag::Platform));
        ids.insert("radar_b", g.add("radar_b", LayerTag::Platform));
        ids.insert("ecu0", g.add("ecu0", LayerTag::Platform));
        ids.insert("can0", g.add("can0", LayerTag::Communication));
        g.depends_on(ids["braking"], ids["brake_sw"]);
        g.depends_on(ids["brake_sw"], ids["ecu0"]);
        g.depends_on(ids["brake_sw"], ids["can0"]);
        g.depends_on_any(ids["perception"], vec![ids["radar_a"], ids["radar_b"]]);
        (g, ids)
    }

    #[test]
    fn hard_dependency_propagates_across_layers() {
        let (g, ids) = sample();
        let affected = g.affected_by(&[ids["ecu0"]]);
        assert!(affected.contains(&ids["brake_sw"]));
        assert!(affected.contains(&ids["braking"]));
        assert!(!affected.contains(&ids["perception"]));
    }

    #[test]
    fn redundancy_absorbs_single_failure() {
        let (g, ids) = sample();
        let affected = g.affected_by(&[ids["radar_a"]]);
        assert!(!affected.contains(&ids["perception"]), "redundant pair");
        // Both radars down: perception fails.
        let affected = g.affected_by(&[ids["radar_a"], ids["radar_b"]]);
        assert!(affected.contains(&ids["perception"]));
    }

    #[test]
    fn fmea_lists_single_points_of_failure() {
        let (g, ids) = sample();
        let spofs = g.single_points_of_failure();
        assert!(spofs.contains(&ids["ecu0"]));
        assert!(spofs.contains(&ids["can0"]));
        assert!(spofs.contains(&ids["brake_sw"]));
        assert!(!spofs.contains(&ids["radar_a"]), "covered by redundancy");
    }

    #[test]
    fn containment_layer_reflects_redundancy() {
        let (g, ids) = sample();
        // Radar A fails: contained at the platform layer (redundancy).
        assert_eq!(g.containment_layer(ids["radar_a"]), LayerTag::Platform);
        // ECU fails: reaches the function layer.
        assert_eq!(g.containment_layer(ids["ecu0"]), LayerTag::Function);
    }

    #[test]
    fn lookup_helpers() {
        let (g, ids) = sample();
        assert_eq!(g.element("braking"), Some(ids["braking"]));
        assert_eq!(g.name(ids["can0"]), "can0");
        assert_eq!(g.layer(ids["can0"]), LayerTag::Communication);
        assert_eq!(g.elements.len(), 7);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        let mut g = DependencyGraph::new();
        g.add("x", LayerTag::Function);
        g.add("x", LayerTag::Platform);
    }
}
