//! The Multi-Change Controller's integration process.
//!
//! Sec. II-A: the MCC *"performs the integration process and ensures that a
//! new configuration passes all necessary acceptance and conformance
//! tests"*, gradually refining the model of the new configuration. Here the
//! refinement is: (1) contract admission, (2) mapping the new components to
//! the platform (first-fit by memory and utilization headroom), (3) frame
//! mapping, (4) the viewpoint battery as acceptance tests. Accepted
//! configurations are versioned; [`Mcc::rollback`] restores the previous
//! one (the self-protection path for updates that misbehave in the field
//! despite passing analysis).

use std::fmt;

use crate::contract::Contract;
use crate::model::{CandidateConfig, PlatformModel};
use crate::viewpoints::{default_viewpoints, Verdict, Viewpoint};

/// A requested change to the running system.
#[derive(Debug, Clone, Default)]
pub struct UpdateRequest {
    /// Human-readable label for reports.
    pub label: String,
    /// Components to add.
    pub add: Vec<Contract>,
    /// Component names to remove.
    pub remove: Vec<String>,
}

/// Result of one integration attempt.
#[derive(Debug, Clone)]
pub struct IntegrationReport {
    /// The request label.
    pub label: String,
    /// Whether the update was accepted and committed.
    pub accepted: bool,
    /// Refinement log (admission, mapping decisions).
    pub log: Vec<String>,
    /// Per-viewpoint verdicts (empty if refinement already failed).
    pub verdicts: Vec<Verdict>,
}

impl IntegrationReport {
    /// Names of viewpoints that rejected the update.
    pub fn rejecting_viewpoints(&self) -> Vec<&'static str> {
        self.verdicts
            .iter()
            .filter(|v| !v.passed)
            .map(|v| v.viewpoint)
            .collect()
    }
}

impl fmt::Display for IntegrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "update `{}`: {}",
            self.label,
            if self.accepted {
                "ACCEPTED"
            } else {
                "REJECTED"
            }
        )?;
        for v in &self.verdicts {
            writeln!(
                f,
                "  [{}] {}",
                if v.passed { "pass" } else { "FAIL" },
                v.viewpoint
            )?;
            for finding in &v.findings {
                writeln!(f, "    - {finding}")?;
            }
        }
        Ok(())
    }
}

/// Errors of the integration process itself (before acceptance testing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrationError {
    /// A component to add already exists.
    DuplicateComponent(String),
    /// A component to remove does not exist.
    UnknownComponent(String),
    /// No PE can host the component within its resource bounds.
    NoFeasibleMapping(String),
    /// Nothing to roll back to.
    NoHistory,
}

impl fmt::Display for IntegrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrationError::DuplicateComponent(n) => {
                write!(f, "component `{n}` already integrated")
            }
            IntegrationError::UnknownComponent(n) => write!(f, "unknown component `{n}`"),
            IntegrationError::NoFeasibleMapping(n) => {
                write!(f, "no feasible mapping for `{n}`")
            }
            IntegrationError::NoHistory => write!(f, "no previous configuration"),
        }
    }
}

impl std::error::Error for IntegrationError {}

/// The Multi-Change Controller.
pub struct Mcc {
    platform: PlatformModel,
    current: CandidateConfig,
    history: Vec<CandidateConfig>,
    viewpoints: Vec<Box<dyn Viewpoint>>,
}

impl fmt::Debug for Mcc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mcc")
            .field("components", &self.current.components.len())
            .field("history_depth", &self.history.len())
            .field("viewpoints", &self.viewpoints.len())
            .finish()
    }
}

impl Mcc {
    /// Creates an MCC over a platform with the default viewpoint battery.
    pub fn new(platform: PlatformModel) -> Self {
        Mcc {
            platform,
            current: CandidateConfig::default(),
            history: Vec::new(),
            viewpoints: default_viewpoints(),
        }
    }

    /// The currently accepted configuration.
    pub fn current(&self) -> &CandidateConfig {
        &self.current
    }

    /// Installs a pre-certified baseline configuration without running the
    /// viewpoint battery and clears the version history — the live engine
    /// mounts the assembly-time configuration this way, so every later
    /// [`Mcc::rollback`] bottoms out at the baseline, never at an empty
    /// system. The caller vouches for the baseline (the engine's is
    /// battery-checked in its own tests).
    pub fn install_baseline(&mut self, config: CandidateConfig) {
        self.current = config;
        self.history.clear();
    }

    /// First-fit mapping of a component: the first PE with enough memory
    /// and utilization headroom.
    fn map_component(
        &self,
        candidate: &CandidateConfig,
        contract: &Contract,
    ) -> Option<(usize, String)> {
        let util: f64 = contract
            .tasks
            .iter()
            .map(|t| t.wcet.as_secs_f64() / t.period.as_secs_f64())
            .sum();
        for (idx, pe) in self.platform.pes.iter().enumerate() {
            let mem_ok = candidate.pe_memory_kib(idx) + contract.memory_kib <= pe.memory_kib;
            let util_ok = candidate.pe_utilization(idx) + util <= pe.max_utilization;
            if mem_ok && util_ok {
                return Some((idx, pe.name.clone()));
            }
        }
        None
    }

    /// Runs the integration process for an update request. On acceptance the
    /// new configuration is committed; on rejection the current one is kept.
    ///
    /// # Errors
    /// [`IntegrationError`] when refinement fails before acceptance testing
    /// (duplicate/unknown components, no feasible mapping). Viewpoint
    /// rejections are *not* errors; they produce a report with
    /// `accepted == false`.
    pub fn propose_update(
        &mut self,
        request: UpdateRequest,
    ) -> Result<IntegrationReport, IntegrationError> {
        let mut log = Vec::new();
        // Step 1: admission.
        for c in &request.add {
            if self.current.component(&c.name).is_some() {
                return Err(IntegrationError::DuplicateComponent(c.name.clone()));
            }
        }
        for name in &request.remove {
            if self.current.component(name).is_none() {
                return Err(IntegrationError::UnknownComponent(name.clone()));
            }
        }
        // Step 2: build the candidate = current − removed + added.
        let mut candidate = self.current.clone();
        for name in &request.remove {
            candidate.components.retain(|c| &c.name != name);
            candidate.mapping.remove(name);
            candidate
                .frame_mapping
                .retain(|k, _| !k.starts_with(&format!("{name}.")));
            log.push(format!("removed `{name}`"));
        }
        // Step 3: map new components (functional → technical architecture).
        for contract in &request.add {
            let (pe_idx, pe_name) = self
                .map_component(&candidate, contract)
                .ok_or_else(|| IntegrationError::NoFeasibleMapping(contract.name.clone()))?;
            log.push(format!("mapped `{}` onto {}", contract.name, pe_name));
            candidate.mapping.insert(contract.name.clone(), pe_idx);
            for f in &contract.frames {
                // Single-network reference platform: everything on net 0.
                candidate
                    .frame_mapping
                    .insert(format!("{}.{}", contract.name, f.name), 0);
            }
            candidate.components.push(contract.clone());
        }
        // Step 4: acceptance tests.
        let verdicts: Vec<Verdict> = self
            .viewpoints
            .iter()
            .map(|v| v.check(&candidate, &self.platform))
            .collect();
        let accepted = verdicts.iter().all(|v| v.passed);
        if accepted {
            self.history
                .push(std::mem::replace(&mut self.current, candidate));
            log.push("configuration committed".into());
        } else {
            log.push("configuration discarded".into());
        }
        Ok(IntegrationReport {
            label: request.label,
            accepted,
            log,
            verdicts,
        })
    }

    /// Restores the previously accepted configuration.
    ///
    /// # Errors
    /// [`IntegrationError::NoHistory`] when nothing was committed before.
    pub fn rollback(&mut self) -> Result<(), IntegrationError> {
        let previous = self.history.pop().ok_or(IntegrationError::NoHistory)?;
        self.current = previous;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::parse_contracts;

    fn mcc() -> Mcc {
        Mcc::new(PlatformModel::reference())
    }

    fn contracts(src: &str) -> Vec<Contract> {
        parse_contracts(src).unwrap()
    }

    #[test]
    fn accepts_wellformed_update() {
        let mut m = mcc();
        let report = m
            .propose_update(UpdateRequest {
                label: "base".into(),
                add: contracts(
                    "component radar {\n asil B\n provides sensor.radar\n \
                     task drv { period 10ms wcet 1ms priority 1 }\n}\n\
                     component acc {\n asil B\n requires sensor.radar\n \
                     task ctl { period 20ms wcet 4ms priority 3 }\n}",
                ),
                remove: vec![],
            })
            .unwrap();
        assert!(report.accepted, "{report}");
        assert_eq!(m.current().components.len(), 2);
        assert!(m.current().mapping.contains_key("acc"));
    }

    #[test]
    fn rejects_timing_violation_and_keeps_old_config() {
        let mut m = mcc();
        m.propose_update(UpdateRequest {
            label: "base".into(),
            add: contracts("component a {\n task t { period 10ms wcet 3ms priority 1 }\n}"),
            remove: vec![],
        })
        .unwrap();
        // A low-priority task whose deadline cannot hold next to `a`.
        let report = m
            .propose_update(UpdateRequest {
                label: "bad-timing".into(),
                add: contracts(
                    "component b {\n task t { period 10ms wcet 4ms deadline 4ms priority 5 }\n}",
                ),
                remove: vec![],
            })
            .unwrap();
        assert!(!report.accepted);
        assert_eq!(report.rejecting_viewpoints(), vec!["timing"]);
        assert_eq!(m.current().components.len(), 1, "old config kept");
    }

    #[test]
    fn rejects_safety_violation() {
        let mut m = mcc();
        let report = m
            .propose_update(UpdateRequest {
                label: "unsafe".into(),
                add: contracts(
                    "component cheap_brake {\n asil A\n provides actuator.brake\n}\n\
                     component pilot {\n asil D\n requires actuator.brake\n}",
                ),
                remove: vec![],
            })
            .unwrap();
        assert!(!report.accepted);
        assert!(report.rejecting_viewpoints().contains(&"safety"));
    }

    #[test]
    fn rejects_security_violation() {
        let mut m = mcc();
        let report = m
            .propose_update(UpdateRequest {
                label: "evil-app".into(),
                add: contracts(
                    "component brake {\n provides actuator.brake critical\n}\n\
                     component app {\n domain untrusted\n requires actuator.brake\n}",
                ),
                remove: vec![],
            })
            .unwrap();
        assert!(!report.accepted);
        assert!(report.rejecting_viewpoints().contains(&"security"));
    }

    #[test]
    fn refinement_errors_are_hard_errors() {
        let mut m = mcc();
        m.propose_update(UpdateRequest {
            label: "base".into(),
            add: contracts("component a {\n}"),
            remove: vec![],
        })
        .unwrap();
        let dup = m.propose_update(UpdateRequest {
            label: "dup".into(),
            add: contracts("component a {\n}"),
            remove: vec![],
        });
        assert_eq!(
            dup.unwrap_err(),
            IntegrationError::DuplicateComponent("a".into())
        );
        let ghost = m.propose_update(UpdateRequest {
            label: "ghost".into(),
            add: vec![],
            remove: vec!["ghost".into()],
        });
        assert_eq!(
            ghost.unwrap_err(),
            IntegrationError::UnknownComponent("ghost".into())
        );
    }

    #[test]
    fn mapping_spills_to_second_pe() {
        let mut m = mcc();
        // Each component uses 60% of a PE: two must land on different PEs.
        let report = m
            .propose_update(UpdateRequest {
                label: "two-heavies".into(),
                add: contracts(
                    "component h1 {\n task t { period 10ms wcet 6ms priority 1 }\n}\n\
                     component h2 {\n task t { period 10ms wcet 6ms priority 1 }\n}",
                ),
                remove: vec![],
            })
            .unwrap();
        assert!(report.accepted, "{report}");
        let mapping = &m.current().mapping;
        assert_ne!(mapping["h1"], mapping["h2"]);
    }

    #[test]
    fn infeasible_mapping_is_reported() {
        let mut m = mcc();
        let err = m.propose_update(UpdateRequest {
            label: "impossible".into(),
            add: contracts("component x {\n memory 99999\n}"),
            remove: vec![],
        });
        assert_eq!(
            err.unwrap_err(),
            IntegrationError::NoFeasibleMapping("x".into())
        );
    }

    #[test]
    fn rollback_restores_previous_config() {
        let mut m = mcc();
        m.propose_update(UpdateRequest {
            label: "v1".into(),
            add: contracts("component a {\n}"),
            remove: vec![],
        })
        .unwrap();
        m.propose_update(UpdateRequest {
            label: "v2".into(),
            add: contracts("component b {\n}"),
            remove: vec![],
        })
        .unwrap();
        assert_eq!(m.current().components.len(), 2);
        m.rollback().unwrap();
        assert_eq!(m.current().components.len(), 1);
        m.rollback().unwrap();
        assert_eq!(m.current().components.len(), 0);
        assert_eq!(m.rollback(), Err(IntegrationError::NoHistory));
    }

    #[test]
    fn rollback_on_empty_history_is_an_error_and_keeps_current() {
        let mut m = mcc();
        assert_eq!(m.rollback(), Err(IntegrationError::NoHistory));
        assert!(m.current().components.is_empty());
        // A baseline installation also offers nothing to roll back to.
        let mut with_base = mcc();
        with_base
            .propose_update(UpdateRequest {
                label: "v1".into(),
                add: contracts("component a {\n}"),
                remove: vec![],
            })
            .unwrap();
        let base = with_base.current().clone();
        let mut m = mcc();
        m.install_baseline(base);
        assert_eq!(m.rollback(), Err(IntegrationError::NoHistory));
        assert!(m.current().component("a").is_some(), "baseline survives");
    }

    #[test]
    fn rejecting_viewpoints_order_is_battery_order() {
        // First-fit mapping enforces the resource bounds itself, so a
        // configuration violating *every* viewpoint can only arrive as an
        // installed baseline (e.g. drifted hardware after an in-field
        // change). It violates resources (memory), timing (overload),
        // safety (ASIL-D requirement on an ASIL-A provider) and security
        // (untrusted influence on a critical service) at once.
        let broken = contracts(
            "component big {\n memory 5000\n task t { period 10ms wcet 6ms priority 1 }\n}\n\
             component late {\n asil A\n provides actuator.brake critical\n \
             task t { period 10ms wcet 6ms deadline 1ms priority 5 }\n}\n\
             component autopilot {\n asil D\n requires actuator.brake\n}\n\
             component pilot {\n domain untrusted\n requires actuator.brake\n}",
        );
        let mut baseline = CandidateConfig::default();
        for c in broken {
            baseline.mapping.insert(c.name.clone(), 0);
            baseline.components.push(c);
        }
        let mut m = mcc();
        m.install_baseline(baseline);
        let report = m
            .propose_update(UpdateRequest {
                label: "probe".into(),
                add: contracts("component probe {\n}"),
                remove: vec![],
            })
            .unwrap();
        assert!(!report.accepted);
        assert_eq!(
            report.rejecting_viewpoints(),
            vec!["resources", "timing", "safety", "security"],
            "rejections surface in the fixed battery order"
        );
    }

    #[test]
    fn repeated_propose_rollback_cycles_stay_consistent() {
        let mut m = mcc();
        m.propose_update(UpdateRequest {
            label: "base".into(),
            add: contracts("component a {\n task t { period 10ms wcet 1ms priority 1 }\n}"),
            remove: vec![],
        })
        .unwrap();
        let base_mapping = m.current().mapping.clone();
        for round in 0..3 {
            let report = m
                .propose_update(UpdateRequest {
                    label: format!("swap-{round}"),
                    add: contracts(
                        "component a2 {\n task t { period 20ms wcet 1ms priority 1 }\n}",
                    ),
                    remove: vec!["a".into()],
                })
                .unwrap();
            assert!(report.accepted, "round {round}: {report}");
            assert!(m.current().component("a2").is_some());
            assert!(m.current().component("a").is_none());
            assert_eq!(m.current().mapping["a2"], 0, "first fit: ecu0");
            m.rollback().unwrap();
            assert!(m.current().component("a").is_some());
            assert!(m.current().component("a2").is_none());
            assert_eq!(m.current().mapping, base_mapping, "round {round}");
        }
        // The cycles net out to the base commit: one rollback reaches the
        // empty system, and there is nothing before it.
        m.rollback().unwrap();
        assert!(m.current().components.is_empty());
        assert_eq!(m.rollback(), Err(IntegrationError::NoHistory));
    }

    #[test]
    fn removal_then_update() {
        let mut m = mcc();
        m.propose_update(UpdateRequest {
            label: "v1".into(),
            add: contracts("component a {\n provides svc.a\n}"),
            remove: vec![],
        })
        .unwrap();
        let report = m
            .propose_update(UpdateRequest {
                label: "replace-a".into(),
                add: contracts("component a2 {\n provides svc.a\n}"),
                remove: vec!["a".into()],
            })
            .unwrap();
        assert!(report.accepted);
        assert!(m.current().component("a").is_none());
        assert!(m.current().component("a2").is_some());
    }
}
