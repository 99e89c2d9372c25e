//! Viewpoint analyses: the MCC's acceptance tests.
//!
//! Sec. II-A: *"Viewpoint-specific analyses can be implemented as separate
//! entities in the MCC"* and *"formal analyses that a) can guide the
//! (mapping) decisions and b) work as acceptance tests"*. Each viewpoint
//! examines a [`CandidateConfig`] against the [`PlatformModel`] and returns
//! a [`Verdict`]; the integration process accepts a change only when every
//! viewpoint passes.

use saav_timing::can_rt::frame_bits_worst_case;
use saav_timing::event_model::EventModel;
use saav_timing::task::{Priority, Task};
use saav_timing::{CanAnalysis, CpuAnalysis};

use crate::contract::{Asil, TrustDomain};
use crate::model::{CandidateConfig, PlatformModel};

/// Outcome of one viewpoint check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Viewpoint name.
    pub viewpoint: &'static str,
    /// Whether the candidate passes.
    pub passed: bool,
    /// Human-readable findings (violations or notes).
    pub findings: Vec<String>,
}

impl Verdict {
    fn pass(viewpoint: &'static str) -> Self {
        Verdict {
            viewpoint,
            passed: true,
            findings: Vec::new(),
        }
    }

    fn fail(viewpoint: &'static str, findings: Vec<String>) -> Self {
        Verdict {
            viewpoint,
            passed: false,
            findings,
        }
    }
}

/// A viewpoint analysis run by the MCC.
pub trait Viewpoint: Send + Sync {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;
    /// Checks a candidate configuration.
    fn check(&self, candidate: &CandidateConfig, platform: &PlatformModel) -> Verdict;
}

/// Timing viewpoint: worst-case response-time analysis of every PE and
/// network (the paper's example acceptance test).
#[derive(Debug, Default)]
pub struct TimingViewpoint;

impl Viewpoint for TimingViewpoint {
    fn name(&self) -> &'static str {
        "timing"
    }

    fn check(&self, candidate: &CandidateConfig, platform: &PlatformModel) -> Verdict {
        let mut findings = Vec::new();
        for (pe_idx, pe) in platform.pes.iter().enumerate() {
            let mut cpu = CpuAnalysis::new();
            for comp in &candidate.components {
                if candidate.mapping.get(&comp.name) != Some(&pe_idx) {
                    continue;
                }
                for t in &comp.tasks {
                    cpu.add_task(Task::new(
                        format!("{}.{}", comp.name, t.name),
                        t.wcet,
                        Priority(t.priority),
                        EventModel::periodic(t.period),
                        t.deadline,
                    ));
                }
            }
            if cpu.tasks().is_empty() {
                continue;
            }
            match cpu.analyze() {
                Ok(result) => {
                    for name in result.violations() {
                        let r = result.response(name).expect("violating task exists");
                        findings.push(format!(
                            "{}: task {} WCRT {} exceeds deadline {}",
                            pe.name, name, r.wcrt, r.deadline
                        ));
                    }
                }
                Err(e) => findings.push(format!("{}: {}", pe.name, e)),
            }
        }
        for (net_idx, net) in platform.networks.iter().enumerate() {
            let mut can = CanAnalysis::with_bitrate(net.bitrate_bps);
            let bit_ns = 1_000_000_000u64 / net.bitrate_bps as u64;
            for comp in &candidate.components {
                for f in &comp.frames {
                    let key = format!("{}.{}", comp.name, f.name);
                    if candidate.frame_mapping.get(&key) != Some(&net_idx) {
                        continue;
                    }
                    let bits = frame_bits_worst_case(f.payload, false) as u64;
                    can.add_frame(Task::new(
                        key.clone(),
                        saav_sim::time::Duration::from_nanos(bits * bit_ns),
                        Priority(f.can_id),
                        EventModel::periodic(f.period),
                        f.period,
                    ));
                }
            }
            if can.frames().is_empty() {
                continue;
            }
            match can.analyze() {
                Ok(result) => {
                    for name in result.violations() {
                        findings.push(format!("{}: frame {} misses deadline", net.name, name));
                    }
                }
                Err(e) => findings.push(format!("{}: {}", net.name, e)),
            }
        }
        if findings.is_empty() {
            Verdict::pass(self.name())
        } else {
            Verdict::fail(self.name(), findings)
        }
    }
}

/// Safety viewpoint: every required service must be backed by providers of
/// sufficient effective ASIL — either one provider at the requirer's level,
/// or two independent providers at the decomposed level (redundancy).
#[derive(Debug, Default)]
pub struct SafetyViewpoint;

impl Viewpoint for SafetyViewpoint {
    fn name(&self) -> &'static str {
        "safety"
    }

    fn check(&self, candidate: &CandidateConfig, _platform: &PlatformModel) -> Verdict {
        let mut findings = Vec::new();
        for comp in &candidate.components {
            let required_level = comp.effective_asil();
            if required_level == Asil::Qm {
                continue;
            }
            for req in &comp.requires {
                let providers = candidate.providers_of(&req.name);
                if providers.is_empty() {
                    findings.push(format!(
                        "{}: required service `{}` has no provider",
                        comp.name, req.name
                    ));
                    continue;
                }
                let single_ok = providers
                    .iter()
                    .any(|p| p.effective_asil() >= required_level);
                let decomposed_ok = providers
                    .iter()
                    .filter(|p| p.effective_asil() >= required_level.decomposed())
                    .count()
                    >= 2;
                if !single_ok && !decomposed_ok {
                    findings.push(format!(
                        "{}: service `{}` needs ASIL {} (or redundant {}) providers, best is {}",
                        comp.name,
                        req.name,
                        required_level,
                        required_level.decomposed(),
                        providers
                            .iter()
                            .map(|p| p.effective_asil())
                            .max()
                            .expect("non-empty"),
                    ));
                }
            }
        }
        if findings.is_empty() {
            Verdict::pass(self.name())
        } else {
            Verdict::fail(self.name(), findings)
        }
    }
}

/// Security viewpoint: no *influence path* from an untrusted component to a
/// critical service. Influence flows from a component to the components
/// that consume its provided services, transitively.
#[derive(Debug, Default)]
pub struct SecurityViewpoint;

impl Viewpoint for SecurityViewpoint {
    fn name(&self) -> &'static str {
        "security"
    }

    fn check(&self, candidate: &CandidateConfig, _platform: &PlatformModel) -> Verdict {
        let mut findings = Vec::new();
        for comp in &candidate.components {
            if comp.domain != TrustDomain::Untrusted {
                continue;
            }
            // BFS over the influence relation.
            let mut influenced: Vec<&str> = vec![comp.name.as_str()];
            let mut frontier = vec![comp.name.as_str()];
            while let Some(current) = frontier.pop() {
                let provider = candidate.component(current).expect("known component");
                for service in &provider.provides {
                    for consumer in &candidate.components {
                        let consumes = consumer.requires.iter().any(|r| r.name == service.name);
                        if consumes && !influenced.contains(&consumer.name.as_str()) {
                            influenced.push(&consumer.name);
                            frontier.push(&consumer.name);
                        }
                    }
                }
            }
            // Does any influenced component touch a critical service?
            for name in &influenced {
                let c = candidate.component(name).expect("known component");
                for req in &c.requires {
                    if candidate.is_critical_service(&req.name) {
                        findings.push(format!(
                            "untrusted `{}` can influence critical service `{}` via `{}`",
                            comp.name, req.name, name
                        ));
                    }
                }
                // An untrusted provider of a critical service is itself a
                // violation.
                for p in &c.provides {
                    if p.critical && c.domain == TrustDomain::Untrusted {
                        findings.push(format!(
                            "untrusted `{}` provides critical service `{}`",
                            c.name, p.name
                        ));
                    }
                }
            }
        }
        findings.sort();
        findings.dedup();
        if findings.is_empty() {
            Verdict::pass(self.name())
        } else {
            Verdict::fail(self.name(), findings)
        }
    }
}

/// Resource viewpoint: memory and planned utilization within every PE's
/// capacity.
#[derive(Debug, Default)]
pub struct ResourceViewpoint;

impl Viewpoint for ResourceViewpoint {
    fn name(&self) -> &'static str {
        "resources"
    }

    fn check(&self, candidate: &CandidateConfig, platform: &PlatformModel) -> Verdict {
        let mut findings = Vec::new();
        // All components must be mapped to existing PEs.
        for comp in &candidate.components {
            match candidate.mapping.get(&comp.name) {
                None => findings.push(format!("`{}` is unmapped", comp.name)),
                Some(&pe) if pe >= platform.pes.len() => {
                    findings.push(format!("`{}` mapped to unknown PE {pe}", comp.name))
                }
                Some(_) => {}
            }
        }
        for (idx, pe) in platform.pes.iter().enumerate() {
            let mem = candidate.pe_memory_kib(idx);
            if mem > pe.memory_kib {
                findings.push(format!(
                    "{}: memory {mem} KiB exceeds capacity {} KiB",
                    pe.name, pe.memory_kib
                ));
            }
            let util = candidate.pe_utilization(idx);
            if util > pe.max_utilization {
                findings.push(format!(
                    "{}: planned utilization {:.2} exceeds bound {:.2}",
                    pe.name, util, pe.max_utilization
                ));
            }
        }
        if findings.is_empty() {
            Verdict::pass(self.name())
        } else {
            Verdict::fail(self.name(), findings)
        }
    }
}

/// The default viewpoint battery the MCC runs.
pub fn default_viewpoints() -> Vec<Box<dyn Viewpoint>> {
    vec![
        Box::new(ResourceViewpoint),
        Box::new(TimingViewpoint),
        Box::new(SafetyViewpoint),
        Box::new(SecurityViewpoint),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::parse_contracts;
    use std::collections::HashMap;

    fn map_all(components: &[crate::contract::Contract], pe: usize) -> CandidateConfig {
        let mut mapping = HashMap::new();
        let mut frame_mapping = HashMap::new();
        for c in components {
            mapping.insert(c.name.clone(), pe);
            for f in &c.frames {
                frame_mapping.insert(format!("{}.{}", c.name, f.name), 0);
            }
        }
        CandidateConfig {
            components: components.to_vec(),
            mapping,
            frame_mapping,
        }
    }

    #[test]
    fn timing_accepts_feasible_and_rejects_overload() {
        let ok = parse_contracts(
            "component a {\n task t { period 10ms wcet 2ms priority 1 }\n}\n\
             component b {\n task t { period 20ms wcet 4ms priority 2 }\n}",
        )
        .unwrap();
        let platform = PlatformModel::reference();
        let v = TimingViewpoint.check(&map_all(&ok, 0), &platform);
        assert!(v.passed, "{:?}", v.findings);

        let bad = parse_contracts(
            "component a {\n task t { period 10ms wcet 6ms priority 1 }\n}\n\
             component b {\n task t { period 10ms wcet 6ms priority 2 }\n}",
        )
        .unwrap();
        let v = TimingViewpoint.check(&map_all(&bad, 0), &platform);
        assert!(!v.passed);
        assert!(v.findings[0].contains("overload"), "{:?}", v.findings);
    }

    #[test]
    fn timing_checks_can_frames() {
        // 20 frames of 8 bytes every 3 ms on 500kbit/s: utilization
        // 20 * 270us / 3ms = 1.8 -> overloaded.
        let mut src = String::new();
        for i in 0..20 {
            src.push_str(&format!(
                "component c{i} {{\n frame f {{ id 0x{:x} period 3ms payload 8 }}\n}}\n",
                0x100 + i
            ));
        }
        let comps = parse_contracts(&src).unwrap();
        let v = TimingViewpoint.check(&map_all(&comps, 0), &PlatformModel::reference());
        assert!(!v.passed);
    }

    #[test]
    fn safety_requires_sufficient_asil_provider() {
        let src = "component brake {\n asil B\n provides actuator.brake\n}\n\
                   component acc {\n asil D\n requires actuator.brake\n}";
        let comps = parse_contracts(src).unwrap();
        let v = SafetyViewpoint.check(&map_all(&comps, 0), &PlatformModel::reference());
        assert!(!v.passed);
        assert!(v.findings[0].contains("ASIL D"));
    }

    #[test]
    fn safety_accepts_decomposed_redundancy() {
        // Two independent ASIL-B providers satisfy an ASIL-D requirement
        // via decomposition (D -> B + B).
        let src = "component brake1 {\n asil B\n provides actuator.brake\n}\n\
                   component brake2 {\n asil B\n provides actuator.brake\n}\n\
                   component acc {\n asil D\n requires actuator.brake\n}";
        let comps = parse_contracts(src).unwrap();
        let v = SafetyViewpoint.check(&map_all(&comps, 0), &PlatformModel::reference());
        assert!(v.passed, "{:?}", v.findings);
    }

    #[test]
    fn untrusted_provider_effectively_qm() {
        let src = "component sensor {\n asil D\n domain untrusted\n provides sensor.x\n}\n\
                   component user {\n asil A\n requires sensor.x\n}";
        let comps = parse_contracts(src).unwrap();
        let v = SafetyViewpoint.check(&map_all(&comps, 0), &PlatformModel::reference());
        assert!(!v.passed);
    }

    #[test]
    fn security_blocks_untrusted_path_to_critical() {
        // infotainment (untrusted) -> provides media.api consumed by
        // gateway -> gateway requires actuator.brake (critical).
        let src = "component brake {\n provides actuator.brake critical\n}\n\
                   component gateway {\n requires media.api\n requires actuator.brake\n}\n\
                   component infotainment {\n domain untrusted\n provides media.api\n}";
        let comps = parse_contracts(src).unwrap();
        let v = SecurityViewpoint.check(&map_all(&comps, 0), &PlatformModel::reference());
        assert!(!v.passed);
        assert!(v.findings[0].contains("infotainment"), "{:?}", v.findings);
    }

    #[test]
    fn security_accepts_isolated_untrusted() {
        let src = "component brake {\n provides actuator.brake critical\n}\n\
                   component acc {\n requires actuator.brake\n}\n\
                   component infotainment {\n domain untrusted\n provides media.api\n}";
        let comps = parse_contracts(src).unwrap();
        let v = SecurityViewpoint.check(&map_all(&comps, 0), &PlatformModel::reference());
        assert!(v.passed, "{:?}", v.findings);
    }

    #[test]
    fn resources_reject_memory_overflow() {
        let src = "component fat {\n memory 8192\n}";
        let comps = parse_contracts(src).unwrap();
        let v = ResourceViewpoint.check(&map_all(&comps, 0), &PlatformModel::reference());
        assert!(!v.passed);
        assert!(v.findings[0].contains("memory"));
    }

    #[test]
    fn resources_reject_unmapped() {
        let comps = parse_contracts("component x {\n}").unwrap();
        let candidate = CandidateConfig {
            components: comps,
            mapping: HashMap::new(),
            frame_mapping: HashMap::new(),
        };
        let v = ResourceViewpoint.check(&candidate, &PlatformModel::reference());
        assert!(!v.passed);
        assert!(v.findings[0].contains("unmapped"));
    }

    #[test]
    fn default_battery_has_four_viewpoints() {
        assert_eq!(default_viewpoints().len(), 4);
    }
}
