//! The model domain's system representation: platform model, mapping and
//! the refined configuration candidate a proposed change produces.

use std::collections::HashMap;

use crate::contract::Contract;

/// A processing element in the platform model.
#[derive(Debug, Clone)]
pub struct PeModel {
    /// PE name (matches the execution platform's naming).
    pub name: String,
    /// Memory capacity in KiB.
    pub memory_kib: u32,
    /// Maximum planned utilization (headroom below 1.0 kept for robustness).
    pub max_utilization: f64,
}

/// A network in the platform model.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Network name.
    pub name: String,
    /// Bitrate in bit/s.
    pub bitrate_bps: u32,
}

/// The technical architecture the MCC maps onto.
#[derive(Debug, Clone, Default)]
pub struct PlatformModel {
    /// Processing elements.
    pub pes: Vec<PeModel>,
    /// Networks (one CAN bus in the reference platform).
    pub networks: Vec<NetworkModel>,
}

impl PlatformModel {
    /// The reference platform of the experiments: two ECUs and one
    /// 500 kbit/s CAN bus.
    pub fn reference() -> Self {
        PlatformModel {
            pes: vec![
                PeModel {
                    name: "ecu0".into(),
                    memory_kib: 4_096,
                    max_utilization: 0.85,
                },
                PeModel {
                    name: "ecu1".into(),
                    memory_kib: 4_096,
                    max_utilization: 0.85,
                },
            ],
            networks: vec![NetworkModel {
                name: "can0".into(),
                bitrate_bps: 500_000,
            }],
        }
    }
}

/// A candidate system configuration: contracts plus their mapping.
#[derive(Debug, Clone, Default)]
pub struct CandidateConfig {
    /// All component contracts in the configuration.
    pub components: Vec<Contract>,
    /// Component name → PE index.
    pub mapping: HashMap<String, usize>,
    /// Frame name (`component.frame`) → network index.
    pub frame_mapping: HashMap<String, usize>,
}

impl CandidateConfig {
    /// The contract of a component, if present.
    pub fn component(&self, name: &str) -> Option<&Contract> {
        self.components.iter().find(|c| c.name == name)
    }

    /// All providers of a service (for redundancy-aware safety analysis).
    pub fn providers_of(&self, service: &str) -> Vec<&Contract> {
        self.components
            .iter()
            .filter(|c| c.provides.iter().any(|p| p.name == service))
            .collect()
    }

    /// Whether a service is marked critical by any provider.
    pub fn is_critical_service(&self, service: &str) -> bool {
        self.components
            .iter()
            .any(|c| c.provides.iter().any(|p| p.name == service && p.critical))
    }

    /// Planned utilization of a PE (sum of task utilizations mapped to it).
    pub fn pe_utilization(&self, pe: usize) -> f64 {
        self.components
            .iter()
            .filter(|c| self.mapping.get(&c.name) == Some(&pe))
            .flat_map(|c| &c.tasks)
            .map(|t| t.wcet.as_secs_f64() / t.period.as_secs_f64())
            .sum()
    }

    /// Planned memory use of a PE in KiB.
    pub fn pe_memory_kib(&self, pe: usize) -> u32 {
        self.components
            .iter()
            .filter(|c| self.mapping.get(&c.name) == Some(&pe))
            .map(|c| c.memory_kib)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::parse_contracts;

    fn candidate() -> CandidateConfig {
        let src = r#"
component radar_driver {
  asil B
  provides sensor.radar
  task drv { period 10ms wcet 1ms priority 1 }
}
component acc {
  asil C
  requires sensor.radar
  provides control.acc
  task ctl { period 20ms wcet 4ms priority 3 }
}
"#;
        let components = parse_contracts(src).unwrap();
        let mut mapping = HashMap::new();
        mapping.insert("radar_driver".into(), 0);
        mapping.insert("acc".into(), 0);
        CandidateConfig {
            components,
            mapping,
            frame_mapping: HashMap::new(),
        }
    }

    #[test]
    fn provider_lookup() {
        let c = candidate();
        let radar = c.providers_of("sensor.radar");
        assert_eq!(radar.len(), 1);
        assert_eq!(radar[0].name, "radar_driver");
        assert!(c.providers_of("nope").is_empty());
    }

    #[test]
    fn utilization_and_memory_sums() {
        let c = candidate();
        // 1/10 + 4/20 = 0.3
        assert!((c.pe_utilization(0) - 0.3).abs() < 1e-9);
        assert_eq!(c.pe_memory_kib(0), 128);
        assert_eq!(c.pe_utilization(1), 0.0);
    }

    #[test]
    fn reference_platform_shape() {
        let p = PlatformModel::reference();
        assert_eq!(p.pes.len(), 2);
        assert_eq!(p.networks.len(), 1);
        assert_eq!(p.pes[1].name, "ecu1");
    }
}
