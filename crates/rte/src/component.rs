//! Components, services and execution domains (VMs).
//!
//! The CCC execution domain is built on microkernel component semantics:
//! *micro servers* provide named services, other components require them,
//! and every interaction needs an explicit capability (least privilege).
//! Components are grouped into VMs — the isolated execution domains that
//! Sec. III of the paper motivates.

use std::fmt;

use saav_sim::name::Name;

/// Identifier of a component instance inside an [`Rte`].
///
/// [`Rte`]: crate::rte::Rte
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub usize);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// Identifier of an execution domain (virtual machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub usize);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// A service name, e.g. `"sensor.radar"` or `"actuator.brake.rear"`.
///
/// Interned: a clone — into a grant lookup, an access-log entry or an
/// error — bumps a reference count instead of allocating.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceName(Name);

impl ServiceName {
    /// Creates a service name.
    ///
    /// # Panics
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<Name>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "service name must not be empty");
        ServiceName(name)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The interned name (cloning it never allocates).
    pub fn as_name(&self) -> &Name {
        &self.0
    }
}

impl fmt::Display for ServiceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ServiceName {
    fn from(s: &str) -> Self {
        ServiceName::new(s)
    }
}

/// Lifecycle state of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentState {
    /// Scheduled and servicing requests.
    Running,
    /// Stopped by an administrative action (e.g. before an update).
    Stopped,
    /// Forcibly isolated after a detected compromise or fault; its tasks are
    /// descheduled and all its sessions are revoked.
    Quarantined,
}

/// Static description of a component.
#[derive(Debug, Clone)]
pub struct ComponentSpec {
    /// Unique component name.
    pub name: String,
    /// Services this component provides (as a micro server).
    pub provides: Vec<ServiceName>,
    /// Services this component requires.
    pub requires: Vec<ServiceName>,
    /// Execution domain the component lives in.
    pub vm: VmId,
    /// Memory quota in KiB (spatial isolation).
    pub memory_kib: u32,
}

impl ComponentSpec {
    /// Creates a spec with no services and a 64 KiB quota in the given VM.
    pub fn new(name: impl Into<String>, vm: VmId) -> Self {
        ComponentSpec {
            name: name.into(),
            provides: Vec::new(),
            requires: Vec::new(),
            vm,
            memory_kib: 64,
        }
    }

    /// Adds a provided service.
    pub fn provides(mut self, service: impl Into<ServiceName>) -> Self {
        self.provides.push(service.into());
        self
    }

    /// Adds a required service.
    pub fn requires(mut self, service: impl Into<ServiceName>) -> Self {
        self.requires.push(service.into());
        self
    }

    /// Sets the memory quota.
    pub fn with_memory_kib(mut self, kib: u32) -> Self {
        self.memory_kib = kib;
        self
    }
}

impl From<&str> for ComponentSpec {
    fn from(name: &str) -> Self {
        ComponentSpec::new(name, VmId(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder() {
        let spec = ComponentSpec::new("acc", VmId(1))
            .provides("control.acc")
            .requires("sensor.radar")
            .requires("actuator.powertrain")
            .with_memory_kib(128);
        assert_eq!(spec.name, "acc");
        assert_eq!(spec.provides.len(), 1);
        assert_eq!(spec.requires.len(), 2);
        assert_eq!(spec.memory_kib, 128);
        assert_eq!(spec.vm, VmId(1));
    }

    #[test]
    fn service_name_display_and_eq() {
        let a = ServiceName::new("sensor.radar");
        let b: ServiceName = "sensor.radar".into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "sensor.radar");
        assert_eq!(a.as_str(), "sensor.radar");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_service_name_rejected() {
        let _ = ServiceName::new("");
    }

    #[test]
    fn ids_format() {
        assert_eq!(ComponentId(3).to_string(), "comp3");
        assert_eq!(VmId(2).to_string(), "vm2");
    }
}
