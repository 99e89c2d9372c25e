//! The run-time environment facade: component registry, capability-checked
//! service access, VMs with memory quotas, quarantine and atomic
//! reconfiguration.
//!
//! [`Rte`] ties the execution-domain pieces together the way the CCC
//! architecture (Fig. 1 of the paper) describes: application components run
//! inside VMs on top of a microkernel-style RTE, interact only through
//! capability-checked service sessions, and are reconfigured at run time by
//! configurations that the model domain (the MCC) has accepted.

use std::collections::HashMap;
use std::fmt;

use saav_sim::time::Time;

use crate::access::AccessControl;
use crate::component::{ComponentId, ComponentSpec, ComponentState, ServiceName, VmId};
use crate::sched::{JobRecord, Scheduler, TaskRef, TaskSpec};

/// Errors of the run-time environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RteError {
    /// Component name is already installed.
    DuplicateComponent(String),
    /// Referenced component does not exist.
    UnknownComponent(String),
    /// Referenced VM does not exist.
    UnknownVm(VmId),
    /// No provider registered for the service.
    UnknownService(ServiceName),
    /// Capability check failed.
    AccessDenied {
        /// The requesting component.
        client: ComponentId,
        /// The service that was requested.
        service: ServiceName,
    },
    /// The component is quarantined.
    ComponentNotRunning(ComponentId),
    /// Installing the component would exceed the VM's memory quota.
    MemoryExceeded {
        /// The VM whose quota would be exceeded.
        vm: VmId,
    },
}

impl fmt::Display for RteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RteError::DuplicateComponent(n) => write!(f, "component `{n}` already installed"),
            RteError::UnknownComponent(n) => write!(f, "unknown component `{n}`"),
            RteError::UnknownVm(vm) => write!(f, "unknown VM {vm}"),
            RteError::UnknownService(s) => write!(f, "no provider for service `{s}`"),
            RteError::AccessDenied { client, service } => {
                write!(f, "{client} denied access to `{service}`")
            }
            RteError::ComponentNotRunning(c) => write!(f, "{c} is not running"),
            RteError::MemoryExceeded { vm } => write!(f, "memory quota of {vm} exceeded"),
        }
    }
}

impl std::error::Error for RteError {}

#[derive(Debug)]
struct ComponentEntry {
    spec: ComponentSpec,
    state: ComponentState,
}

#[derive(Debug)]
struct VmEntry {
    memory_limit_kib: u32,
}

/// A configuration delta produced by the model domain: components to add,
/// their tasks, and the capability grants wiring them up.
#[derive(Debug, Clone, Default)]
pub struct Configuration {
    /// Components to install.
    pub components: Vec<ComponentSpec>,
    /// Tasks to register, referencing components by name.
    pub tasks: Vec<(String, TaskSpec)>,
    /// Grants `(client name, service)` to install.
    pub grants: Vec<(String, ServiceName)>,
}

/// The run-time environment.
#[derive(Debug)]
pub struct Rte {
    components: Vec<ComponentEntry>,
    by_name: HashMap<String, ComponentId>,
    providers: HashMap<ServiceName, ComponentId>,
    access: AccessControl,
    scheduler: Scheduler,
    vms: Vec<VmEntry>,
}

impl Rte {
    /// Creates an RTE with a single default VM of the given memory size.
    pub fn new(seed: u64, default_vm_kib: u32) -> Self {
        Rte {
            components: Vec::new(),
            by_name: HashMap::new(),
            providers: HashMap::new(),
            access: AccessControl::new(),
            scheduler: Scheduler::new(seed),
            vms: vec![VmEntry {
                memory_limit_kib: default_vm_kib,
            }],
        }
    }

    /// Adds an execution domain (VM) with a memory quota.
    pub fn add_vm(&mut self, memory_limit_kib: u32) -> VmId {
        self.vms.push(VmEntry { memory_limit_kib });
        VmId(self.vms.len() - 1)
    }

    /// Memory currently allocated in a VM (every installed component).
    pub fn vm_memory_used_kib(&self, vm: VmId) -> u32 {
        self.components
            .iter()
            .filter(|c| c.spec.vm == vm)
            .map(|c| c.spec.memory_kib)
            .sum()
    }

    /// Installs a component.
    ///
    /// # Errors
    /// [`RteError::DuplicateComponent`], [`RteError::UnknownVm`] or
    /// [`RteError::MemoryExceeded`].
    pub fn install(&mut self, spec: ComponentSpec) -> Result<ComponentId, RteError> {
        if self.by_name.contains_key(&spec.name) {
            return Err(RteError::DuplicateComponent(spec.name));
        }
        let vm = spec.vm;
        let limit = self
            .vms
            .get(vm.0)
            .ok_or(RteError::UnknownVm(vm))?
            .memory_limit_kib;
        if self.vm_memory_used_kib(vm) + spec.memory_kib > limit {
            return Err(RteError::MemoryExceeded { vm });
        }
        let id = ComponentId(self.components.len());
        self.by_name.insert(spec.name.clone(), id);
        for s in &spec.provides {
            self.providers.insert(s.clone(), id);
        }
        self.components.push(ComponentEntry {
            spec,
            state: ComponentState::Running,
        });
        Ok(id)
    }

    /// Looks up a component by name.
    pub fn component_by_name(&self, name: &str) -> Option<ComponentId> {
        self.by_name.get(name).copied()
    }

    /// Component state.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn state(&self, id: ComponentId) -> ComponentState {
        self.components[id.0].state
    }

    /// Registers a periodic task for a component.
    ///
    /// # Errors
    /// [`RteError::UnknownComponent`] when the task's component id is
    /// invalid.
    pub fn add_task(&mut self, mut spec: TaskSpec) -> Result<TaskRef, RteError> {
        let cid = spec.component;
        if cid.0 >= self.components.len() {
            return Err(RteError::UnknownComponent(format!("{cid}")));
        }
        spec.component = cid;
        Ok(self.scheduler.add_task(spec))
    }

    /// Grants a capability.
    pub fn grant(&mut self, client: ComponentId, service: impl Into<ServiceName>) {
        self.access.grant(client, service);
    }

    /// Opens a session from `client` to `service`, enforcing capability
    /// checks and liveness of both ends. Every attempt that reaches the
    /// capability check is recorded in the access log; no session state is
    /// kept.
    ///
    /// # Errors
    /// [`RteError::AccessDenied`], [`RteError::UnknownService`] or
    /// [`RteError::ComponentNotRunning`].
    pub fn open_session(
        &mut self,
        client: ComponentId,
        service: impl Into<ServiceName>,
        now: Time,
    ) -> Result<(), RteError> {
        let service = service.into();
        if self.components[client.0].state != ComponentState::Running {
            return Err(RteError::ComponentNotRunning(client));
        }
        if !self.access.check(now, client, &service) {
            return Err(RteError::AccessDenied { client, service });
        }
        let provider = self
            .providers
            .get(&service)
            .copied()
            .ok_or_else(|| RteError::UnknownService(service.clone()))?;
        if self.components[provider.0].state != ComponentState::Running {
            return Err(RteError::ComponentNotRunning(provider));
        }
        Ok(())
    }

    /// Quarantines a component for good: tasks descheduled, capabilities
    /// withdrawn. This is the paper's "shut down the affected component"
    /// countermeasure.
    ///
    /// # Panics
    /// Panics on an invalid id.
    pub fn quarantine(&mut self, id: ComponentId) {
        self.components[id.0].state = ComponentState::Quarantined;
        self.scheduler.deactivate_component(id);
        self.access.revoke_all(id);
    }

    /// Applies a configuration delta atomically: either all components,
    /// tasks and grants are installed, or the RTE is left untouched.
    ///
    /// # Errors
    /// Any installation error; validation happens before mutation.
    pub fn apply_configuration(&mut self, config: Configuration) -> Result<(), RteError> {
        // Validation pass.
        let mut names: Vec<&str> = Vec::new();
        let mut vm_extra: HashMap<VmId, u32> = HashMap::new();
        for spec in &config.components {
            if self.by_name.contains_key(&spec.name) || names.contains(&spec.name.as_str()) {
                return Err(RteError::DuplicateComponent(spec.name.clone()));
            }
            names.push(&spec.name);
            if spec.vm.0 >= self.vms.len() {
                return Err(RteError::UnknownVm(spec.vm));
            }
            *vm_extra.entry(spec.vm).or_insert(0) += spec.memory_kib;
        }
        for (vm, extra) in &vm_extra {
            if self.vm_memory_used_kib(*vm) + extra > self.vms[vm.0].memory_limit_kib {
                return Err(RteError::MemoryExceeded { vm: *vm });
            }
        }
        for (name, _) in &config.tasks {
            if !self.by_name.contains_key(name) && !names.contains(&name.as_str()) {
                return Err(RteError::UnknownComponent(name.clone()));
            }
        }
        for (client, _) in &config.grants {
            if !self.by_name.contains_key(client) && !names.contains(&client.as_str()) {
                return Err(RteError::UnknownComponent(client.clone()));
            }
        }
        // Mutation pass (infallible by construction).
        for spec in config.components {
            self.install(spec).expect("validated install");
        }
        for (name, mut task) in config.tasks {
            let cid = self.by_name[&name];
            task.component = cid;
            self.add_task(task).expect("validated task");
        }
        for (client, service) in config.grants {
            let cid = self.by_name[&client];
            self.grant(cid, service);
        }
        Ok(())
    }

    /// Advances the scheduler (see [`Scheduler::advance`]).
    ///
    /// # Panics
    /// Panics if `to` is in the past or `speed_factor <= 0`.
    pub fn advance(&mut self, to: Time, speed_factor: f64) {
        self.scheduler.advance(to, speed_factor);
    }

    /// Drains completed job records.
    pub fn take_records(&mut self) -> Vec<JobRecord> {
        self.scheduler.take_records()
    }

    /// Drains completed job records into a caller-owned buffer, retaining
    /// both buffers' capacity (the allocation-free variant of
    /// [`Self::take_records`]).
    pub fn drain_records_into(&mut self, buf: &mut Vec<JobRecord>) {
        self.scheduler.drain_records_into(buf);
    }

    /// Drains the access log into a caller-owned buffer, retaining both
    /// buffers' capacity (see [`AccessControl::drain_log_into`]).
    pub fn drain_access_log_into(&mut self, buf: &mut Vec<crate::access::AccessEvent>) {
        self.access.drain_log_into(buf);
    }

    /// CPU utilization since the last call.
    pub fn take_utilization(&mut self) -> f64 {
        self.scheduler.take_utilization()
    }

    /// Mutable access to the scheduler (fault injection in scenarios).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Immutable access to the scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Priority;
    use saav_sim::time::Duration;

    fn rte() -> Rte {
        Rte::new(1, 1024)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn install_and_lookup() {
        let mut r = rte();
        let id = r
            .install(ComponentSpec::new("radar", VmId(0)).provides("sensor.radar"))
            .unwrap();
        assert_eq!(r.component_by_name("radar"), Some(id));
        assert_eq!(r.state(id), ComponentState::Running);
        assert!(matches!(
            r.install(ComponentSpec::new("radar", VmId(0))),
            Err(RteError::DuplicateComponent(_))
        ));
    }

    #[test]
    fn memory_quota_enforced_per_vm() {
        let mut r = rte();
        let vm = r.add_vm(100);
        r.install(ComponentSpec::new("a", vm).with_memory_kib(60))
            .unwrap();
        assert_eq!(
            r.install(ComponentSpec::new("b", vm).with_memory_kib(60)),
            Err(RteError::MemoryExceeded { vm })
        );
        assert_eq!(r.vm_memory_used_kib(vm), 60);
    }

    #[test]
    fn session_requires_grant_provider_and_liveness() {
        let mut r = rte();
        let radar = r
            .install(ComponentSpec::new("radar", VmId(0)).provides("sensor.radar"))
            .unwrap();
        let acc = r.install(ComponentSpec::new("acc", VmId(0))).unwrap();
        // No grant yet.
        assert!(matches!(
            r.open_session(acc, "sensor.radar", Time::ZERO),
            Err(RteError::AccessDenied { .. })
        ));
        r.grant(acc, "sensor.radar");
        r.open_session(acc, "sensor.radar", Time::ZERO).unwrap();
        // Unknown service.
        r.grant(acc, "does.not.exist");
        assert!(matches!(
            r.open_session(acc, "does.not.exist", Time::ZERO),
            Err(RteError::UnknownService(_))
        ));
        // Quarantined provider.
        r.quarantine(radar);
        assert_eq!(
            r.open_session(acc, "sensor.radar", Time::ZERO),
            Err(RteError::ComponentNotRunning(radar))
        );
    }

    #[test]
    fn quarantine_revokes_everything() {
        let mut r = rte();
        let brake = r
            .install(ComponentSpec::new("brake", VmId(0)).provides("actuator.brake"))
            .unwrap();
        let acc = r.install(ComponentSpec::new("acc", VmId(0))).unwrap();
        r.grant(acc, "actuator.brake");
        r.open_session(acc, "actuator.brake", Time::ZERO).unwrap();
        r.add_task(TaskSpec::periodic(
            "brake_task",
            brake,
            ms(10),
            ms(1),
            Priority(0),
        ))
        .unwrap();
        r.advance(Time::from_millis(20), 1.0);
        assert!(!r.take_records().is_empty(), "jobs before the quarantine");
        r.quarantine(brake);
        assert_eq!(r.state(brake), ComponentState::Quarantined);
        // Neither end of a session may be quarantined.
        assert_eq!(
            r.open_session(acc, "actuator.brake", Time::from_millis(21)),
            Err(RteError::ComponentNotRunning(brake))
        );
        assert_eq!(
            r.open_session(brake, "actuator.brake", Time::from_millis(21)),
            Err(RteError::ComponentNotRunning(brake))
        );
        // The quarantine sticks: its tasks release no jobs, however long
        // the RTE runs on.
        for until_ms in [50, 500] {
            r.advance(Time::from_millis(until_ms), 1.0);
            assert!(r.take_records().is_empty(), "no jobs for quarantined comp");
        }
    }

    #[test]
    fn configuration_applies_atomically() {
        let mut r = rte();
        let good = Configuration {
            components: vec![
                ComponentSpec::new("radar", VmId(0)).provides("sensor.radar"),
                ComponentSpec::new("acc", VmId(0)).requires("sensor.radar"),
            ],
            tasks: vec![(
                "acc".into(),
                TaskSpec::periodic("acc_ctl", ComponentId(0), ms(10), ms(2), Priority(1)),
            )],
            grants: vec![("acc".into(), "sensor.radar".into())],
        };
        r.apply_configuration(good).unwrap();
        let acc = r.component_by_name("acc").unwrap();
        assert!(r.open_session(acc, "sensor.radar", Time::ZERO).is_ok());

        // A bad configuration (unknown VM) must change nothing.
        let before = r.vm_memory_used_kib(VmId(0));
        let bad = Configuration {
            components: vec![
                ComponentSpec::new("x", VmId(0)),
                ComponentSpec::new("y", VmId(9)),
            ],
            ..Configuration::default()
        };
        assert!(matches!(
            r.apply_configuration(bad),
            Err(RteError::UnknownVm(_))
        ));
        assert_eq!(r.component_by_name("x"), None, "atomicity violated");
        assert_eq!(r.vm_memory_used_kib(VmId(0)), before);
    }

    #[test]
    fn access_log_captures_denials_for_monitors() {
        let mut r = rte();
        r.install(ComponentSpec::new("victim", VmId(0)).provides("svc"))
            .unwrap();
        let attacker = r.install(ComponentSpec::new("attacker", VmId(0))).unwrap();
        for i in 0..5 {
            let _ = r.open_session(attacker, "svc", Time::from_millis(i));
        }
        let mut log = Vec::new();
        r.drain_access_log_into(&mut log);
        assert_eq!(log.len(), 5);
        assert!(log.iter().all(|e| !e.allowed));
    }
}
