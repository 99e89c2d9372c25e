//! Capability-based access control and the access event log.
//!
//! Following the principle of least privilege, a component may only open a
//! session to a service if an explicit grant exists. Every access — granted
//! or denied — is appended to an access log that the security monitor
//! ([`saav-monitor`]'s access monitor) consumes for intrusion detection, as
//! described in Sec. II-B and Sec. V of the paper.
//!
//! [`saav-monitor`]: https://docs.rs/saav-monitor

use std::collections::HashSet;

use saav_sim::time::Time;

use crate::component::{ComponentId, ServiceName};

/// One entry in the access log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessEvent {
    /// When the access happened.
    pub at: Time,
    /// The requesting component.
    pub client: ComponentId,
    /// The service addressed.
    pub service: ServiceName,
    /// Whether the capability check allowed it.
    pub allowed: bool,
}

/// Grant table plus audit log.
#[derive(Debug, Clone, Default)]
pub struct AccessControl {
    grants: HashSet<(ComponentId, ServiceName)>,
    log: Vec<AccessEvent>,
}

impl AccessControl {
    /// Creates an empty table (everything denied).
    pub fn new() -> Self {
        AccessControl::default()
    }

    /// Grants `client` the capability to use `service`.
    pub fn grant(&mut self, client: ComponentId, service: impl Into<ServiceName>) {
        self.grants.insert((client, service.into()));
    }

    /// Revokes a capability; returns whether it existed.
    pub fn revoke(&mut self, client: ComponentId, service: &ServiceName) -> bool {
        self.grants.remove(&(client, service.clone()))
    }

    /// Revokes every capability held by `client`.
    pub fn revoke_all(&mut self, client: ComponentId) {
        self.grants.retain(|(c, _)| *c != client);
    }

    /// Pure check without logging.
    pub fn is_granted(&self, client: ComponentId, service: &ServiceName) -> bool {
        self.grants.contains(&(client, service.clone()))
    }

    /// Checks and records an access attempt; returns whether it is allowed.
    pub fn check(&mut self, at: Time, client: ComponentId, service: &ServiceName) -> bool {
        let allowed = self.is_granted(client, service);
        self.log.push(AccessEvent {
            at,
            client,
            service: service.clone(),
            allowed,
        });
        allowed
    }

    /// Records a use of an already-open session (message-level accounting
    /// for the communication monitor).
    pub fn record_use(&mut self, at: Time, client: ComponentId, service: &ServiceName) {
        self.log.push(AccessEvent {
            at,
            client,
            service: service.clone(),
            allowed: true,
        });
    }

    /// The full access log.
    pub fn log(&self) -> &[AccessEvent] {
        &self.log
    }

    /// Drains the access log into `buf` (monitors call this once per
    /// sampling period). `buf` is cleared and swapped with the log, so a
    /// caller that polls with the same buffer every period ping-pongs two
    /// allocations and the steady-state drain allocates nothing.
    pub fn drain_log_into(&mut self, buf: &mut Vec<AccessEvent>) {
        buf.clear();
        std::mem::swap(&mut self.log, buf);
    }

    /// Number of grants currently in force.
    pub fn grant_count(&self) -> usize {
        self.grants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(s: &str) -> ServiceName {
        ServiceName::new(s)
    }

    #[test]
    fn default_deny() {
        let mut ac = AccessControl::new();
        assert!(!ac.check(Time::ZERO, ComponentId(0), &svc("x")));
        assert_eq!(ac.log().len(), 1);
        assert!(!ac.log()[0].allowed);
    }

    #[test]
    fn grant_allows_and_revoke_denies() {
        let mut ac = AccessControl::new();
        let c = ComponentId(1);
        ac.grant(c, "sensor.radar");
        assert!(ac.check(Time::ZERO, c, &svc("sensor.radar")));
        assert!(ac.revoke(c, &svc("sensor.radar")));
        assert!(!ac.check(Time::ZERO, c, &svc("sensor.radar")));
        assert!(!ac.revoke(c, &svc("sensor.radar")), "already revoked");
    }

    #[test]
    fn grants_are_per_component() {
        let mut ac = AccessControl::new();
        ac.grant(ComponentId(1), "s");
        assert!(ac.is_granted(ComponentId(1), &svc("s")));
        assert!(!ac.is_granted(ComponentId(2), &svc("s")));
    }

    #[test]
    fn revoke_all_clears_component() {
        let mut ac = AccessControl::new();
        ac.grant(ComponentId(1), "a");
        ac.grant(ComponentId(1), "b");
        ac.grant(ComponentId(2), "a");
        ac.revoke_all(ComponentId(1));
        assert!(!ac.is_granted(ComponentId(1), &svc("a")));
        assert!(!ac.is_granted(ComponentId(1), &svc("b")));
        assert!(ac.is_granted(ComponentId(2), &svc("a")));
        assert_eq!(ac.grant_count(), 1);
    }

    #[test]
    fn drain_log_empties() {
        let mut ac = AccessControl::new();
        ac.grant(ComponentId(0), "s");
        ac.record_use(Time::from_secs(1), ComponentId(0), &svc("s"));
        ac.record_use(Time::from_secs(2), ComponentId(0), &svc("s"));
        let mut events = vec![AccessEvent {
            at: Time::ZERO,
            client: ComponentId(9),
            service: svc("stale"),
            allowed: false,
        }];
        ac.drain_log_into(&mut events);
        assert_eq!(events.len(), 2, "the buffer's stale entry is cleared");
        assert!(ac.log().is_empty());
    }
}
