//! Communication/access monitoring for intrusion detection.
//!
//! Consumes the RTE's access log and detects two attack signatures the paper
//! discusses in its security example (Sec. V): outright capability
//! violations (denied attempts) and message-rate anomalies on otherwise
//! legitimate channels — the observable footprint of a compromised component
//! "governing rear braking".

use saav_sim::name::Name;
use saav_sim::time::{Duration, Time};

use crate::anomaly::{Anomaly, AnomalyKind};

/// One access observation (mirrors the RTE's log entry without depending on
/// the RTE crate).
#[derive(Debug, Clone)]
pub struct AccessObservation {
    /// When the access happened.
    pub at: Time,
    /// Requesting component (by name for report readability). Interned:
    /// the per-tick observation path clones names without allocating.
    pub client: Name,
    /// Service addressed.
    pub service: Name,
    /// Whether the capability check allowed it.
    pub allowed: bool,
}

/// A (client, service) channel's slot in one [`AccessMonitor`]: resolved
/// once by name with [`AccessMonitor::channel`], then fed by index with
/// [`AccessMonitor::observe_slot`], so the per-message path neither hashes
/// nor clones names. Meaningful only for the monitor that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSlot(usize);

#[derive(Debug, Clone)]
struct ChannelState {
    client: Name,
    service: Name,
    /// Learned nominal rate (messages/s), if calibrated.
    nominal_rate: Option<f64>,
    /// Messages in the current window.
    window_count: u64,
    window_start: Option<Time>,
    flagged: bool,
}

/// The access monitor.
#[derive(Debug, Clone)]
pub struct AccessMonitor {
    /// Every channel named so far, in order of first appearance; a
    /// [`ChannelSlot`] indexes it. A monitor watches a handful of
    /// channels, so resolving a pair is a short scan.
    channels: Vec<ChannelState>,
    window: Duration,
    /// Rate anomaly threshold: flagged when the windowed rate exceeds
    /// `nominal × factor`.
    rate_factor: f64,
}

impl AccessMonitor {
    /// Creates a monitor with the given rate window and anomaly factor.
    ///
    /// # Panics
    /// Panics if `window` is zero or `rate_factor <= 1`.
    pub fn new(window: Duration, rate_factor: f64) -> Self {
        assert!(!window.is_zero());
        assert!(rate_factor > 1.0);
        AccessMonitor {
            channels: Vec::new(),
            window,
            rate_factor,
        }
    }

    /// A monitor with a 1-second window flagging 3× rate excursions.
    pub fn with_defaults() -> Self {
        AccessMonitor::new(Duration::from_secs(1), 3.0)
    }

    /// Resolves the channel `client` → `service` to its slot, creating an
    /// unprofiled one the first time the pair appears.
    pub fn channel(
        &mut self,
        client: impl Into<Name> + AsRef<str>,
        service: impl Into<Name> + AsRef<str>,
    ) -> ChannelSlot {
        let (c, s) = (client.as_ref(), service.as_ref());
        if let Some(i) = self
            .channels
            .iter()
            .position(|ch| ch.client == c && ch.service == s)
        {
            return ChannelSlot(i);
        }
        self.channels.push(ChannelState {
            client: client.into(),
            service: service.into(),
            nominal_rate: None,
            window_count: 0,
            window_start: None,
            flagged: false,
        });
        ChannelSlot(self.channels.len() - 1)
    }

    /// Declares the nominal message rate of a channel (from the contract).
    pub fn set_nominal_rate(
        &mut self,
        client: impl Into<Name> + AsRef<str>,
        service: impl Into<Name> + AsRef<str>,
        rate_per_sec: f64,
    ) {
        let slot = self.channel(client, service);
        self.channels[slot.0].nominal_rate = Some(rate_per_sec.max(0.0));
    }

    /// Feeds one access observation.
    pub fn observe(&mut self, obs: &AccessObservation) -> Vec<Anomaly> {
        if !obs.allowed {
            return vec![Anomaly::new(
                obs.at,
                obs.client.clone(),
                AnomalyKind::AccessViolation,
                format!("denied access to `{}`", obs.service),
            )];
        }
        let slot = self.channel(&obs.client, &obs.service);
        self.observe_slot(slot, obs.at).into_iter().collect()
    }

    /// Feeds one *allowed* access on the channel resolved to `slot`: the
    /// same rate check as [`AccessMonitor::observe`], by index. Denied
    /// accesses never touch a channel's rate state; they go through
    /// [`AccessMonitor::observe`].
    ///
    /// # Panics
    /// Panics if `slot` indexes past this monitor's channels, which only a
    /// slot issued by another monitor can.
    pub fn observe_slot(&mut self, slot: ChannelSlot, at: Time) -> Option<Anomaly> {
        let window = self.window;
        let factor = self.rate_factor;
        let state = &mut self.channels[slot.0];
        match state.window_start {
            Some(start) if at.saturating_since(start) < window => {
                state.window_count += 1;
            }
            _ => {
                state.window_start = Some(at);
                state.window_count = 1;
                state.flagged = false;
            }
        }
        let nominal = state.nominal_rate?;
        let rate = state.window_count as f64 / window.as_secs_f64();
        if nominal > 0.0 && rate > nominal * factor && !state.flagged {
            state.flagged = true;
            return Some(Anomaly::new(
                at,
                state.client.clone(),
                AnomalyKind::RateAnomaly,
                format!(
                    "`{}` at {rate:.1}/s vs nominal {nominal:.1}/s",
                    state.service
                ),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed(at_ms: u64, client: &str, service: &str) -> AccessObservation {
        AccessObservation {
            at: Time::from_millis(at_ms),
            client: client.into(),
            service: service.into(),
            allowed: true,
        }
    }

    #[test]
    fn denial_is_immediate_violation() {
        let mut m = AccessMonitor::with_defaults();
        let a = m.observe(&AccessObservation {
            at: Time::ZERO,
            client: "attacker".into(),
            service: "actuator.brake".into(),
            allowed: false,
        });
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AnomalyKind::AccessViolation);
    }

    #[test]
    fn nominal_rate_passes() {
        let mut m = AccessMonitor::with_defaults();
        m.set_nominal_rate("acc", "actuator.brake", 100.0);
        // 100 msgs over 1 s: exactly nominal.
        for i in 0..100 {
            assert!(m
                .observe(&allowed(i * 10, "acc", "actuator.brake"))
                .is_empty());
        }
    }

    #[test]
    fn flooding_triggers_rate_anomaly_once_per_window() {
        let mut m = AccessMonitor::with_defaults();
        m.set_nominal_rate("brake_ctl", "actuator.brake", 100.0);
        let mut anomalies = Vec::new();
        // 1000 msgs in 500 ms: 10x nominal within one window.
        for i in 0..1000u64 {
            anomalies.extend(m.observe(&allowed(i / 2, "brake_ctl", "actuator.brake")));
        }
        assert_eq!(anomalies.len(), 1, "one flag per window");
        assert_eq!(anomalies[0].kind, AnomalyKind::RateAnomaly);
    }

    #[test]
    fn channels_are_independent() {
        let mut m = AccessMonitor::with_defaults();
        m.set_nominal_rate("a", "svc", 10.0);
        m.set_nominal_rate("b", "svc", 10_000.0);
        let mut anomalies = Vec::new();
        for i in 0..500u64 {
            anomalies.extend(m.observe(&allowed(i, "a", "svc")));
            anomalies.extend(m.observe(&allowed(i, "b", "svc")));
        }
        // Only channel a (nominal 10/s, actual ~1000/s) fires.
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].subject, "a");
    }

    #[test]
    fn slot_and_observe_share_one_channel() {
        // Messages alternate between the resolved slot and `observe`: one
        // rate window counts both paths, so the flag rises at the 301st
        // message overall (300/s over a 1 s window), and one flag covers
        // both paths until the window restarts.
        let mut m = AccessMonitor::with_defaults();
        m.set_nominal_rate("brake_ctl", "actuator.brake", 100.0);
        let slot = m.channel("brake_ctl", "actuator.brake");
        assert_eq!(m.channel("brake_ctl", "actuator.brake"), slot);
        let mut anomalies = Vec::new();
        for i in 0..1000u64 {
            if i % 2 == 0 {
                anomalies.extend(m.observe(&allowed(i / 2, "brake_ctl", "actuator.brake")));
            } else {
                anomalies.extend(m.observe_slot(slot, Time::from_millis(i / 2)));
            }
        }
        assert_eq!(anomalies.len(), 1, "one flag per window across both paths");
        assert_eq!(anomalies[0].kind, AnomalyKind::RateAnomaly);
        assert_eq!(anomalies[0].subject, "brake_ctl");
        assert_eq!(anomalies[0].at, Time::from_millis(150));
        // A message through `observe` opens the next window and clears the
        // flag the slot path raised; the slot path then flags again.
        assert!(m
            .observe(&allowed(1_000, "brake_ctl", "actuator.brake"))
            .is_empty());
        let again: Vec<_> = (0..400)
            .filter_map(|_| m.observe_slot(slot, Time::from_millis(1_001)))
            .collect();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].at, Time::from_millis(1_001));
    }

    #[test]
    fn unprofiled_channel_never_rate_flags() {
        let mut m = AccessMonitor::with_defaults();
        for i in 0..2000u64 {
            assert!(m.observe(&allowed(i / 4, "x", "y")).is_empty());
        }
    }
}
