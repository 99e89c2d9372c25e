//! A V2V broadcast channel with per-link loss, delay and spoofing faults.
//!
//! Platoon members periodically broadcast safe-speed claims to their
//! peers. Like the virtualized CAN controller ([`crate::virt`]), the
//! channel is a deterministic simulation artifact: deliveries pop from a
//! time-ordered [`EventQueue`] and every random draw comes from a seeded
//! [`SimRng`], so a run is bit-reproducible from its seed.
//!
//! Faults are modeled *per outgoing link* — the wireless path from one
//! sender to the rest of the platoon:
//!
//! * **loss** — each broadcast is dropped with probability `loss_p`
//!   (fading, congestion, jamming);
//! * **delay** — delivery lags the send instant by a fixed latency;
//! * **spoofing** — a man-in-the-middle replaces the claim value in
//!   transit, so even an honest sender can be misrepresented.
//!
//! ```
//! use saav_can::v2v::{LinkFault, PeerId, V2vChannel};
//! use saav_sim::time::{Duration, Time};
//!
//! let mut ch = V2vChannel::new(3, 42);
//! ch.set_link_fault(PeerId(1), LinkFault::default().with_delay(Duration::from_millis(50)));
//! ch.broadcast(Time::ZERO, PeerId(0), 22.0);
//! ch.broadcast(Time::ZERO, PeerId(1), 21.0);
//! // Peer 0's claim arrives immediately; peer 1's is still in flight.
//! let due = ch.poll_due(Time::ZERO);
//! assert_eq!(due.len(), 1);
//! assert_eq!(due[0].from, PeerId(0));
//! assert_eq!(ch.poll_due(Time::from_millis(50)).len(), 1);
//! ```

use saav_sim::event::EventQueue;
use saav_sim::rng::SimRng;
use saav_sim::time::{Duration, Time};

/// Identifier of a V2V peer (the platoon member index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub usize);

/// One broadcast safe-speed claim, as delivered to the receivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct V2vMessage {
    /// The sending peer.
    pub from: PeerId,
    /// The claimed safe speed (m/s) — possibly spoofed in transit.
    pub claim_mps: f64,
    /// When the claim was sent.
    pub sent_at: Time,
}

/// Fault model of one peer's outgoing broadcast link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability in `[0, 1]` that an outgoing broadcast is lost entirely.
    pub loss_p: f64,
    /// Fixed propagation/queueing delay added to every delivery.
    pub delay: Duration,
    /// Man-in-the-middle: when set, every claim on this link is replaced
    /// with this value in transit.
    pub spoof_mps: Option<f64>,
}

impl Default for LinkFault {
    /// A healthy link: no loss, no delay, no spoofing.
    fn default() -> Self {
        LinkFault {
            loss_p: 0.0,
            delay: Duration::ZERO,
            spoof_mps: None,
        }
    }
}

impl LinkFault {
    /// A link dropping each broadcast with probability `loss_p`.
    pub fn lossy(loss_p: f64) -> Self {
        LinkFault {
            loss_p,
            ..LinkFault::default()
        }
    }

    /// A compromised link replacing every claim with `claim_mps`.
    pub fn spoofed(claim_mps: f64) -> Self {
        LinkFault {
            spoof_mps: Some(claim_mps),
            ..LinkFault::default()
        }
    }

    /// Adds a fixed delivery delay to this fault model.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }
}

/// The deterministic V2V broadcast channel of one platoon.
#[derive(Debug)]
pub struct V2vChannel {
    faults: Vec<LinkFault>,
    in_flight: EventQueue<V2vMessage>,
    rng: SimRng,
    sent: u64,
    dropped: u64,
    delayed: u64,
}

impl V2vChannel {
    /// Creates a channel for `peers` members with healthy links; `seed`
    /// drives the loss draws.
    pub fn new(peers: usize, seed: u64) -> Self {
        V2vChannel {
            faults: vec![LinkFault::default(); peers],
            in_flight: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            sent: 0,
            dropped: 0,
            delayed: 0,
        }
    }

    /// Installs a fault model on `peer`'s outgoing link.
    ///
    /// # Panics
    /// Panics on an invalid peer id.
    pub fn set_link_fault(&mut self, peer: PeerId, fault: LinkFault) {
        self.faults[peer.0] = fault;
    }

    /// Broadcasts a safe-speed claim from `from` at `now`, applying the
    /// link's fault model. A lost broadcast never enters the queue.
    ///
    /// # Panics
    /// Panics on an invalid peer id.
    pub fn broadcast(&mut self, now: Time, from: PeerId, claim_mps: f64) {
        let fault = self.faults[from.0];
        self.sent += 1;
        if fault.loss_p > 0.0 && self.rng.chance(fault.loss_p) {
            self.dropped += 1;
            return;
        }
        let claim = fault.spoof_mps.unwrap_or(claim_mps);
        if !fault.delay.is_zero() {
            self.delayed += 1;
        }
        self.in_flight.schedule(
            now + fault.delay,
            V2vMessage {
                from,
                claim_mps: claim,
                sent_at: now,
            },
        );
    }

    /// Pops every message whose delivery instant is at or before `now`, in
    /// delivery order (FIFO on ties — deterministic).
    pub fn poll_due(&mut self, now: Time) -> Vec<V2vMessage> {
        let mut due = Vec::new();
        while let Some((_, msg)) = self.in_flight.pop_due(now) {
            due.push(msg);
        }
        due
    }

    /// Broadcasts attempted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Broadcasts lost to link faults.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Broadcasts that entered the queue late (a nonzero per-link delay).
    pub fn delayed(&self) -> u64 {
        self.delayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_links_deliver_immediately_in_send_order() {
        let mut ch = V2vChannel::new(4, 1);
        for i in 0..4 {
            ch.broadcast(Time::from_secs(1), PeerId(i), 20.0 + i as f64);
        }
        let due = ch.poll_due(Time::from_secs(1));
        assert_eq!(due.len(), 4);
        let senders: Vec<usize> = due.iter().map(|m| m.from.0).collect();
        assert_eq!(senders, vec![0, 1, 2, 3]);
        assert!(
            ch.poll_due(Time::from_secs(2)).is_empty(),
            "each delivered once"
        );
        assert_eq!(ch.dropped(), 0);
    }

    #[test]
    fn delayed_link_holds_delivery_until_due() {
        let mut ch = V2vChannel::new(2, 2);
        ch.set_link_fault(
            PeerId(1),
            LinkFault::default().with_delay(Duration::from_millis(100)),
        );
        ch.broadcast(Time::ZERO, PeerId(1), 19.0);
        assert!(ch.poll_due(Time::from_millis(99)).is_empty());
        let due = ch.poll_due(Time::from_millis(100));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].sent_at, Time::ZERO);
        assert!(
            ch.poll_due(Time::from_secs(1)).is_empty(),
            "nothing left in flight"
        );
        assert_eq!(ch.delayed(), 1);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let run = |seed: u64| {
            let mut ch = V2vChannel::new(1, seed);
            ch.set_link_fault(PeerId(0), LinkFault::lossy(0.5));
            for k in 0..100 {
                ch.broadcast(Time::from_millis(k), PeerId(0), 22.0);
            }
            let delivered = ch.poll_due(Time::from_secs(1)).len();
            (delivered, ch.dropped())
        };
        let (delivered, dropped) = run(7);
        assert_eq!(delivered as u64 + dropped, 100);
        assert!(dropped > 20 && dropped < 80, "p=0.5 drop count {dropped}");
        // Same seed, same losses — bit-reproducible.
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seeds draw differently");
    }

    #[test]
    fn certain_loss_delivers_nothing() {
        let mut ch = V2vChannel::new(1, 3);
        ch.set_link_fault(PeerId(0), LinkFault::lossy(1.0));
        for _ in 0..10 {
            ch.broadcast(Time::ZERO, PeerId(0), 22.0);
        }
        assert!(ch.poll_due(Time::from_secs(1)).is_empty());
        assert_eq!(ch.dropped(), 10);
        assert_eq!(ch.sent(), 10);
    }

    #[test]
    fn spoofed_link_replaces_the_claim() {
        let mut ch = V2vChannel::new(2, 4);
        ch.set_link_fault(PeerId(0), LinkFault::spoofed(90.0));
        ch.broadcast(Time::ZERO, PeerId(0), 22.0);
        ch.broadcast(Time::ZERO, PeerId(1), 21.0);
        let due = ch.poll_due(Time::ZERO);
        assert_eq!(due[0].claim_mps, 90.0, "spoofed in transit");
        assert_eq!(due[1].claim_mps, 21.0, "honest link untouched");
    }

    #[test]
    fn mixed_delays_deliver_in_time_order() {
        let mut ch = V2vChannel::new(3, 5);
        ch.set_link_fault(
            PeerId(0),
            LinkFault::default().with_delay(Duration::from_millis(200)),
        );
        ch.set_link_fault(
            PeerId(1),
            LinkFault::default().with_delay(Duration::from_millis(50)),
        );
        for i in 0..3 {
            ch.broadcast(Time::ZERO, PeerId(i), 20.0);
        }
        let due = ch.poll_due(Time::from_secs(1));
        let senders: Vec<usize> = due.iter().map(|m| m.from.0).collect();
        assert_eq!(senders, vec![2, 1, 0], "ordered by delivery instant");
    }
}
