//! The shared CAN bus: arbitration and transmission timing.
//!
//! The bus owns all attached controllers, one [`CanController`] type
//! whether a node is native or virtualized, and is advanced with
//! [`CanBus::advance`], which processes transmissions up to a target
//! instant. Arbitration follows CAN semantics: when the bus goes
//! idle, all frames that are ready at that instant compete and the lowest
//! [`arbitration key`](crate::frame::CanFrame::arbitration_key) wins (ties
//! broken by node index, modelling layout-determined bit timing skew).
//! Every transmission succeeds: the bus models no bit errors.
//!
//! A TX queue keeps each frame's key from the moment it was queued, so
//! arbitration is one scan per node, and the winner leaves its queue by
//! the index that scan found. A frame's transmission time is its exact
//! bit count; the count of its header (identifier, RTR flag and DLC) is
//! kept in a small memo, because cyclic traffic repeats headers while its
//! payloads change.

use saav_sim::time::{Duration, Time};

use crate::bitstream::{bits_after_header, header_state, HeaderState, IFS_BITS};
use crate::controller::{CanController, ControllerConfig};
use crate::frame::{CanFrame, FrameId};
use crate::virt::PfToken;

/// Identifier of a node (controller) attached to a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

#[derive(Debug)]
struct InFlight {
    sender: usize,
    frame: CanFrame,
    /// End of frame (EOF); receivers see the frame here.
    frame_end: Time,
}

/// log2 of the frame-length memo's slot count.
const FRAME_MEMO_BITS: u32 = 3;

/// Header counts of recently transmitted frames, direct-mapped into
/// 2^[`FRAME_MEMO_BITS`] slots by the header key `arbitration_key << 4 |
/// dlc`, which is unique per identifier, RTR flag and DLC. The count after
/// a frame's header depends on nothing else, so a hit is exact whatever
/// the payload, and cyclic traffic whose payload changes every period
/// still hits; only the payload and the CRC sequence are counted per
/// frame. Every slot holds a key and its header's count from
/// construction on.
#[derive(Debug)]
struct FrameBitsMemo([(u64, HeaderState); 1 << FRAME_MEMO_BITS]);

impl FrameBitsMemo {
    fn new() -> Self {
        let blank = CanFrame::remote(FrameId::Standard(0), 0).expect("valid frame");
        FrameBitsMemo([(blank.arbitration_key() << 4, header_state(&blank)); 1 << FRAME_MEMO_BITS])
    }

    /// [`frame_bits_exact`](crate::bitstream::frame_bits_exact) of
    /// `frame`, whose arbitration key is `key`; the header is counted only
    /// on a miss.
    fn bits(&mut self, key: u64, frame: &CanFrame) -> u32 {
        let key = key << 4 | u64::from(frame.dlc());
        let slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FRAME_MEMO_BITS);
        let entry = &mut self.0[slot as usize];
        if entry.0 != key {
            *entry = (key, header_state(frame));
        }
        bits_after_header(entry.1, frame)
    }
}

/// The shared CAN bus owning all attached controllers.
#[derive(Debug)]
pub struct CanBus {
    bit_time: Duration,
    now: Time,
    in_flight: Option<InFlight>,
    nodes: Vec<CanController>,
    frame_bits: FrameBitsMemo,
}

impl CanBus {
    /// Creates a bus at the given bitrate.
    ///
    /// # Panics
    /// Panics if `bitrate_bps` is zero.
    pub fn new(bitrate_bps: u32) -> Self {
        assert!(bitrate_bps > 0, "bitrate must be positive");
        CanBus {
            bit_time: Duration::from_nanos(1_000_000_000 / bitrate_bps as u64),
            now: Time::ZERO,
            in_flight: None,
            nodes: Vec::new(),
            frame_bits: FrameBitsMemo::new(),
        }
    }

    /// A 500 kbit/s bus, the classic automotive high-speed CAN rate.
    pub fn automotive_500k() -> Self {
        CanBus::new(500_000)
    }

    /// Attaches a controller, returning its node id and the PF privilege
    /// token.
    pub fn attach(&mut self, config: ControllerConfig) -> (NodeId, PfToken) {
        let (ctrl, token) = CanController::new(config);
        self.nodes.push(ctrl);
        (NodeId(self.nodes.len() - 1), token)
    }

    /// Mutable access to the controller of node `id`.
    ///
    /// # Panics
    /// Panics if the node does not exist.
    pub fn node_mut(&mut self, id: NodeId) -> &mut CanController {
        &mut self.nodes[id.0]
    }

    /// Processes all bus activity up to `to`.
    pub fn advance(&mut self, to: Time) {
        loop {
            if let Some(fl) = &self.in_flight {
                if fl.frame_end > to {
                    return;
                }
                self.complete_in_flight();
                continue;
            }
            // Bus idle: find the next arbitration instant.
            let Some(t_ready) = self
                .nodes
                .iter()
                .filter_map(CanController::bus_earliest_ready)
                .min()
            else {
                return;
            };
            let start = t_ready.max(self.now);
            if start > to {
                return;
            }
            self.start_transmission(start);
            if self.in_flight.is_none() {
                // Nothing actually ready; avoid spinning.
                return;
            }
        }
    }

    fn start_transmission(&mut self, start: Time) {
        // Arbitration among all frames ready at `start`: one scan per
        // node yields its best key and where that frame sits in its queue.
        let winner = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.bus_best_ready(start).map(|(key, index)| (key, i, index)))
            .min();
        let Some((key, sender, index)) = winner else {
            return;
        };
        let frame = self.nodes[sender].bus_take(index).frame;
        let bits = self.frame_bits.bits(key, &frame);
        let frame_end = start + self.bit_time * bits as u64;
        self.now = start;
        self.in_flight = Some(InFlight {
            sender,
            frame,
            frame_end,
        });
    }

    fn complete_in_flight(&mut self) {
        let fl = self.in_flight.take().expect("in-flight frame");
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if i != fl.sender {
                n.bus_deliver(fl.frame, fl.frame_end);
            }
        }
        // Interframe space: the next arbitration may start 3 bit times later.
        // Modelled by bumping bus time; ready frames queue up meanwhile.
        self.now = fl.frame_end + self.bit_time * IFS_BITS as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::frame_bits_exact;
    use crate::reference::ReferenceBus;
    use crate::virt::VfId;
    use saav_sim::rng::SimRng;

    fn frame(id: u16, payload: &[u8]) -> CanFrame {
        CanFrame::data(FrameId::standard(id).unwrap(), payload).unwrap()
    }

    fn native(bus: &mut CanBus) -> NodeId {
        bus.attach(ControllerConfig::default()).0
    }

    fn two_node_bus() -> (CanBus, NodeId, NodeId) {
        let mut bus = CanBus::automotive_500k();
        let a = native(&mut bus);
        let b = native(&mut bus);
        (bus, a, b)
    }

    /// Queues `frame` on VF0 of `node`, returning whether it was accepted.
    fn send(bus: &mut CanBus, node: NodeId, frame: CanFrame, at: Time) -> bool {
        bus.node_mut(node).vf_send(VfId(0), frame, at).is_ok()
    }

    /// The oldest frame VF0 of `node` sees at `at`.
    fn receive(bus: &mut CanBus, node: NodeId, at: Time) -> Option<CanFrame> {
        bus.node_mut(node).vf_receive(VfId(0), at).unwrap()
    }

    #[test]
    fn frame_travels_from_a_to_b() {
        let (mut bus, a, b) = two_node_bus();
        let f = frame(0x123, &[1, 2, 3]);
        assert!(send(&mut bus, a, f, Time::ZERO));
        bus.advance(Time::from_millis(1));
        let got = receive(&mut bus, b, Time::from_millis(1));
        assert_eq!(got, Some(f));
        // Sender does not receive its own frame.
        assert_eq!(receive(&mut bus, a, Time::from_millis(1)), None);
    }

    #[test]
    fn transmission_time_matches_bit_length() {
        let (mut bus, a, b) = two_node_bus();
        let f = frame(0x123, &[0xAA; 8]);
        let bits = frame_bits_exact(&f) as u64;
        send(&mut bus, a, f, Time::ZERO);
        bus.advance(Time::from_millis(1));
        // Earliest visibility: tx_latency (2us) + bits * 2us + rx_latency (2us).
        let expect = Duration::from_micros(2) + bus.bit_time * bits + Duration::from_micros(2);
        let just_before = Time::ZERO + expect - Duration::from_nanos(1);
        assert_eq!(receive(&mut bus, b, just_before), None);
        let at = Time::ZERO + expect;
        assert_eq!(receive(&mut bus, b, at), Some(f));
    }

    #[test]
    fn arbitration_prefers_lower_id_across_nodes() {
        let (mut bus, a, b) = two_node_bus();
        let hi = frame(0x050, &[1]);
        let lo = frame(0x700, &[2]);
        // Both ready at the same instant.
        send(&mut bus, a, lo, Time::ZERO);
        send(&mut bus, b, hi, Time::ZERO);
        let c = native(&mut bus);
        bus.advance(Time::from_millis(5));
        let t = Time::from_millis(5);
        let first = receive(&mut bus, c, t).unwrap();
        let second = receive(&mut bus, c, t).unwrap();
        assert_eq!(first, hi, "high-priority frame must win arbitration");
        assert_eq!(second, lo);
    }

    #[test]
    fn back_to_back_frames_serialize_on_the_bus() {
        let (mut bus, a, b) = two_node_bus();
        for i in 0..10u16 {
            send(&mut bus, a, frame(0x100 + i, &[i as u8]), Time::ZERO);
        }
        bus.advance(Time::from_millis(10));
        let t = Time::from_millis(10);
        let mut got = Vec::new();
        while let Some(f) = receive(&mut bus, b, t) {
            got.push(f.id().raw());
        }
        assert_eq!(got.len(), 10);
        // Priority order, since all were queued simultaneously.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn virtualized_and_native_interoperate() {
        let mut bus = CanBus::automotive_500k();
        let (v, _pf) = bus.attach(ControllerConfig::virtualized(2));
        let s = native(&mut bus);
        bus.node_mut(v)
            .vf_send(VfId(0), frame(0x321, &[9]), Time::ZERO)
            .unwrap();
        bus.advance(Time::from_millis(1));
        let got = receive(&mut bus, s, Time::from_millis(1));
        assert_eq!(got, Some(frame(0x321, &[9])));
        // And the reverse direction reaches both VFs.
        send(&mut bus, s, frame(0x55, &[1]), Time::from_millis(1));
        bus.advance(Time::from_millis(2));
        let t = Time::from_millis(2);
        for vf in [VfId(0), VfId(1)] {
            assert_eq!(
                bus.node_mut(v).vf_receive(vf, t).unwrap(),
                Some(frame(0x55, &[1]))
            );
        }
    }

    /// A random frame: standard, extended or remote, any DLC and payload.
    /// Half reuse one of four identifiers, so frames often differ from a
    /// remembered one only in payload, DLC or the remote flag.
    fn random_frame(rng: &mut SimRng) -> CanFrame {
        const SHARED: [FrameId; 4] = [
            FrameId::Standard(0x110),
            FrameId::Standard(0x120),
            FrameId::Extended(0x18DA_F110),
            FrameId::Extended(0x0000_0120),
        ];
        let id = match rng.index(4) {
            0 | 1 => SHARED[rng.index(SHARED.len())],
            2 => FrameId::Standard(rng.uniform_u64(0, 0x7FF) as u16),
            _ => FrameId::Extended(rng.uniform_u64(0, 0x1FFF_FFFF) as u32),
        };
        let dlc = rng.uniform_u64(0, 8) as usize;
        if rng.chance(0.2) {
            return CanFrame::remote(id, dlc as u8).unwrap();
        }
        // Sparse payloads, so equal-looking frames of different DLC occur.
        let payload: Vec<u8> = (0..dlc)
            .map(|_| rng.uniform_u64(0, 3) as u8 * 0x55)
            .collect();
        CanFrame::data(id, &payload).unwrap()
    }

    /// The memo returns `frame_bits_exact` for every frame of a stream that
    /// mixes repeats of a few cyclic frames with new ones, and so does the
    /// bus: every frame it carries reaches the receiver exactly when its
    /// exact length says.
    #[test]
    fn memoized_frame_bits_match_the_exact_count() {
        let mut rng = SimRng::seed_from(2017);
        let cyclic: Vec<CanFrame> = (0..6).map(|_| random_frame(&mut rng)).collect();
        let mut stream = Vec::new();
        for _ in 0..5_000 {
            stream.push(if rng.chance(0.6) {
                cyclic[rng.index(cyclic.len())]
            } else {
                random_frame(&mut rng)
            });
        }
        let mut memo = FrameBitsMemo::new();
        for f in &stream {
            assert_eq!(
                memo.bits(f.arbitration_key(), f),
                frame_bits_exact(f),
                "{f}"
            );
        }
        let (mut bus, a, b) = two_node_bus();
        // TX and RX latency of a native node: 2 us each.
        let latency = Duration::from_micros(4);
        for (i, f) in stream.iter().take(500).enumerate() {
            let at = Time::from_millis(i as u64);
            assert!(send(&mut bus, a, *f, at));
            bus.advance(at + Duration::from_micros(999));
            let visible = at + latency + bus.bit_time * frame_bits_exact(f) as u64;
            let before = visible - Duration::from_nanos(1);
            assert_eq!(receive(&mut bus, b, before), None, "{f} early");
            assert_eq!(receive(&mut bus, b, visible), Some(*f), "{f}");
        }
    }

    /// Random traffic on two or three native or virtualized nodes with
    /// short TX queues: every send is accepted or refused as on the
    /// reference bus (the original three-scan queues and the bit-serial
    /// frame length), and every VF of every node receives the frames that
    /// bus delivers, each at exactly the instant it says.
    #[test]
    fn bus_matches_the_reference_bus() {
        let mut rng = SimRng::seed_from(4242);
        let mut delivered = 0;
        for _ in 0..120 {
            let mut bus = CanBus::automotive_500k();
            let mut oracle = ReferenceBus::new(500_000);
            let mut vfs = Vec::new();
            for _ in 0..2 + rng.index(2) {
                let base = if rng.chance(0.5) {
                    ControllerConfig::default()
                } else {
                    ControllerConfig::virtualized(1 + rng.index(3))
                };
                let config = ControllerConfig {
                    tx_capacity: 1 + rng.index(3),
                    rx_capacity: 4_096,
                    ..base
                };
                vfs.push(config.num_vfs);
                oracle.attach(&config);
                bus.attach(config);
            }
            let mut now = Time::ZERO;
            for _ in 0..150 {
                now += Duration::from_nanos(rng.uniform_u64(0, 400_000));
                for _ in 0..rng.index(4) {
                    let node = rng.index(vfs.len());
                    let vf = VfId(rng.index(vfs[node]));
                    let f = random_frame(&mut rng);
                    let sent = bus.node_mut(NodeId(node)).vf_send(vf, f, now).is_ok();
                    assert_eq!(sent, oracle.send(node, f, now), "{f} at {now}");
                }
                bus.advance(now);
                oracle.advance(now);
            }
            let end = now + Duration::from_secs(1);
            bus.advance(end);
            oracle.advance(end);
            for (node, want) in oracle.nodes.iter().enumerate() {
                let ctrl = bus.node_mut(NodeId(node));
                for vf in (0..vfs[node]).map(VfId) {
                    for &(f, visible) in &want.received {
                        let before = visible - Duration::from_nanos(1);
                        assert_eq!(ctrl.vf_receive(vf, before), Ok(None), "{f} early");
                        assert_eq!(ctrl.vf_receive(vf, visible), Ok(Some(f)), "{f}");
                    }
                    assert_eq!(ctrl.vf_receive(vf, end), Ok(None));
                }
                delivered += want.received.len();
            }
        }
        assert!(delivered > 20_000, "{delivered} deliveries");
    }

    /// A quota re-posted every tick keeps its bucket: a VF offering 20
    /// frames per 10 ms under 120 frames/s with a burst of 10, re-posted
    /// each time, sends at most one second's rate plus one burst, and a
    /// reader receives no more.
    #[test]
    fn reposted_quota_holds_the_rate() {
        let mut bus = CanBus::automotive_500k();
        let (sender, pf) = bus.attach(ControllerConfig::virtualized(2));
        let reader = native(&mut bus);
        let flood = frame(0x10F, &[0, 1]);
        let (mut accepted, mut received) = (0, 0);
        for tick in 0..100 {
            let now = Time::from_millis(10 * tick);
            let ctrl = bus.node_mut(sender);
            ctrl.pf_set_vf_quota(&pf, VfId(1), 120.0, 10.0).unwrap();
            for _ in 0..20 {
                accepted += ctrl.vf_send(VfId(1), flood, now).is_ok() as u32;
            }
            bus.advance(now);
            while receive(&mut bus, reader, now).is_some() {
                received += 1;
            }
        }
        assert!(accepted <= 130, "{accepted} frames accepted");
        assert!(received <= accepted, "{received} of {accepted} received");
        assert!(received >= 120, "{received} frames received");
    }
}
