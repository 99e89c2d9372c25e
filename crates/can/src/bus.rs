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

use saav_sim::time::{Duration, Time};

use crate::bitstream::{frame_bits_exact, IFS_BITS};
use crate::controller::{CanController, ControllerConfig, QueuedFrame};
use crate::frame::{CanFrame, FrameId};
use crate::virt::PfToken;

/// Identifier of a node (controller) attached to a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

#[derive(Debug)]
struct InFlight {
    sender: usize,
    queued: QueuedFrame,
    /// End of frame (EOF); receivers see the frame here.
    frame_end: Time,
}

/// log2 of the frame-length memo's slot count.
const FRAME_MEMO_BITS: u32 = 3;

/// Exact lengths of recently transmitted frames, direct-mapped by a hash
/// of the whole frame into 2^[`FRAME_MEMO_BITS`] slots. Cyclic traffic
/// repeats the same frames every period, and a hit costs one frame
/// comparison instead of a CRC and a stuffing count. Every slot holds a
/// frame and its exact length from construction on, so a hit is exact.
#[derive(Debug)]
struct FrameBitsMemo([(CanFrame, u32); 1 << FRAME_MEMO_BITS]);

impl FrameBitsMemo {
    fn new() -> Self {
        let blank = CanFrame::remote(FrameId::Standard(0), 0).expect("valid frame");
        FrameBitsMemo([(blank, frame_bits_exact(&blank)); 1 << FRAME_MEMO_BITS])
    }

    /// [`frame_bits_exact`] of `frame`, computed only on a miss.
    fn bits(&mut self, frame: &CanFrame) -> u32 {
        let key =
            frame.arbitration_key() ^ frame.data_word().rotate_left(32) ^ u64::from(frame.dlc());
        let slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FRAME_MEMO_BITS);
        let entry = &mut self.0[slot as usize];
        if entry.0 != *frame {
            *entry = (*frame, frame_bits_exact(frame));
        }
        entry.1
    }
}

/// Aggregate bus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusStats {
    /// Successfully transmitted frames.
    pub frames_ok: u64,
    /// Accumulated bus-busy time.
    pub busy_time: Duration,
}

impl BusStats {
    /// Bus utilization over the elapsed time `now`.
    pub fn utilization(&self, now: Time) -> f64 {
        if now == Time::ZERO {
            0.0
        } else {
            self.busy_time.as_secs_f64() / now.saturating_since(Time::ZERO).as_secs_f64()
        }
    }
}

/// The shared CAN bus owning all attached controllers.
#[derive(Debug)]
pub struct CanBus {
    bit_time: Duration,
    now: Time,
    in_flight: Option<InFlight>,
    nodes: Vec<CanController>,
    stats: BusStats,
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
            stats: BusStats::default(),
            frame_bits: FrameBitsMemo::new(),
        }
    }

    /// A 500 kbit/s bus, the classic automotive high-speed CAN rate.
    pub fn automotive_500k() -> Self {
        CanBus::new(500_000)
    }

    /// The nominal bit time.
    pub fn bit_time(&self) -> Duration {
        self.bit_time
    }

    /// Attaches a controller, returning its node id and the PF privilege
    /// token.
    pub fn attach(&mut self, config: ControllerConfig) -> (NodeId, PfToken) {
        let (ctrl, token) = CanController::new(config);
        self.nodes.push(ctrl);
        (NodeId(self.nodes.len() - 1), token)
    }

    /// Number of attached nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes are attached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The controller of node `id`.
    ///
    /// # Panics
    /// Panics if the node does not exist.
    pub fn node(&self, id: NodeId) -> &CanController {
        &self.nodes[id.0]
    }

    /// Mutable access to the controller of node `id`.
    ///
    /// # Panics
    /// Panics if the node does not exist.
    pub fn node_mut(&mut self, id: NodeId) -> &mut CanController {
        &mut self.nodes[id.0]
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Current bus-internal time (last processed event).
    pub fn now(&self) -> Time {
        self.now
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
        // Arbitration among all frames ready at `start`.
        let winner = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.bus_best_key(start).map(|k| (k, i)))
            .min();
        let Some((_key, sender)) = winner else {
            return;
        };
        let queued = self.nodes[sender]
            .bus_take_frame(start)
            .expect("winner must have a ready frame");
        let bits = self.frame_bits.bits(&queued.frame);
        let frame_end = start + self.bit_time * bits as u64;
        self.now = start;
        self.in_flight = Some(InFlight {
            sender,
            queued,
            frame_end,
        });
    }

    fn complete_in_flight(&mut self) {
        let fl = self.in_flight.take().expect("in-flight frame");
        self.stats.frames_ok += 1;
        self.stats.busy_time += fl.frame_end.saturating_since(self.now);
        self.now = fl.frame_end;
        let frame = fl.queued.frame;
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if i == fl.sender {
                n.bus_tx_success(&fl.queued);
            } else {
                n.bus_deliver(frame, fl.frame_end);
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
        assert_eq!(bus.stats().frames_ok, 1);
        assert_eq!(bus.node(a).vf_stats(VfId(0)).unwrap().tx_frames, 1);
        assert_eq!(bus.node(b).vf_stats(VfId(0)).unwrap().rx_frames, 1);
    }

    #[test]
    fn transmission_time_matches_bit_length() {
        let (mut bus, a, b) = two_node_bus();
        let f = frame(0x123, &[0xAA; 8]);
        let bits = frame_bits_exact(&f) as u64;
        send(&mut bus, a, f, Time::ZERO);
        bus.advance(Time::from_millis(1));
        // Earliest visibility: tx_latency (2us) + bits * 2us + rx_latency (2us).
        let expect = Duration::from_micros(2) + bus.bit_time() * bits + Duration::from_micros(2);
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
        assert!(bus.stats().utilization(t) > 0.0);
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
    /// bus: its busy time is the exact length of every frame it carried.
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
            assert_eq!(memo.bits(f), frame_bits_exact(f), "{f}");
        }
        let (mut bus, a, _b) = two_node_bus();
        let mut busy = Duration::ZERO;
        for (i, f) in stream.iter().take(500).enumerate() {
            let at = Time::from_millis(i as u64);
            assert!(send(&mut bus, a, *f, at));
            bus.advance(at + Duration::from_micros(999));
            busy += bus.bit_time() * frame_bits_exact(f) as u64;
        }
        assert_eq!(bus.stats().frames_ok, 500);
        assert_eq!(bus.stats().busy_time, busy);
    }

    #[test]
    fn bus_utilization_accumulates() {
        let mut bus = CanBus::automotive_500k();
        let (a, _) = bus.attach(ControllerConfig {
            tx_capacity: 128,
            ..ControllerConfig::default()
        });
        let _b = native(&mut bus);
        for _ in 0..100 {
            assert!(send(&mut bus, a, frame(0x100, &[0xFF; 8]), Time::ZERO));
        }
        bus.advance(Time::from_millis(50));
        let u = bus.stats().utilization(Time::from_millis(50));
        assert!(u > 0.4, "utilization {u}");
        assert!(u <= 1.0);
    }
}
