//! The CAN controller of Fig. 2: a protocol layer (TX queue, RX FIFOs,
//! driver latencies) behind the virtualization layer of [`virt`](crate::virt).
//!
//! There is one controller type. Its [`ControllerConfig`] sets the number
//! of virtual functions and the wrapper latencies: a native controller is
//! [`ControllerConfig::default()`], one function and no wrapper, and the
//! paper's virtualized controller is [`ControllerConfig::virtualized`].
//!
//! Latency model: software enqueues a frame at time `t`; the frame becomes
//! eligible for bus arbitration at `t + tx_overhead + tx_latency` (wrapper,
//! then driver, register writes, mailbox arbitration). A received frame
//! completed on the bus at time `t` becomes visible to software at
//! `t + rx_latency + rx_overhead` (interrupt + FIFO read, then wrapper).
//! Both overheads are zero on a native controller. The configuration
//! never changes after construction, so the controller sums each path's
//! delay once there.
//!
//! The [`TxQueue`] stores each frame's arbitration key when the frame is
//! queued. The bus asks each node once per arbitration for its best ready
//! frame, as a key and a queue index, and takes the winner by that index.

use saav_sim::time::{Duration, Time};

use crate::frame::CanFrame;
use crate::virt::{PfToken, VfId, VirtError, VirtualFunction};

/// A frame queued for transmission.
#[derive(Debug, Clone, Copy)]
pub struct QueuedFrame {
    /// The frame itself.
    pub frame: CanFrame,
    /// The frame's [`arbitration key`](CanFrame::arbitration_key),
    /// computed once when it is queued.
    pub key: u64,
    /// When it becomes eligible for bus arbitration.
    pub ready_at: Time,
    /// Enqueue order, for FIFO tie-breaking among equal priorities.
    pub seq: u64,
}

/// Bounded, priority-ordered TX queue with readiness times.
///
/// Short automotive TX queues are scanned linearly; correctness and
/// determinism matter more here than asymptotics (queues hold a handful of
/// frames). Each frame's arbitration key is computed once, when it is
/// pushed, and one scan finds the frame to send.
#[derive(Debug, Clone)]
pub struct TxQueue {
    frames: Vec<QueuedFrame>,
    next_seq: u64,
    capacity: usize,
}

impl TxQueue {
    /// Creates a queue that rejects frames beyond `capacity`.
    pub fn new(capacity: usize) -> Self {
        TxQueue {
            frames: Vec::new(),
            next_seq: 0,
            capacity,
        }
    }

    /// Enqueues a frame that becomes ready at `ready_at`, returning the
    /// frame's queue sequence number.
    ///
    /// Returns `None` (dropping the frame) when the queue is full.
    pub fn push(&mut self, frame: CanFrame, ready_at: Time) -> Option<u64> {
        if self.frames.len() >= self.capacity {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push(QueuedFrame {
            frame,
            key: frame.arbitration_key(),
            ready_at,
            seq,
        });
        Some(seq)
    }

    /// Earliest readiness time over all queued frames.
    pub fn earliest_ready(&self) -> Option<Time> {
        self.frames.iter().map(|f| f.ready_at).min()
    }

    /// The highest-priority frame ready at `at`, as its arbitration key
    /// and its index for [`take`](Self::take): the lowest `(key, seq)`, so
    /// equal keys leave first-in first-out.
    pub(crate) fn best_ready(&self, at: Time) -> Option<(u64, usize)> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ready_at <= at)
            .min_by_key(|(_, f)| (f.key, f.seq))
            .map(|(i, f)| (f.key, i))
    }

    /// Removes and returns the frame at `index`.
    pub(crate) fn take(&mut self, index: usize) -> QueuedFrame {
        self.frames.remove(index)
    }

    /// Removes and returns the highest-priority frame ready at `at`
    /// (FIFO among equal keys).
    pub fn pop_best_ready(&mut self, at: Time) -> Option<QueuedFrame> {
        let (_, index) = self.best_ready(at)?;
        Some(self.take(index))
    }
}

/// A frame waiting in an RX FIFO until software may see it.
#[derive(Debug, Clone, Copy)]
struct RxEntry {
    frame: CanFrame,
    visible_at: Time,
}

/// Software-visible RX FIFO with a visibility latency per frame.
#[derive(Debug, Clone)]
pub struct RxFifo {
    entries: Vec<RxEntry>,
    capacity: usize,
}

impl RxFifo {
    /// Creates a FIFO holding up to `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        RxFifo {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Pushes a received frame that becomes visible at `visible_at`. On
    /// overflow the *newest* frame is dropped, matching common CAN
    /// controller FIFO semantics.
    pub fn push(&mut self, frame: CanFrame, visible_at: Time) {
        if self.entries.len() < self.capacity {
            self.entries.push(RxEntry { frame, visible_at });
        }
    }

    /// Pops the oldest frame visible at `now`, if any.
    pub fn pop(&mut self, now: Time) -> Option<CanFrame> {
        let idx = self.entries.iter().position(|e| e.visible_at <= now)?;
        Some(self.entries.remove(idx).frame)
    }
}

/// Configuration of a controller: its protocol layer and the wrapper of
/// its virtualization layer.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Number of virtual functions provisioned in hardware.
    pub num_vfs: usize,
    /// Protocol-layer software-to-bus readiness latency.
    pub tx_latency: Duration,
    /// Protocol-layer bus-to-software visibility latency.
    pub rx_latency: Duration,
    /// TX queue depth (mailbox count) per virtual function.
    pub tx_capacity: usize,
    /// RX FIFO depth of each virtual function.
    pub rx_capacity: usize,
    /// VM-to-VF doorbell write latency.
    pub doorbell_latency: Duration,
    /// Fixed TX multiplexer latency of the wrapper.
    pub wrapper_tx_base: Duration,
    /// Additional TX latency per extra VF (mux scan).
    pub wrapper_tx_per_vf: Duration,
    /// Fixed RX demultiplexer latency of the wrapper.
    pub wrapper_rx_base: Duration,
    /// Additional RX latency per extra VF.
    pub wrapper_rx_per_vf: Duration,
    /// Virtual interrupt injection latency.
    pub virq_latency: Duration,
}

impl Default for ControllerConfig {
    /// A native controller: one function and no wrapper latency.
    fn default() -> Self {
        ControllerConfig {
            num_vfs: 1,
            tx_latency: Duration::from_nanos(2_000),
            rx_latency: Duration::from_nanos(2_000),
            tx_capacity: 16,
            rx_capacity: 32,
            doorbell_latency: Duration::ZERO,
            wrapper_tx_base: Duration::ZERO,
            wrapper_tx_per_vf: Duration::ZERO,
            wrapper_rx_base: Duration::ZERO,
            wrapper_rx_per_vf: Duration::ZERO,
            virq_latency: Duration::ZERO,
        }
    }
}

impl ControllerConfig {
    /// Total added TX-path latency of the wrapper.
    pub(crate) fn tx_overhead(&self) -> Duration {
        let extra = self.num_vfs.saturating_sub(1) as u64;
        self.doorbell_latency + self.wrapper_tx_base + self.wrapper_tx_per_vf * extra
    }

    /// Total added RX-path latency of the wrapper.
    pub(crate) fn rx_overhead(&self) -> Duration {
        let extra = self.num_vfs.saturating_sub(1) as u64;
        self.wrapper_rx_base + self.wrapper_rx_per_vf * extra + self.virq_latency
    }

    /// The paper's virtualized controller with `num_vfs` functions and the
    /// wrapper calibration of the [`virt`](crate::virt) module docs.
    pub fn virtualized(num_vfs: usize) -> Self {
        ControllerConfig {
            num_vfs,
            doorbell_latency: Duration::from_nanos(1_400),
            wrapper_tx_base: Duration::from_nanos(2_600),
            wrapper_tx_per_vf: Duration::from_nanos(300),
            wrapper_rx_base: Duration::from_nanos(2_200),
            wrapper_rx_per_vf: Duration::from_nanos(200),
            virq_latency: Duration::from_nanos(800),
            ..ControllerConfig::default()
        }
    }
}

/// A CAN controller: protocol layer + virtualization layer.
#[derive(Debug)]
pub struct CanController {
    vfs: Vec<VirtualFunction>,
    /// Merged, priority-ordered staging queue of the wrapper.
    tx: TxQueue,
    /// Enqueue to arbitration readiness: wrapper overhead + `tx_latency`.
    tx_delay: Duration,
    /// Bus completion to software visibility: `rx_latency` + wrapper
    /// overhead.
    rx_delay: Duration,
}

impl CanController {
    /// Creates a controller and hands out its unique [`PfToken`].
    ///
    /// All VFs start with unlimited quota.
    ///
    /// # Panics
    /// Panics if `num_vfs` is zero.
    pub(crate) fn new(config: ControllerConfig) -> (Self, PfToken) {
        assert!(config.num_vfs > 0, "need at least one VF");
        let vfs = (0..config.num_vfs)
            .map(|_| VirtualFunction::new(config.rx_capacity))
            .collect();
        let ctrl = CanController {
            vfs,
            tx: TxQueue::new(config.tx_capacity * config.num_vfs),
            tx_delay: config.tx_overhead() + config.tx_latency,
            rx_delay: config.rx_latency + config.rx_overhead(),
        };
        (ctrl, PfToken(()))
    }

    fn vf_mut(&mut self, vf: VfId) -> Result<&mut VirtualFunction, VirtError> {
        self.vfs.get_mut(vf.0).ok_or(VirtError::InvalidVf)
    }

    // ---- VF (data path) interface ----

    /// Queues `frame` for transmission on behalf of `vf` at time `now`.
    ///
    /// # Errors
    /// [`VirtError::InvalidVf`], [`VirtError::QuotaExceeded`] or
    /// [`VirtError::QueueFull`].
    pub fn vf_send(&mut self, vf: VfId, frame: CanFrame, now: Time) -> Result<(), VirtError> {
        if !self.vf_mut(vf)?.quota.try_take(now) {
            return Err(VirtError::QuotaExceeded);
        }
        let ready = now + self.tx_delay;
        self.tx.push(frame, ready).ok_or(VirtError::QueueFull)?;
        Ok(())
    }

    /// Retrieves the oldest frame visible to `vf` at `now`.
    ///
    /// # Errors
    /// [`VirtError::InvalidVf`].
    pub fn vf_receive(&mut self, vf: VfId, now: Time) -> Result<Option<CanFrame>, VirtError> {
        Ok(self.vf_mut(vf)?.rx.pop(now))
    }

    // ---- PF (privileged) interface ----

    /// Sets a VF transmit quota (token bucket). Privileged. A changed
    /// rate or burst starts a full bucket; re-posting the VF's current
    /// quota leaves its bucket as it is.
    ///
    /// # Errors
    /// [`VirtError::InvalidVf`].
    pub fn pf_set_vf_quota(
        &mut self,
        _token: &PfToken,
        vf: VfId,
        rate_per_sec: f64,
        burst: f64,
    ) -> Result<(), VirtError> {
        self.vf_mut(vf)?.quota.set(rate_per_sec, burst);
        Ok(())
    }

    // ---- bus-side interface (used by `CanBus`) ----

    pub(crate) fn bus_earliest_ready(&self) -> Option<Time> {
        self.tx.earliest_ready()
    }

    pub(crate) fn bus_best_ready(&self, at: Time) -> Option<(u64, usize)> {
        self.tx.best_ready(at)
    }

    pub(crate) fn bus_take(&mut self, index: usize) -> QueuedFrame {
        self.tx.take(index)
    }

    pub(crate) fn bus_deliver(&mut self, frame: CanFrame, completed_at: Time) {
        let visible_at = completed_at + self.rx_delay;
        for v in &mut self.vfs {
            v.rx.push(frame, visible_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;
    use crate::reference::ScanQueue;
    use saav_sim::rng::SimRng;

    fn sid(id: u16) -> FrameId {
        FrameId::standard(id).unwrap()
    }

    fn frame(id: u16) -> CanFrame {
        CanFrame::data(sid(id), &[0]).unwrap()
    }

    fn native(config: ControllerConfig) -> CanController {
        CanController::new(config).0
    }

    #[test]
    fn tx_queue_orders_by_priority_then_fifo() {
        let mut q = TxQueue::new(8);
        let t = Time::ZERO;
        q.push(frame(0x300), t);
        q.push(frame(0x100), t);
        q.push(frame(0x100), t); // same id, later seq
        let a = q.pop_best_ready(t).unwrap();
        assert_eq!(a.frame.id(), sid(0x100));
        assert_eq!(a.seq, 1);
        let b = q.pop_best_ready(t).unwrap();
        assert_eq!(b.seq, 2);
        assert_eq!(q.pop_best_ready(t).unwrap().frame.id(), sid(0x300));
    }

    #[test]
    fn tx_queue_respects_readiness() {
        let mut q = TxQueue::new(8);
        q.push(frame(0x100), Time::from_micros(10));
        q.push(frame(0x200), Time::from_micros(1));
        // At t=5 only 0x200 is ready, despite 0x100's higher priority.
        assert_eq!(
            q.best_ready(Time::from_micros(5)),
            Some((frame(0x200).arbitration_key(), 1))
        );
        assert_eq!(
            q.pop_best_ready(Time::from_micros(5)).unwrap().frame.id(),
            sid(0x200)
        );
        assert_eq!(q.earliest_ready(), Some(Time::from_micros(10)));
    }

    /// The one-scan queue makes every decision of the original
    /// three-scan queue: the same refusals when full, the same earliest
    /// readiness and best ready key, and the same frame, readiness and
    /// sequence number on every pop. Pushes come with non-monotone ready
    /// times and few distinct keys, so equal keys must leave first-in
    /// first-out; queries and pops come at random instants.
    #[test]
    fn tx_queue_matches_the_three_scan_oracle() {
        let ids = [
            sid(0x100),
            sid(0x101),
            FrameId::Extended(0x100 << 18),
            FrameId::Extended(0x100 << 18 | 1),
        ];
        let mut rng = SimRng::seed_from(2017);
        let (mut pops, mut refusals) = (0, 0);
        for _ in 0..300 {
            let capacity = 1 + rng.index(8);
            let mut fast = TxQueue::new(capacity);
            let mut oracle = ScanQueue::new(capacity);
            for _ in 0..80 {
                let at = Time::from_micros(rng.uniform_u64(0, 100));
                if rng.chance(0.55) {
                    let id = ids[rng.index(ids.len())];
                    let frame = if rng.chance(0.2) {
                        CanFrame::remote(id, rng.uniform_u64(0, 8) as u8).unwrap()
                    } else {
                        CanFrame::data(id, &[rng.index(256) as u8]).unwrap()
                    };
                    let seq = fast.push(frame, at);
                    assert_eq!(seq, oracle.push(frame, at));
                    refusals += seq.is_none() as u32;
                } else {
                    assert_eq!(fast.earliest_ready(), oracle.earliest_ready());
                    let best = fast.best_ready(at).map(|(key, _)| key);
                    assert_eq!(best, oracle.best_ready_key(at));
                    let got = fast.pop_best_ready(at);
                    if let Some(q) = got {
                        assert_eq!(q.key, q.frame.arbitration_key());
                        pops += 1;
                    }
                    let got = got.map(|q| (q.frame, q.ready_at, q.seq));
                    assert_eq!(got, oracle.pop_best_ready(at));
                }
            }
        }
        assert!(
            pops > 3_000 && refusals > 1_000,
            "{pops} pops, {refusals} refusals"
        );
    }

    #[test]
    fn bounded_queue_drops_when_full() {
        let mut c = native(ControllerConfig {
            tx_capacity: 1,
            ..ControllerConfig::default()
        });
        assert_eq!(c.vf_send(VfId(0), frame(1), Time::ZERO), Ok(()));
        assert_eq!(
            c.vf_send(VfId(0), frame(2), Time::ZERO),
            Err(VirtError::QueueFull)
        );
    }

    #[test]
    fn rx_visibility_latency() {
        let mut c = native(ControllerConfig::default());
        c.bus_deliver(frame(0x10), Time::from_micros(100));
        assert_eq!(c.vf_receive(VfId(0), Time::from_micros(100)), Ok(None));
        assert_eq!(
            c.vf_receive(VfId(0), Time::from_micros(102)),
            Ok(Some(frame(0x10)))
        );
    }

    #[test]
    fn rx_fifo_overrun_drops_newest() {
        let mut fifo = RxFifo::new(2);
        for id in 1..=3 {
            fifo.push(frame(id), Time::ZERO);
        }
        assert_eq!(fifo.pop(Time::ZERO), Some(frame(1)));
        assert_eq!(fifo.pop(Time::ZERO), Some(frame(2)));
        assert_eq!(fifo.pop(Time::ZERO), None);
    }
}
