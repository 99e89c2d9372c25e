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
//! Both overheads are zero on a native controller.

use saav_sim::time::{Duration, Time};

use crate::frame::CanFrame;
use crate::virt::{PfToken, TxQuota, VfId, VfStats, VirtError, VirtualFunction};

/// A frame queued for transmission.
#[derive(Debug, Clone, Copy)]
pub struct QueuedFrame {
    /// The frame itself.
    pub frame: CanFrame,
    /// When it becomes eligible for bus arbitration.
    pub ready_at: Time,
    /// Enqueue order, for FIFO tie-breaking among equal priorities.
    pub seq: u64,
    /// The virtual function that queued the frame.
    pub(crate) owner: VfId,
}

/// Bounded, priority-ordered TX queue with readiness times.
///
/// Short automotive TX queues are scanned linearly; correctness and
/// determinism matter more here than asymptotics (queues hold a handful of
/// frames).
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

    /// Enqueues a frame of virtual function `owner` that becomes ready at
    /// `ready_at`, returning the frame's queue sequence number. The frame
    /// carries its owner through arbitration and completion.
    ///
    /// Returns `None` (dropping the frame) when the queue is full.
    pub fn push(&mut self, frame: CanFrame, ready_at: Time, owner: VfId) -> Option<u64> {
        if self.frames.len() >= self.capacity {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push(QueuedFrame {
            frame,
            ready_at,
            seq,
            owner,
        });
        Some(seq)
    }

    /// Earliest readiness time over all queued frames.
    pub fn earliest_ready(&self) -> Option<Time> {
        self.frames.iter().map(|f| f.ready_at).min()
    }

    /// Best (lowest) arbitration key among frames ready at `at`.
    pub fn best_ready_key(&self, at: Time) -> Option<u64> {
        self.frames
            .iter()
            .filter(|f| f.ready_at <= at)
            .map(|f| f.frame.arbitration_key())
            .min()
    }

    /// Removes and returns the highest-priority frame ready at `at`
    /// (FIFO among equal keys).
    pub fn pop_best_ready(&mut self, at: Time) -> Option<QueuedFrame> {
        let idx = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ready_at <= at)
            .min_by_key(|(_, f)| (f.frame.arbitration_key(), f.seq))
            .map(|(i, _)| i)?;
        Some(self.frames.remove(idx))
    }

    /// Number of queued frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
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
    overruns: u64,
}

impl RxFifo {
    /// Creates a FIFO holding up to `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        RxFifo {
            entries: Vec::new(),
            capacity,
            overruns: 0,
        }
    }

    /// Pushes a received frame that becomes visible at `visible_at`,
    /// returning whether the FIFO stored it. On overflow the *newest* frame
    /// is dropped and counted as an overrun, matching common CAN controller
    /// FIFO semantics.
    pub fn push(&mut self, frame: CanFrame, visible_at: Time) -> bool {
        if self.entries.len() >= self.capacity {
            self.overruns += 1;
            return false;
        }
        self.entries.push(RxEntry { frame, visible_at });
        true
    }

    /// Pops the oldest frame visible at `now`, if any.
    pub fn pop(&mut self, now: Time) -> Option<CanFrame> {
        let idx = self.entries.iter().position(|e| e.visible_at <= now)?;
        Some(self.entries.remove(idx).frame)
    }

    /// Frames currently buffered (visible or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Frames dropped due to FIFO overflow.
    pub fn overruns(&self) -> u64 {
        self.overruns
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
    config: ControllerConfig,
    vfs: Vec<VirtualFunction>,
    /// Merged, priority-ordered staging queue of the wrapper; each staged
    /// frame carries its originating VF.
    tx: TxQueue,
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
            config,
        };
        (ctrl, PfToken(()))
    }

    /// Number of provisioned VFs.
    pub fn num_vfs(&self) -> usize {
        self.vfs.len()
    }

    fn vf(&self, vf: VfId) -> Result<&VirtualFunction, VirtError> {
        self.vfs.get(vf.0).ok_or(VirtError::InvalidVf)
    }

    fn vf_mut(&mut self, vf: VfId) -> Result<&mut VirtualFunction, VirtError> {
        self.vfs.get_mut(vf.0).ok_or(VirtError::InvalidVf)
    }

    /// Total added TX-path latency of the virtualization layer.
    pub fn tx_overhead(&self) -> Duration {
        let extra = self.num_vfs().saturating_sub(1) as u64;
        self.config.doorbell_latency
            + self.config.wrapper_tx_base
            + self.config.wrapper_tx_per_vf * extra
    }

    /// Total added RX-path latency of the virtualization layer.
    pub fn rx_overhead(&self) -> Duration {
        let extra = self.num_vfs().saturating_sub(1) as u64;
        self.config.wrapper_rx_base
            + self.config.wrapper_rx_per_vf * extra
            + self.config.virq_latency
    }

    // ---- VF (data path) interface ----

    /// Queues `frame` for transmission on behalf of `vf` at time `now`.
    ///
    /// # Errors
    /// [`VirtError::InvalidVf`], [`VirtError::QuotaExceeded`] or
    /// [`VirtError::QueueFull`].
    pub fn vf_send(&mut self, vf: VfId, frame: CanFrame, now: Time) -> Result<(), VirtError> {
        let tx_overhead = self.tx_overhead();
        let tx_latency = self.config.tx_latency;
        let v = self.vf_mut(vf)?;
        if !v.quota.try_take(now) {
            v.stats.tx_rejected += 1;
            return Err(VirtError::QuotaExceeded);
        }
        let ready = now + tx_overhead + tx_latency;
        if self.tx.push(frame, ready, vf).is_none() {
            self.vf_mut(vf)?.stats.tx_rejected += 1;
            return Err(VirtError::QueueFull);
        }
        Ok(())
    }

    /// Retrieves the oldest frame visible to `vf` at `now`.
    ///
    /// # Errors
    /// [`VirtError::InvalidVf`].
    pub fn vf_receive(&mut self, vf: VfId, now: Time) -> Result<Option<CanFrame>, VirtError> {
        Ok(self.vf_mut(vf)?.rx.pop(now))
    }

    /// Per-VF statistics.
    ///
    /// # Errors
    /// [`VirtError::InvalidVf`].
    pub fn vf_stats(&self, vf: VfId) -> Result<VfStats, VirtError> {
        Ok(self.vf(vf)?.stats)
    }

    // ---- PF (privileged) interface ----

    /// Sets a VF transmit quota (token bucket). Privileged.
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
        self.vf_mut(vf)?.quota = TxQuota::limited(rate_per_sec, burst);
        Ok(())
    }

    // ---- bus-side interface (used by `CanBus`) ----

    pub(crate) fn bus_earliest_ready(&self) -> Option<Time> {
        self.tx.earliest_ready()
    }

    pub(crate) fn bus_best_key(&self, at: Time) -> Option<u64> {
        self.tx.best_ready_key(at)
    }

    pub(crate) fn bus_take_frame(&mut self, at: Time) -> Option<QueuedFrame> {
        self.tx.pop_best_ready(at)
    }

    pub(crate) fn bus_tx_success(&mut self, q: &QueuedFrame) {
        if let Some(v) = self.vfs.get_mut(q.owner.0) {
            v.stats.tx_frames += 1;
        }
    }

    pub(crate) fn bus_deliver(&mut self, frame: CanFrame, completed_at: Time) {
        let visible_at = completed_at + self.config.rx_latency + self.rx_overhead();
        for v in &mut self.vfs {
            if v.rx.push(frame, visible_at) {
                v.stats.rx_frames += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;

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
        q.push(frame(0x300), t, VfId(0));
        q.push(frame(0x100), t, VfId(0));
        q.push(frame(0x100), t, VfId(0)); // same id, later seq
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
        q.push(frame(0x100), Time::from_micros(10), VfId(0));
        q.push(frame(0x200), Time::from_micros(1), VfId(0));
        // At t=5 only 0x200 is ready, despite 0x100's higher priority.
        assert_eq!(
            q.best_ready_key(Time::from_micros(5)),
            Some(frame(0x200).arbitration_key())
        );
        assert_eq!(
            q.pop_best_ready(Time::from_micros(5)).unwrap().frame.id(),
            sid(0x200)
        );
        assert_eq!(q.earliest_ready(), Some(Time::from_micros(10)));
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
        assert_eq!(c.vf_stats(VfId(0)).unwrap().tx_rejected, 1);
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
    fn rx_frames_counts_only_stored_frames() {
        let mut c = native(ControllerConfig {
            rx_capacity: 2,
            ..ControllerConfig::default()
        });
        for id in 1..=3 {
            c.bus_deliver(frame(id), Time::ZERO);
        }
        assert_eq!(c.vf_stats(VfId(0)).unwrap().rx_frames, 2);
        assert_eq!(c.vfs[0].rx.overruns(), 1);
    }

    #[test]
    fn rx_fifo_overrun_drops_newest() {
        let mut fifo = RxFifo::new(2);
        assert!(fifo.push(frame(1), Time::ZERO));
        assert!(fifo.push(frame(2), Time::ZERO));
        assert!(!fifo.push(frame(3), Time::ZERO));
        assert_eq!(fifo.overruns(), 1);
        assert_eq!(fifo.pop(Time::ZERO), Some(frame(1)));
        assert_eq!(fifo.pop(Time::ZERO), Some(frame(2)));
        assert_eq!(fifo.pop(Time::ZERO), None);
    }
}
