//! The virtualized CAN controller of Fig. 2 (Herber et al. \[8\]).
//!
//! A traditional CAN controller (the *protocol layer*) is extended by a
//! hardware *virtualization layer* that multiplexes several **virtual
//! functions** (VFs, one per VM) onto one protocol engine. VFs provide
//! data-path functionality only; the privileged operation, setting a VF's
//! transmit quota, is reserved to the **physical function** (PF), which
//! only privileged software — the hypervisor running an MCC — may access.
//! The PF privilege is expressed in the type system:
//! [`VirtualizedCanController::pf_set_vf_quota`] requires a [`PfToken`],
//! handed out exactly once per controller. Every VF receives every frame.
//!
//! # Latency model
//!
//! The wrapper adds store-and-forward and multiplexing delays to the native
//! controller path. Constants are calibrated so that a round-trip (TX through
//! the virtualization layer, echo by a remote node, RX through the
//! virtualization layer) adds **≈7 µs with 1 VF, growing to ≈11 µs with 8
//! VFs** over the native controller, reproducing the 7–11 µs figure the
//! paper reports from the FPGA prototype:
//!
//! | path | added latency |
//! |---|---|
//! | TX | doorbell 1.4 µs + mux 2.6 µs + 0.3 µs per extra VF |
//! | RX | demux 2.2 µs + 0.2 µs per extra VF + virtual IRQ 0.8 µs |

use std::fmt;

use saav_sim::time::{Duration, Time};

use crate::controller::{ControllerConfig, QueuedFrame, RxFifo, TxQueue};
use crate::frame::CanFrame;

/// Identifier of a virtual function within one virtualized controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VfId(pub usize);

impl fmt::Display for VfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vf{}", self.0)
    }
}

/// Capability token for physical-function (privileged) operations.
///
/// Obtained once from [`VirtualizedCanController::new`]; possession models
/// the hypervisor privilege boundary of the paper.
#[derive(Debug)]
pub struct PfToken {
    _private: (),
}

/// Errors returned by the virtualization layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtError {
    /// The VF index does not exist.
    InvalidVf,
    /// The VF exceeded its transmit quota (token bucket empty).
    QuotaExceeded,
    /// The VF TX queue is full.
    QueueFull,
}

impl fmt::Display for VirtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VirtError::InvalidVf => "invalid virtual function",
            VirtError::QuotaExceeded => "transmit quota exceeded",
            VirtError::QueueFull => "transmit queue full",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VirtError {}

/// Per-VF statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfStats {
    /// Frames successfully transmitted for this VF.
    pub tx_frames: u64,
    /// Frames delivered to this VF's RX FIFO.
    pub rx_frames: u64,
    /// Frames rejected due to quota or a full queue.
    pub tx_rejected: u64,
}

/// Token-bucket transmit quota.
#[derive(Debug, Clone, Copy)]
struct TxQuota {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill: Time,
}

impl TxQuota {
    fn unlimited() -> Self {
        TxQuota {
            rate_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
            tokens: f64::INFINITY,
            last_refill: Time::ZERO,
        }
    }

    fn limited(rate_per_sec: f64, burst: f64) -> Self {
        TxQuota {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill: Time::ZERO,
        }
    }

    fn try_take(&mut self, now: Time) -> bool {
        if self.rate_per_sec.is_infinite() {
            return true;
        }
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[derive(Debug)]
struct VirtualFunction {
    rx: RxFifo,
    quota: TxQuota,
    stats: VfStats,
}

/// Configuration of a virtualized CAN controller.
#[derive(Debug, Clone)]
pub struct VirtCanConfig {
    /// Number of virtual functions provisioned in hardware.
    pub num_vfs: usize,
    /// Protocol-layer (native controller) latencies and capacities.
    pub base: ControllerConfig,
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

impl VirtCanConfig {
    /// The calibration used for the paper's experiment (see module docs).
    pub fn calibrated(num_vfs: usize) -> Self {
        VirtCanConfig {
            num_vfs,
            base: ControllerConfig::default(),
            doorbell_latency: Duration::from_nanos(1_400),
            wrapper_tx_base: Duration::from_nanos(2_600),
            wrapper_tx_per_vf: Duration::from_nanos(300),
            wrapper_rx_base: Duration::from_nanos(2_200),
            wrapper_rx_per_vf: Duration::from_nanos(200),
            virq_latency: Duration::from_nanos(800),
        }
    }
}

/// A virtualized CAN controller: protocol layer + virtualization layer.
#[derive(Debug)]
pub struct VirtualizedCanController {
    config: VirtCanConfig,
    vfs: Vec<VirtualFunction>,
    /// Merged, priority-ordered staging queue of the wrapper; each staged
    /// frame carries the index of its originating VF.
    tx: TxQueue,
}

impl VirtualizedCanController {
    /// Creates a controller and hands out its unique [`PfToken`].
    ///
    /// All VFs start with unlimited quota.
    ///
    /// # Panics
    /// Panics if `num_vfs` is zero.
    pub fn new(config: VirtCanConfig) -> (Self, PfToken) {
        assert!(config.num_vfs > 0, "need at least one VF");
        let vfs = (0..config.num_vfs)
            .map(|_| VirtualFunction {
                rx: RxFifo::new(config.base.rx_capacity),
                quota: TxQuota::unlimited(),
                stats: VfStats::default(),
            })
            .collect();
        let ctrl = VirtualizedCanController {
            vfs,
            tx: TxQueue::bounded(config.base.tx_capacity * config.num_vfs),
            config,
        };
        (ctrl, PfToken { _private: () })
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
        let tx_latency = self.config.base.tx_latency;
        let v = self.vf_mut(vf)?;
        if !v.quota.try_take(now) {
            v.stats.tx_rejected += 1;
            return Err(VirtError::QuotaExceeded);
        }
        let ready = now + tx_overhead + tx_latency;
        // The staged frame records its owner for stats and isolation
        // accounting.
        if self.tx.push_owned(frame, ready, vf.0).is_none() {
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

    // ---- bus-side interface ----

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
        if let Some(v) = self.vfs.get_mut(q.owner) {
            v.stats.tx_frames += 1;
        }
    }

    pub(crate) fn bus_deliver(&mut self, frame: CanFrame, completed_at: Time) {
        let rx_overhead = self.rx_overhead();
        let rx_latency = self.config.base.rx_latency;
        for v in &mut self.vfs {
            v.rx.push(frame, completed_at + rx_latency + rx_overhead);
            v.stats.rx_frames += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;

    fn frame(id: u16) -> CanFrame {
        CanFrame::data(FrameId::standard(id).unwrap(), &[0xAA]).unwrap()
    }

    fn controller(n: usize) -> (VirtualizedCanController, PfToken) {
        VirtualizedCanController::new(VirtCanConfig::calibrated(n))
    }

    #[test]
    fn vf_send_and_staging() {
        let (mut c, _pf) = controller(2);
        c.vf_send(VfId(0), frame(0x100), Time::ZERO).unwrap();
        c.vf_send(VfId(1), frame(0x50), Time::ZERO).unwrap();
        // Higher-priority frame (0x50) wins the wrapper mux.
        let ready = c.bus_earliest_ready().unwrap();
        let q = c.bus_take_frame(ready).unwrap();
        assert_eq!(q.frame.id(), FrameId::standard(0x50).unwrap());
        c.bus_tx_success(&q);
        assert_eq!(c.vf_stats(VfId(1)).unwrap().tx_frames, 1);
        assert_eq!(c.vf_stats(VfId(0)).unwrap().tx_frames, 0);
    }

    #[test]
    fn invalid_vf_is_an_error() {
        let (mut c, _pf) = controller(1);
        assert_eq!(
            c.vf_send(VfId(5), frame(1), Time::ZERO),
            Err(VirtError::InvalidVf)
        );
    }

    #[test]
    fn broadcast_delivers_to_all_matching_vfs() {
        let (mut c, _pf) = controller(3);
        c.bus_deliver(frame(0x42), Time::ZERO);
        let late = Time::from_millis(1);
        for i in 0..3 {
            assert_eq!(c.vf_receive(VfId(i), late).unwrap(), Some(frame(0x42)));
        }
    }

    #[test]
    fn quota_throttles_flooding_vm() {
        let (mut c, pf) = controller(2);
        c.pf_set_vf_quota(&pf, VfId(0), 10.0, 2.0).unwrap();
        let now = Time::ZERO;
        assert!(c.vf_send(VfId(0), frame(1), now).is_ok());
        assert!(c.vf_send(VfId(0), frame(1), now).is_ok());
        assert_eq!(
            c.vf_send(VfId(0), frame(1), now),
            Err(VirtError::QuotaExceeded)
        );
        // Other VM unaffected.
        assert!(c.vf_send(VfId(1), frame(1), now).is_ok());
        // After 100 ms one token refilled.
        assert!(c.vf_send(VfId(0), frame(1), Time::from_millis(100)).is_ok());
        assert_eq!(c.vf_stats(VfId(0)).unwrap().tx_rejected, 1);
    }

    #[test]
    fn latency_overheads_grow_with_enabled_vfs() {
        let (c1, _p1) = controller(1);
        let (c8, _p8) = controller(8);
        let rt1 = c1.tx_overhead() + c1.rx_overhead();
        let rt8 = c8.tx_overhead() + c8.rx_overhead();
        assert!(rt1 < rt8);
        // Calibration targets: ~7 us at 1 VF, <= 11 us at 8 VFs.
        assert!(
            rt1.as_micros_f64() >= 6.5 && rt1.as_micros_f64() <= 7.5,
            "{rt1}"
        );
        assert!(
            rt8.as_micros_f64() >= 9.5 && rt8.as_micros_f64() <= 11.0,
            "{rt8}"
        );
    }
}
