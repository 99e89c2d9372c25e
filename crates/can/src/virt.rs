//! The virtualization layer of the CAN controller of Fig. 2 (Herber et
//! al. \[8\]).
//!
//! A traditional CAN controller (the *protocol layer*) is extended by a
//! hardware *virtualization layer* that multiplexes several **virtual
//! functions** (VFs, one per VM) onto one protocol engine. VFs provide
//! data-path functionality only; the privileged operation, setting a VF's
//! transmit quota, is reserved to the **physical function** (PF), which
//! only privileged software — the hypervisor running an MCC — may access.
//! The PF privilege is expressed in the type system:
//! [`CanController::pf_set_vf_quota`] requires a [`PfToken`], handed out
//! exactly once per controller. Every VF receives every frame.
//!
//! This module holds the layer's vocabulary (VF ids, the PF token, errors
//! and per-VF quotas); [`CanController`] is the one controller
//! type. A native controller is the same design with one VF and no wrapper
//! latency ([`ControllerConfig::default`]).
//!
//! # Latency model
//!
//! The wrapper adds store-and-forward and multiplexing delays to the native
//! controller path. [`ControllerConfig::virtualized`] calibrates them so
//! that a round-trip (TX through the virtualization layer, echo by a remote
//! node, RX through the virtualization layer) adds **≈7 µs with 1 VF,
//! growing to ≈11 µs with 8 VFs** over the native controller, reproducing
//! the 7–11 µs figure the paper reports from the FPGA prototype:
//!
//! | path | added latency |
//! |---|---|
//! | TX | doorbell 1.4 µs + mux 2.6 µs + 0.3 µs per extra VF |
//! | RX | demux 2.2 µs + 0.2 µs per extra VF + virtual IRQ 0.8 µs |
//!
//! [`CanController`]: crate::controller::CanController
//! [`CanController::pf_set_vf_quota`]: crate::controller::CanController::pf_set_vf_quota
//! [`ControllerConfig::default`]: crate::controller::ControllerConfig
//! [`ControllerConfig::virtualized`]: crate::controller::ControllerConfig::virtualized

use std::fmt;

use saav_sim::time::Time;

use crate::controller::RxFifo;

/// Identifier of a virtual function within one controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VfId(pub usize);

impl fmt::Display for VfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vf{}", self.0)
    }
}

/// Capability token for physical-function (privileged) operations.
///
/// Handed out once per controller by [`CanBus::attach`]; possession models
/// the hypervisor privilege boundary of the paper.
///
/// [`CanBus::attach`]: crate::bus::CanBus::attach
#[derive(Debug)]
pub struct PfToken(pub(crate) ());

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

/// Token-bucket transmit quota.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxQuota {
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

    pub(crate) fn limited(rate_per_sec: f64, burst: f64) -> Self {
        TxQuota {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill: Time::ZERO,
        }
    }

    pub(crate) fn try_take(&mut self, now: Time) -> bool {
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

/// One VF's RX FIFO and transmit quota.
#[derive(Debug)]
pub(crate) struct VirtualFunction {
    pub(crate) rx: RxFifo,
    pub(crate) quota: TxQuota,
}

impl VirtualFunction {
    /// A VF with an empty RX FIFO of `rx_capacity` frames and unlimited
    /// quota.
    pub(crate) fn new(rx_capacity: usize) -> Self {
        VirtualFunction {
            rx: RxFifo::new(rx_capacity),
            quota: TxQuota::unlimited(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CanController, ControllerConfig};
    use crate::frame::{CanFrame, FrameId};

    fn frame(id: u16) -> CanFrame {
        CanFrame::data(FrameId::standard(id).unwrap(), &[0xAA]).unwrap()
    }

    fn controller(n: usize) -> (CanController, PfToken) {
        CanController::new(ControllerConfig::virtualized(n))
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
    }

    #[test]
    fn latency_overheads_grow_with_vfs() {
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
