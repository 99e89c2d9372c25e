//! # saav-can — CAN bus and virtualized CAN controller
//!
//! Communication substrate of the SAAV workspace, reproducing Sec. III and
//! Fig. 2 of Schlatow et al. (DATE 2017): a classic CAN bus with bit-accurate
//! frame timing and the **virtualized CAN controller** with its
//! physical-function / virtual-function (PF/VF) split. Every node is that
//! one controller type; a native controller is its configuration with one
//! VF and no wrapper latency.
//!
//! * [`frame`] — CAN 2.0 frames with arbitration-faithful priority keys.
//! * [`bitstream`] — bit-level encoding: CRC-15, bit stuffing, exact frame
//!   lengths used for transmission timing.
//! * [`controller`] — the one controller type: TX queue, RX FIFOs and its
//!   configuration, native ([`ControllerConfig::default`]) or virtualized
//!   ([`ControllerConfig::virtualized`]).
//! * [`virt`] — the virtualization layer: per-VM VFs (data path only),
//!   per-VF transmit quotas set through the PF behind a capability token,
//!   and the calibrated wrapper latency model (≈7–11 µs added round trip).
//! * [`bus`] — arbitration and bit-accurate transmission timing.
//! * [`resources`] — the FPGA cost model showing break-even with stand-alone
//!   controllers at four VMs (experiment E2).
//! * [`v2v`] — the vehicle-to-vehicle broadcast channel platoons negotiate
//!   over, with deterministic per-link loss/delay/spoofing faults
//!   (experiment E13).
//!
//! ```
//! use saav_can::bus::CanBus;
//! use saav_can::controller::ControllerConfig;
//! use saav_can::frame::{CanFrame, FrameId};
//! use saav_can::virt::VfId;
//! use saav_sim::time::Time;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bus = CanBus::automotive_500k();
//! let (tx, _) = bus.attach(ControllerConfig::default()); // native
//! let (rx, _pf) = bus.attach(ControllerConfig::virtualized(2));
//! let frame = CanFrame::data(FrameId::standard(0x123)?, &[1, 2, 3])?;
//! bus.node_mut(tx).vf_send(VfId(0), frame, Time::ZERO)?;
//! bus.advance(Time::from_millis(1));
//! // Every VF of the receiving controller sees the frame.
//! let at = Time::from_millis(1);
//! assert_eq!(bus.node_mut(rx).vf_receive(VfId(1), at)?, Some(frame));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod bus;
pub mod controller;
pub mod frame;
pub mod resources;
pub mod v2v;
pub mod virt;

pub use bus::{CanBus, NodeId};
pub use controller::{CanController, ControllerConfig};
pub use frame::{CanFrame, FrameError, FrameId};
pub use v2v::{LinkFault, PeerId, V2vChannel, V2vMessage};
pub use virt::{PfToken, VfId, VirtError};
