//! # saav-can — CAN bus and virtualized CAN controller
//!
//! Communication substrate of the SAAV workspace, reproducing Sec. III and
//! Fig. 2 of Schlatow et al. (DATE 2017): a classic CAN bus with bit-accurate
//! frame timing, standard controllers, and the **virtualized CAN controller**
//! with its physical-function / virtual-function (PF/VF) split.
//!
//! * [`frame`] — CAN 2.0 frames with arbitration-faithful priority keys.
//! * [`bitstream`] — bit-level encoding: CRC-15, bit stuffing, exact frame
//!   lengths used for transmission timing.
//! * [`controller`] — acceptance filters, TX queues, RX FIFOs, the standard
//!   controller.
//! * [`virt`] — the virtualized controller: per-VM VFs (data path only),
//!   privileged PF operations gated by a capability token, per-VF quotas and
//!   the calibrated wrapper latency model (≈7–11 µs added round trip).
//! * [`bus`] — arbitration, transmission timing, error injection and
//!   TEC/REC error confinement with bus-off.
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
//! use saav_sim::time::Time;
//!
//! # fn main() -> Result<(), saav_can::frame::FrameError> {
//! let mut bus = CanBus::automotive_500k(42);
//! let tx = bus.attach_standard(ControllerConfig::default());
//! let rx = bus.attach_standard(ControllerConfig::default());
//! let frame = CanFrame::data(FrameId::standard(0x123)?, &[1, 2, 3])?;
//! bus.standard_mut(tx).send(frame, Time::ZERO);
//! bus.advance(Time::from_millis(1));
//! assert_eq!(bus.standard_mut(rx).receive(Time::from_millis(1)), Some(frame));
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

pub use bus::{BusStats, CanBus, NodeId};
pub use controller::{AcceptanceFilter, CanController, ControllerConfig};
pub use frame::{CanFrame, FrameError, FrameId};
pub use v2v::{LinkFault, PeerId, V2vChannel, V2vMessage};
pub use virt::{PfToken, VfId, VirtCanConfig, VirtError, VirtualizedCanController};
