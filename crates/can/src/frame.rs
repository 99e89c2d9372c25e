//! CAN 2.0 frames and identifiers.
//!
//! Frame identifiers follow CAN arbitration semantics: a numerically lower
//! identifier has higher bus priority, and a standard (11-bit) frame wins
//! against an extended (29-bit) frame with the same 11-bit base because the
//! standard frame transmits dominant bits (RTR/IDE) where the extended frame
//! transmits recessive ones. [`CanFrame::arbitration_key`] encodes exactly
//! this ordering as an integer key.

use std::fmt;

/// Maximum payload of a classic CAN frame in bytes.
pub const MAX_PAYLOAD: usize = 8;

/// A CAN frame identifier, standard (11-bit) or extended (29-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameId {
    /// 11-bit identifier (CAN 2.0A).
    Standard(u16),
    /// 29-bit identifier (CAN 2.0B).
    Extended(u32),
}

impl FrameId {
    /// Creates a standard id, validating the 11-bit range.
    ///
    /// # Errors
    /// Returns [`FrameError::IdOutOfRange`] if `id >= 0x800`.
    pub fn standard(id: u16) -> Result<Self, FrameError> {
        if id >= 0x800 {
            Err(FrameError::IdOutOfRange)
        } else {
            Ok(FrameId::Standard(id))
        }
    }

    /// Creates an extended id, validating the 29-bit range.
    ///
    /// # Errors
    /// Returns [`FrameError::IdOutOfRange`] if `id >= 0x2000_0000`.
    pub fn extended(id: u32) -> Result<Self, FrameError> {
        if id >= 0x2000_0000 {
            Err(FrameError::IdOutOfRange)
        } else {
            Ok(FrameId::Extended(id))
        }
    }

    /// The raw identifier value.
    pub fn raw(self) -> u32 {
        match self {
            FrameId::Standard(id) => id as u32,
            FrameId::Extended(id) => id,
        }
    }

    /// The 11-bit base identifier (for extended ids, the top 11 bits).
    pub fn base11(self) -> u16 {
        match self {
            FrameId::Standard(id) => id,
            FrameId::Extended(id) => (id >> 18) as u16,
        }
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameId::Standard(id) => write!(f, "0x{id:03X}"),
            FrameId::Extended(id) => write!(f, "0x{id:08X}x"),
        }
    }
}

/// Errors constructing frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Identifier exceeds the 11-bit (standard) or 29-bit (extended) range.
    IdOutOfRange,
    /// Payload longer than [`MAX_PAYLOAD`].
    PayloadTooLong,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::IdOutOfRange => write!(f, "identifier out of range"),
            FrameError::PayloadTooLong => {
                write!(f, "payload exceeds {MAX_PAYLOAD} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A classic CAN data or remote frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanFrame {
    id: FrameId,
    remote: bool,
    len: u8,
    data: [u8; MAX_PAYLOAD],
}

impl CanFrame {
    /// Creates a data frame.
    ///
    /// # Errors
    /// Returns [`FrameError::PayloadTooLong`] for payloads over 8 bytes.
    #[inline]
    pub fn data(id: FrameId, payload: &[u8]) -> Result<Self, FrameError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(FrameError::PayloadTooLong);
        }
        let mut data = [0u8; MAX_PAYLOAD];
        data[..payload.len()].copy_from_slice(payload);
        Ok(CanFrame {
            id,
            remote: false,
            len: payload.len() as u8,
            data,
        })
    }

    /// Creates a remote (request) frame with the given DLC.
    ///
    /// # Errors
    /// Returns [`FrameError::PayloadTooLong`] if `dlc > 8`.
    pub fn remote(id: FrameId, dlc: u8) -> Result<Self, FrameError> {
        if dlc as usize > MAX_PAYLOAD {
            return Err(FrameError::PayloadTooLong);
        }
        Ok(CanFrame {
            id,
            remote: true,
            len: dlc,
            data: [0u8; MAX_PAYLOAD],
        })
    }

    /// The frame identifier.
    pub fn id(&self) -> FrameId {
        self.id
    }

    /// Whether this is a remote frame.
    pub fn is_remote(&self) -> bool {
        self.remote
    }

    /// Data length code (payload bytes for data frames).
    pub fn dlc(&self) -> u8 {
        self.len
    }

    /// The payload (empty for remote frames).
    pub fn payload(&self) -> &[u8] {
        if self.remote {
            &[]
        } else {
            &self.data[..self.len as usize]
        }
    }

    /// Bus-priority key: **lower key wins arbitration**.
    ///
    /// Layout (33 bits in a `u64`), following the order bits appear on the
    /// wire: base id (11) · RTR/SRR (1) · IDE (1) · extended id (18) ·
    /// extended RTR (1). Dominant bits are 0, so integer order equals
    /// arbitration order.
    #[inline]
    pub fn arbitration_key(&self) -> u64 {
        match self.id {
            FrameId::Standard(base) => {
                let rtr = self.remote as u64;
                (base as u64) << 21 | rtr << 20
            }
            FrameId::Extended(id) => {
                let base = (id >> 18) as u64;
                let ext = (id & 0x3_FFFF) as u64;
                let rtr = self.remote as u64;
                base << 21 | 1 << 20 | 1 << 19 | ext << 1 | rtr
            }
        }
    }
}

impl fmt::Display for CanFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.remote {
            write!(f, "{} RTR dlc={}", self.id, self.len)
        } else {
            write!(f, "{} [", self.id)?;
            for (i, b) in self.payload().iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{b:02X}")?;
            }
            write!(f, "]")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(id: u16) -> FrameId {
        FrameId::standard(id).unwrap()
    }

    fn xid(id: u32) -> FrameId {
        FrameId::extended(id).unwrap()
    }

    #[test]
    fn id_validation() {
        assert!(FrameId::standard(0x7FF).is_ok());
        assert_eq!(FrameId::standard(0x800), Err(FrameError::IdOutOfRange));
        assert!(FrameId::extended(0x1FFF_FFFF).is_ok());
        assert_eq!(
            FrameId::extended(0x2000_0000),
            Err(FrameError::IdOutOfRange)
        );
    }

    #[test]
    fn payload_validation_and_access() {
        let f = CanFrame::data(sid(0x100), &[1, 2, 3]).unwrap();
        assert_eq!(f.dlc(), 3);
        assert_eq!(f.payload(), &[1, 2, 3]);
        assert!(CanFrame::data(sid(1), &[0; 9]).is_err());
        assert!(CanFrame::remote(sid(1), 9).is_err());
    }

    #[test]
    fn remote_frames_have_empty_payload() {
        let f = CanFrame::remote(sid(0x200), 4).unwrap();
        assert!(f.is_remote());
        assert_eq!(f.dlc(), 4);
        assert_eq!(f.payload(), &[] as &[u8]);
    }

    #[test]
    fn lower_id_wins_arbitration() {
        let hi = CanFrame::data(sid(0x100), &[]).unwrap();
        let lo = CanFrame::data(sid(0x101), &[]).unwrap();
        assert!(hi.arbitration_key() < lo.arbitration_key());
    }

    #[test]
    fn standard_beats_extended_with_same_base() {
        let base = 0x123u16;
        let std_data = CanFrame::data(sid(base), &[]).unwrap();
        let std_rtr = CanFrame::remote(sid(base), 0).unwrap();
        let ext = CanFrame::data(xid((base as u32) << 18), &[]).unwrap();
        assert!(std_data.arbitration_key() < ext.arbitration_key());
        // Even a standard *remote* frame beats the extended frame (IDE bit).
        assert!(std_rtr.arbitration_key() < ext.arbitration_key());
    }

    #[test]
    fn data_beats_remote_same_id() {
        let d = CanFrame::data(sid(0x55), &[1]).unwrap();
        let r = CanFrame::remote(sid(0x55), 1).unwrap();
        assert!(d.arbitration_key() < r.arbitration_key());
    }

    #[test]
    fn extended_order_follows_full_id() {
        let a = CanFrame::data(xid(0x0ABC_0001), &[]).unwrap();
        let b = CanFrame::data(xid(0x0ABC_0002), &[]).unwrap();
        assert!(a.arbitration_key() < b.arbitration_key());
    }

    #[test]
    fn base11_extraction() {
        assert_eq!(sid(0x7FF).base11(), 0x7FF);
        assert_eq!(xid(0x1FFF_FFFF).base11(), 0x7FF);
        assert_eq!(xid(0x0004_0000).base11(), 1);
    }

    #[test]
    fn display_formats() {
        let f = CanFrame::data(sid(0x12), &[0xAB, 0x01]).unwrap();
        assert_eq!(f.to_string(), "0x012 [AB 01]");
        let r = CanFrame::remote(xid(0x1234), 2).unwrap();
        assert!(r.to_string().contains("RTR"));
    }
}
