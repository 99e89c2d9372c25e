//! Bit-level CAN frame encoding: field layout, CRC-15 and bit stuffing.
//!
//! The bus simulation needs the *exact* number of bits a frame occupies on
//! the wire (including stuff bits) to compute transmission times. This module
//! builds the unstuffed bit sequence of a frame, computes the CAN CRC-15
//! (polynomial `0x4599`) over the fields the standard covers, applies the
//! 5-bit stuffing rule to the stuffable region (SOF through CRC sequence) and
//! accounts for the fixed-form tail (CRC delimiter, ACK, EOF) plus the
//! 3-bit interframe space.
//!
//! [`frame_bits_exact`] counts the same bits without building them: the
//! CRC register and the stuffing automaton each take a byte per table
//! lookup, first over the header (SOF, arbitration and control fields),
//! then over the payload and the CRC sequence. The count after the header
//! depends on the identifier, RTR flag and DLC alone, so the bus keeps it
//! per header and counts only the rest of each frame.

use crate::frame::{CanFrame, FrameId};

/// Bits of the fixed-form (never stuffed) frame tail:
/// CRC delimiter (1) + ACK slot (1) + ACK delimiter (1) + EOF (7).
pub const TAIL_BITS: u32 = 10;

/// Interframe space (intermission) between consecutive frames.
pub const IFS_BITS: u32 = 3;

/// One step of the CAN CRC-15 register (MSB-first), polynomial `x^15 +
/// x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1` (`0x4599`).
#[inline]
const fn crc15_step(crc: u16, bit: bool) -> u16 {
    let crc_nxt = (bit as u16) ^ ((crc >> 14) & 1);
    let crc = (crc << 1) & 0x7FFF;
    if crc_nxt != 0 {
        crc ^ 0x4599
    } else {
        crc
    }
}

/// CAN CRC-15 over a bit sequence (MSB-first), polynomial `x^15 + x^14 +
/// x^10 + x^8 + x^7 + x^4 + x^3 + 1` (`0x4599`).
pub fn crc15(bits: &[bool]) -> u16 {
    bits.iter().fold(0, |crc, &bit| crc15_step(crc, bit))
}

/// Byte-wise CRC-15: entry `x` is the register after feeding the eight
/// bits of `x`, MSB first, into a zero register. The CRC is linear, so
/// feeding byte `b` into register `r` gives
/// `(r << 8) & 0x7FFF ^ CRC15_TABLE[(r >> 7) ^ b]`.
const CRC15_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut x = 0;
    while x < 256 {
        let mut crc = 0;
        let mut i = 0;
        while i < 8 {
            crc = crc15_step(crc, (x >> (7 - i)) & 1 == 1);
            i += 1;
        }
        table[x] = crc;
        x += 1;
    }
    table
};

/// States of the stuffing automaton: the polarity and length of the
/// current run of equal bits, `2 * len + bit`. Length 0 is the empty
/// start; length 5 never persists, because the fifth equal bit inserts a
/// stuff bit that starts a new run of one.
const STUFF_STATES: usize = 10;

/// One bit through the stuffing automaton of [`stuff`]: the next state
/// and whether a stuff bit follows the input bit.
const fn stuff_step(state: u8, bit: bool) -> (u8, bool) {
    let (run_bit, run_len) = (state & 1 == 1, state / 2);
    let run_len = if run_len > 0 && bit == run_bit {
        run_len + 1
    } else {
        1
    };
    if run_len == 5 {
        (2 + !bit as u8, true)
    } else {
        (2 * run_len + bit as u8, false)
    }
}

/// Byte-wise stuffing automaton: entry `[state][x]` holds, for the eight
/// bits of `x` fed MSB first from `state`, the number of stuff bits
/// inserted (high nibble) and the state after them (low nibble).
const STUFF_TABLE: [[u8; 256]; STUFF_STATES] = {
    let mut table = [[0u8; 256]; STUFF_STATES];
    let mut state = 0;
    while state < STUFF_STATES {
        let mut x = 0;
        while x < 256 {
            let mut s = state as u8;
            let mut stuffed = 0;
            let mut i = 0;
            while i < 8 {
                let (next, stuff) = stuff_step(s, (x >> (7 - i)) & 1 == 1);
                s = next;
                stuffed += stuff as u8;
                i += 1;
            }
            table[state][x] = stuffed << 4 | s;
            x += 1;
        }
        state += 1;
    }
    table
};

/// Feeds `value`'s low `nbits` bits, MSB first, into `sink`.
#[inline]
fn emit_bits(sink: &mut impl FnMut(bool), value: u64, nbits: u32) {
    for i in (0..nbits).rev() {
        sink((value >> i) & 1 == 1);
    }
}

/// Feeds the CRC-covered region — SOF, arbitration, control and data
/// fields, in wire order — into `sink` one bit at a time: the reference
/// that [`header_state`] and [`through_payload`] must match.
fn emit_covered_bits(frame: &CanFrame, sink: &mut impl FnMut(bool)) {
    sink(false); // SOF, dominant
    match frame.id() {
        FrameId::Standard(id) => {
            emit_bits(sink, id as u64, 11);
            sink(frame.is_remote()); // RTR
            sink(false); // IDE = dominant
            sink(false); // r0
        }
        FrameId::Extended(id) => {
            emit_bits(sink, (id >> 18) as u64, 11); // base id
            sink(true); // SRR, recessive
            sink(true); // IDE = recessive
            emit_bits(sink, (id & 0x3_FFFF) as u64, 18);
            sink(frame.is_remote()); // RTR
            sink(false); // r1
            sink(false); // r0
        }
    }
    emit_bits(sink, frame.dlc() as u64, 4);
    for &byte in frame.payload() {
        emit_bits(sink, byte as u64, 8);
    }
}

/// The unstuffed bits of the stuffable region: SOF, arbitration, control,
/// data and CRC sequence.
pub fn stuffable_bits(frame: &CanFrame) -> Vec<bool> {
    let mut bits = Vec::with_capacity(128);
    emit_covered_bits(frame, &mut |b| bits.push(b));
    let crc = crc15(&bits);
    emit_bits(&mut |b| bits.push(b), crc as u64, 15);
    bits
}

/// Applies CAN bit stuffing: after five consecutive equal bits, a bit of
/// opposite polarity is inserted. Stuff bits participate in subsequent runs.
pub fn stuff(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() + bits.len() / 4);
    let mut run_bit = None;
    let mut run_len = 0u32;
    for &b in bits {
        out.push(b);
        if Some(b) == run_bit {
            run_len += 1;
        } else {
            run_bit = Some(b);
            run_len = 1;
        }
        if run_len == 5 {
            let stuffed = !b;
            out.push(stuffed);
            run_bit = Some(stuffed);
            run_len = 1;
        }
    }
    out
}

/// The count of a frame's CRC-covered bits up to some field boundary: the
/// CRC-15 register, the stuffing automaton's state, the stuff bits
/// inserted so far and the bits fed, stuff bits excluded. After the
/// header (SOF, arbitration and control fields) it depends on the
/// identifier, RTR flag and DLC alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeaderState {
    crc: u16,
    state: u8,
    stuffed: u8,
    len: u8,
}

impl HeaderState {
    /// One byte, MSB first, through the CRC-15 register (see
    /// [`CRC15_TABLE`]).
    #[inline]
    fn crc_byte(&mut self, byte: u8) {
        let index = usize::from((self.crc >> 7) as u8 ^ byte);
        self.crc = (self.crc << 8 & 0x7FFF) ^ CRC15_TABLE[index];
    }

    /// One byte, MSB first, through the stuffing automaton (see
    /// [`STUFF_TABLE`]).
    #[inline]
    fn stuff_byte(&mut self, byte: u8) {
        let entry = STUFF_TABLE[usize::from(self.state)][usize::from(byte)];
        self.state = entry & 0xF;
        self.stuffed += entry >> 4;
    }
}

/// The count after `frame`'s header, a byte at a time. The 19 header bits
/// of a standard frame or 39 of an extended one are padded in front to 3
/// or 5 whole bytes: with zeros for the CRC, because leading zeros leave a
/// zero register unchanged, and with alternating bits that end recessive
/// for the stuffing, because they never stuff and the dominant SOF that
/// follows starts a new run exactly as from the empty start.
pub(crate) fn header_state(frame: &CanFrame) -> HeaderState {
    let rtr = u64::from(frame.is_remote());
    let dlc = u64::from(frame.dlc());
    // The dominant SOF bit is the header word's leading zero.
    let (word, len): (u64, u8) = match frame.id() {
        // id · RTR · IDE (dominant) · r0 · DLC
        FrameId::Standard(id) => (u64::from(id) << 7 | rtr << 6 | dlc, 19),
        // base id · SRR, IDE (recessive) · extended id · RTR · r1 · r0 · DLC
        FrameId::Extended(id) => {
            let base = u64::from(id >> 18);
            let ext = u64::from(id & 0x3_FFFF);
            (base << 27 | 0b11 << 25 | ext << 7 | rtr << 6 | dlc, 39)
        }
    };
    let bytes = len.div_ceil(8);
    let stuffing = word | (0x55 & ((1 << (8 * bytes - len)) - 1)) << len;
    let mut header = HeaderState {
        crc: 0,
        state: 0,
        stuffed: 0,
        len,
    };
    for i in (0..bytes).rev() {
        header.crc_byte((word >> (8 * i)) as u8);
        header.stuff_byte((stuffing >> (8 * i)) as u8);
    }
    header
}

/// `count` carried through `payload`: one CRC and one stuffing step per
/// byte. After a frame's header and payload its `crc` is the frame's CRC
/// sequence.
#[inline]
fn through_payload(mut count: HeaderState, payload: &[u8]) -> HeaderState {
    for &byte in payload {
        count.crc_byte(byte);
        count.stuff_byte(byte);
    }
    count.len += 8 * payload.len() as u8;
    count
}

/// [`frame_bits_exact`] counted on from the frame's [`header_state`]: its
/// payload, then its CRC sequence through the stuffing automaton.
pub(crate) fn bits_after_header(header: HeaderState, frame: &CanFrame) -> u32 {
    let mut covered = through_payload(header, frame.payload());
    // The CRC sequence is stuffed like any other field but does not feed
    // back into the CRC register. Its 15 bits go in as two bytes whose
    // 16th bit is the opposite of the 15th: it starts a new run, so it can
    // never complete a run of five.
    let sequence = covered.crc << 1 | (!covered.crc & 1);
    for byte in sequence.to_be_bytes() {
        covered.stuff_byte(byte);
    }
    u32::from(covered.len) + 15 + u32::from(covered.stuffed) + TAIL_BITS
}

/// Exact number of bits the frame occupies on the bus, **excluding** the
/// interframe space: stuffed stuffable region plus the fixed-form tail.
///
/// Allocation-free and byte-wise: the bus simulation counts every
/// transmitted frame at 100 Hz per vehicle, so both the CRC-15 and the
/// stuffing run length advance a byte per table lookup instead of a bit
/// per step (the [`stuffable_bits`]/[`stuff`] pair remains as the
/// bit-at-a-time reference; a unit test pins both paths equal).
pub fn frame_bits_exact(frame: &CanFrame) -> u32 {
    bits_after_header(header_state(frame), frame)
}

/// Exact bits including the 3-bit interframe space that must elapse before
/// the next frame.
pub fn frame_bits_with_ifs(frame: &CanFrame) -> u32 {
    frame_bits_exact(frame) + IFS_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;
    use saav_sim::rng::SimRng;

    fn data_frame(id: u16, payload: &[u8]) -> CanFrame {
        CanFrame::data(FrameId::standard(id).unwrap(), payload).unwrap()
    }

    #[test]
    fn crc_is_deterministic_and_sensitive() {
        let bits = [true, false, true, true, false, false, true];
        assert_eq!(crc15(&bits), crc15(&bits));
        let mut flipped = bits;
        flipped[3] = !flipped[3];
        assert_ne!(crc15(&bits), crc15(&flipped));
        assert_eq!(crc15(&[]), 0);
    }

    #[test]
    fn crc_of_single_one_bit_is_polynomial() {
        // Shifting a single 1 through an empty register applies the
        // polynomial exactly once.
        assert_eq!(crc15(&[true]), 0x4599 & 0x7FFF);
    }

    #[test]
    fn stuffable_length_matches_layout() {
        // Standard: 1 SOF + 11 id + 1 RTR + 1 IDE + 1 r0 + 4 DLC + 8·dlc + 15 CRC.
        let f = data_frame(0x55, &[0xAA, 0x55]);
        assert_eq!(stuffable_bits(&f).len(), 34 + 16);
        let x = CanFrame::data(FrameId::extended(0x1ABCDE0).unwrap(), &[0; 8]).unwrap();
        assert_eq!(stuffable_bits(&x).len(), 54 + 64);
    }

    #[test]
    fn stuffing_breaks_runs_of_five() {
        let bits = vec![true; 16];
        let stuffed = stuff(&bits);
        // Scan: no six consecutive equal bits anywhere.
        let mut run = 1;
        for w in stuffed.windows(2) {
            if w[0] == w[1] {
                run += 1;
                assert!(run <= 5, "run of {run} equal bits after stuffing");
            } else {
                run = 1;
            }
        }
        // 16 ones: stuff after bit 5 (insert 0), then runs restart.
        assert!(stuffed.len() > bits.len());
    }

    #[test]
    fn stuffed_stream_never_has_six_equal_bits_for_any_frame() {
        for id in [0u16, 0x155, 0x2AA, 0x7FF] {
            for len in 0..=8usize {
                let payload: Vec<u8> = (0..len).map(|i| [0x00, 0xFF][i % 2]).collect();
                let f = data_frame(id, &payload);
                let stuffed = stuff(&stuffable_bits(&f));
                let mut run = 1;
                for w in stuffed.windows(2) {
                    if w[0] == w[1] {
                        run += 1;
                        assert!(run <= 5);
                    } else {
                        run = 1;
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_count_matches_materialized_stuffing() {
        // The table-driven count must agree bit-for-bit with the reference
        // stuff(stuffable_bits(..)) path on a seeded sweep of standard,
        // extended and remote frames at every DLC, including the
        // all-dominant and all-recessive payloads that stuff hardest. The
        // byte-wise CRC must equal the bit-at-a-time one over the covered
        // bits, so that a wrong CRC cannot hide behind an equal stuff
        // count, and the header count must equal the reference over the
        // header bits, which is what the bus memoizes.
        let mut rng = SimRng::seed_from(0xC0FFEE);
        let mut frames = Vec::new();
        for dlc in 0..=8u8 {
            let mut ids = vec![
                FrameId::standard(0).unwrap(),
                FrameId::standard(0x7FF).unwrap(),
                FrameId::extended(0).unwrap(),
                FrameId::extended(0x1FFF_FFFF).unwrap(),
            ];
            for _ in 0..150 {
                ids.push(FrameId::standard(rng.uniform_u64(0, 0x7FF) as u16).unwrap());
                ids.push(FrameId::extended(rng.uniform_u64(0, 0x1FFF_FFFF) as u32).unwrap());
            }
            for id in ids {
                let random: Vec<u8> = (0..dlc).map(|_| rng.uniform_u64(0, 0xFF) as u8).collect();
                for payload in [random, vec![0x00; dlc as usize], vec![0xFF; dlc as usize]] {
                    frames.push(CanFrame::data(id, &payload).unwrap());
                }
                frames.push(CanFrame::remote(id, dlc).unwrap());
            }
        }
        for f in frames {
            let reference = stuffable_bits(&f);
            let header = header_state(&f);
            let bits = &reference[..header.len as usize];
            assert_eq!(header.crc, crc15(bits), "{f}");
            assert_eq!(
                header.stuffed as usize,
                stuff(bits).len() - bits.len(),
                "{f}"
            );
            let covered = through_payload(header, f.payload());
            let bits = &reference[..reference.len() - 15];
            assert_eq!(covered.len as usize, bits.len(), "{f}");
            assert_eq!(covered.crc, crc15(bits), "{f}");
            assert_eq!(
                frame_bits_exact(&f),
                stuff(&reference).len() as u32 + TAIL_BITS,
                "{f}"
            );
        }
    }

    #[test]
    fn all_zero_payload_stuffs_heavily() {
        let zeros = data_frame(0, &[0; 8]);
        let ones = data_frame(0x555, &[0xAA; 8]);
        assert!(frame_bits_exact(&zeros) > frame_bits_exact(&ones));
    }
}
