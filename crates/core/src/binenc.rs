//! Shared binary-encoding primitives for the on-disk result cache
//! ([`crate::cache`]) and the columnar results format
//! ([`crate::colstore`]): LEB128 varints, zigzag signed mapping, raw
//! IEEE-754 bit transport and packed boolean bitmaps.
//!
//! Everything here is byte-order-stable (little-endian) and
//! process-independent, so artifacts written by one run decode bit-exact
//! in another — the property the cache and colstore round-trip tests pin.

/// Appends `v` as an LEB128 varint (1 byte for values < 128, ≤ 10 bytes
/// for the full `u64` range).
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it. `None` on truncation
/// or on an encoding longer than a `u64` can hold.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value
/// (small magnitudes of either sign stay small).
pub(crate) fn zigzag(n: i64) -> u64 {
    ((n as u64) << 1) ^ ((n >> 63) as u64)
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a raw little-endian `u64`.
pub(crate) fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a raw little-endian `u64` at `*pos`, advancing it.
pub(crate) fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let chunk = bytes.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
}

/// Appends an `f64` as its raw IEEE-754 bits (lossless, `NaN`- and
/// signed-zero-preserving).
pub(crate) fn write_f64(out: &mut Vec<u8>, v: f64) {
    write_u64(out, v.to_bits());
}

/// Reads an `f64` written by [`write_f64`].
pub(crate) fn read_f64(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    read_u64(bytes, pos).map(f64::from_bits)
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a string written by [`write_str`]. `None` on truncation or
/// invalid UTF-8.
pub(crate) fn read_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = usize::try_from(read_varint(bytes, pos)?).ok()?;
    let chunk = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    String::from_utf8(chunk.to_vec()).ok()
}

/// Appends `bits` as a packed bitmap (LSB-first within each byte).
pub(crate) fn write_bitmap(out: &mut Vec<u8>, bits: &[bool]) {
    for chunk in bits.chunks(8) {
        let mut byte = 0u8;
        for (i, &b) in chunk.iter().enumerate() {
            byte |= u8::from(b) << i;
        }
        out.push(byte);
    }
}

/// Reads `n` bits written by [`write_bitmap`].
pub(crate) fn read_bitmap(bytes: &[u8], pos: &mut usize, n: usize) -> Option<Vec<bool>> {
    let nbytes = n.div_ceil(8);
    let chunk = bytes.get(*pos..pos.checked_add(nbytes)?)?;
    *pos += nbytes;
    Some((0..n).map(|i| chunk[i / 8] >> (i % 8) & 1 == 1).collect())
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub(crate) const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit hash `state`: the one FNV-1a
/// loop, behind both [`fnv64`] and the cache's `KeyHasher`.
pub(crate) fn fnv64_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a 64-bit hash of a byte slice — the checksum both binary formats
/// append so corruption is detected instead of decoded.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_fold(FNV64_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len(), "value {v} left trailing bytes");
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for n in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
        // Small magnitudes of either sign encode to a single varint byte.
        assert!(zigzag(-3) < 128);
        assert!(zigzag(3) < 128);
    }

    #[test]
    fn f64_round_trips_bits() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut buf = Vec::new();
            write_f64(&mut buf, v);
            let mut pos = 0;
            let back = read_f64(&buf, &mut pos).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn bitmap_round_trips_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            write_bitmap(&mut buf, &bits);
            let mut pos = 0;
            assert_eq!(read_bitmap(&buf, &mut pos, n), Some(bits));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "intrusion/CrossLayer");
        write_str(&mut buf, "");
        let mut pos = 0;
        assert_eq!(
            read_str(&buf, &mut pos).as_deref(),
            Some("intrusion/CrossLayer")
        );
        assert_eq!(read_str(&buf, &mut pos).as_deref(), Some(""));
    }
}
