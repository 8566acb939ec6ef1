//! Little-endian binary wire codec for the coordinator/worker protocol.
//!
//! The message set is a couple dozen fixed shapes, so frames are encoded by
//! hand in the same style as the repo's other on-disk formats (`CLUGPPA1`,
//! `CLUGPZ`): fixed-width little-endian scalars, length-prefixed sequences,
//! versioned explicitly (DESIGN.md §7).

use crate::error::{PartitionError, Result};

/// Append-only frame writer.
#[derive(Debug, Default)]
pub struct Wr {
    buf: Vec<u8>,
}

impl Wr {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Wr { buf: Vec::new() }
    }

    /// Makes room for `bytes` more, exactly (a payload of known length is
    /// written without regrowing the frame).
    pub fn reserve(&mut self, bytes: usize) {
        self.buf.reserve_exact(bytes);
    }

    /// Consumes the writer, returning the encoded frame.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a tag/enum discriminant byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes, no prefix (the caller frames them).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `u64` sequence.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    /// Appends a LEB128 varint (1 byte for values < 128, up to 10 for the
    /// full `u64` range) — the pack codec's integer idiom, reused on the
    /// route-relay hot path where rows are small counts and bitmasks.
    pub fn vu64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a varint-count-prefixed sequence of varint `u64`s.
    pub fn vu64s(&mut self, v: &[u64]) {
        self.vu64(v.len() as u64);
        for &x in v {
            self.vu64(x);
        }
    }

    /// Appends a key sequence as varint count + zigzag-varint deltas.
    /// Sorted-ascending keys (the per-chunk distinct-endpoint sets) encode
    /// as small positive gaps; zigzag keeps arbitrary sequences legal.
    pub fn delta_u64s(&mut self, v: &[u64]) {
        self.vu64(v.len() as u64);
        let mut prev = 0u64;
        for &x in v {
            self.vu64(zigzag(x.wrapping_sub(prev) as i64));
            prev = x;
        }
    }
}

/// Maps a signed delta onto the unsigned varint space (small magnitudes,
/// either sign, stay short).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Cursor-based frame reader; every accessor fails cleanly on truncation.
#[derive(Debug)]
pub struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short() -> PartitionError {
    PartitionError::InvalidParam("truncated protocol frame".into())
}

impl<'a> Rd<'a> {
    /// Wraps a frame for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes consumed so far: where the next read starts in the frame.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reads `n` raw bytes, lent from the frame.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(short)?;
        if end > self.buf.len() {
            return Err(short());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a tag byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte: 0 or 1, as [`Wr::bool`] writes it.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            b @ (0 | 1) => Ok(b == 1),
            b => Err(PartitionError::InvalidParam(format!(
                "flag byte {b} in frame"
            ))),
        }
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length as usize, bounded by the remaining frame so a corrupt
    /// prefix cannot trigger a huge allocation.
    pub fn len(&mut self, elem_bytes: usize) -> Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if elem_bytes > 0 && n > remaining / (elem_bytes as u64).max(1) + 1 {
            return Err(short());
        }
        usize::try_from(n).map_err(|_| short())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PartitionError::InvalidParam("non-UTF-8 string in frame".into()))
    }

    /// Reads a length-prefixed `u64` sequence.
    pub fn u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Reads a LEB128 varint, spelled as [`Wr::vu64`] spells it: a longer
    /// spelling of the same value (a last byte of 0) and a tenth byte above
    /// 1 (bits past the 64th) are refused.
    pub fn vu64(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if (shift > 0 && b == 0) || (shift == 63 && b > 1) {
                return Err(PartitionError::InvalidParam(
                    "overlong varint in protocol frame".into(),
                ));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint length, bounded by the remaining frame (every
    /// element costs at least one byte, so a corrupt count cannot trigger
    /// a huge allocation).
    fn vlen(&mut self) -> Result<usize> {
        let n = self.vu64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(short());
        }
        usize::try_from(n).map_err(|_| short())
    }

    /// Reads a [`Wr::vu64s`] sequence.
    pub fn vu64s(&mut self) -> Result<Vec<u64>> {
        let n = self.vlen()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.vu64()?);
        }
        Ok(v)
    }

    /// Reads a [`Wr::delta_u64s`] key sequence.
    pub fn delta_u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.vlen()?;
        let mut v = Vec::with_capacity(n);
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev.wrapping_add(unzigzag(self.vu64()?) as u64);
            v.push(prev);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = Wr::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.str("shard");
        w.u64s(&[1, 2, 3]);
        w.bytes(&[4, 5]);
        w.u64s(&[]);
        let bytes = w.into_bytes();
        let mut r = Rd::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.str().unwrap(), "shard");
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take(2).unwrap(), [4, 5]);
        assert!(r.u64s().unwrap().is_empty());
        assert!(r.done());
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let mut w = Wr::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Rd::new(&bytes[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        let mut w = Wr::new();
        w.u64(u64::MAX); // claims ~2^64 elements
        let bytes = w.into_bytes();
        let mut r = Rd::new(&bytes);
        assert!(r.u64s().is_err());
    }

    #[test]
    fn varints_round_trip_across_the_range() {
        let vals = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX - 1, u64::MAX];
        let mut w = Wr::new();
        for &v in &vals {
            w.vu64(v);
        }
        w.vu64s(&vals);
        let bytes = w.into_bytes();
        let mut r = Rd::new(&bytes);
        for &v in &vals {
            assert_eq!(r.vu64().unwrap(), v);
        }
        assert_eq!(r.vu64s().unwrap(), vals);
        assert!(r.done());
    }

    #[test]
    fn delta_keys_round_trip_and_compress_sorted_runs() {
        // Sorted ascending with small gaps: the chunk-endpoint shape.
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 3 + 7).collect();
        let mut w = Wr::new();
        w.delta_u64s(&keys);
        let delta_len = w.into_bytes().len();
        let mut w = Wr::new();
        w.u64s(&keys);
        let plain_len = w.into_bytes().len();
        assert!(delta_len * 3 < plain_len, "{delta_len} vs {plain_len}");

        let mut w = Wr::new();
        w.delta_u64s(&keys);
        let bytes = w.into_bytes();
        assert_eq!(Rd::new(&bytes).delta_u64s().unwrap(), keys);

        // Non-monotone sequences stay legal through zigzag.
        let wild = vec![5u64, 2, u64::MAX, 0, 7];
        let mut w = Wr::new();
        w.delta_u64s(&wild);
        let bytes = w.into_bytes();
        assert_eq!(Rd::new(&bytes).delta_u64s().unwrap(), wild);
    }

    #[test]
    fn overlong_and_truncated_varints_fail_cleanly() {
        // 11 continuation bytes overflow the 64-bit shift budget.
        let bytes = [0xFFu8; 11];
        assert!(Rd::new(&bytes).vu64().is_err());
        // A continuation bit with nothing after it is a truncation.
        let bytes = [0x80u8];
        assert!(Rd::new(&bytes).vu64().is_err());
        // A huge varint count cannot allocate past the frame.
        let mut w = Wr::new();
        w.vu64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Rd::new(&bytes).vu64s().is_err());
        // Only the encoder's spelling decodes: 0 and 1 padded with a zero
        // byte, and a tenth byte carrying bits past the 64th, are refused,
        // so every varint that decodes writes back to the same bytes.
        for overlong in [&[0x80u8, 0x00][..], &[0x81, 0x80, 0x00]] {
            assert!(Rd::new(overlong).vu64().is_err(), "{overlong:?}");
        }
        let mut past = [0xFFu8; 10];
        past[9] = 0x02;
        assert!(Rd::new(&past).vu64().is_err());
        // A flag is 0 or 1.
        assert!(Rd::new(&[2]).bool().is_err());
    }
}
