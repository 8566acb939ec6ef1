//! The block codec: LEB128 varints and the [`BlockDecoder`] turning one raw
//! block payload into edges.
//!
//! Decode is the replay hot loop (`results/BENCH_io.json`: packs decode ~4× slower than
//! flat binary, CPU-bound), so the production decoder is *batched*: edges
//! are materialized through plain `u32` locals into a small stack batch that
//! is appended per group, with a single-byte fast path for the varint reads
//! — on gap-encoded web graphs almost every record is two one-byte varints.
//! A scalar reference decoder with the per-record `Option<Edge>` state
//! machine is kept alongside; the proptests pin the two byte-for-byte equal
//! (including error/ok agreement) on arbitrary blocks.

use super::BlockEntry;
use crate::error::{GraphError, Result};
use crate::types::Edge;

/// Appends `v` to `buf` as an LEB128 varint.
#[inline]
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends one record — two varints — to `buf`: [`get_varint_fast`] in
/// reverse. When both fields are `< 0x80` (84 % of a web pack's records) the
/// record is one 2-byte append instead of two pushes.
#[inline]
pub(crate) fn put_record(buf: &mut Vec<u8>, a: u32, b: u32) {
    if (a | b) < 0x80 {
        buf.extend_from_slice(&[a as u8, b as u8]);
    } else {
        put_varint(buf, u64::from(a));
        put_varint(buf, u64::from(b));
    }
}

/// Reads an LEB128 varint from `bytes` at `*pos`, advancing it.
#[inline]
pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| GraphError::Format("varint overruns block payload".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(GraphError::Format("varint longer than 64 bits".into()));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Single-byte fast path: gap-encoded records are almost always `< 0x80`.
/// Multi-byte and overrun cases fall through to [`get_varint`].
#[inline(always)]
fn get_varint_fast(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    if let Some(&b) = bytes.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    get_varint(bytes, pos)
}

/// Edges decoded per inner batch before they are appended to the output
/// buffer — small enough to stay in registers/L1, large enough to amortize
/// the `Vec` bookkeeping out of the record loop.
const DECODE_BATCH: usize = 64;

const U32_MAX: u64 = u32::MAX as u64;

#[cold]
fn bad_id(v: u64) -> GraphError {
    GraphError::Format(format!("decoded vertex id {v} exceeds u32 range"))
}

/// Decodes one block payload into a reused edge buffer — a pure function of
/// `(payload, entry)`, holding no state of its own, so any thread can decode
/// any block.
///
/// Both entry points validate the same properties: ids fit `u32`, the
/// payload is consumed exactly, and the first decoded source matches the
/// index entry. Payload CRC is *not* checked here — that belongs to the
/// caller under its [`super::ChecksumPolicy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockDecoder;

impl BlockDecoder {
    /// Batched production decode of `payload` into `out` (cleared first).
    pub fn decode(&self, payload: &[u8], entry: &BlockEntry, out: &mut Vec<Edge>) -> Result<()> {
        out.clear();
        let want = entry.edge_count as usize;
        out.reserve(want);
        let mut pos = 0usize;
        if want > 0 {
            // Block opens with absolute coordinates.
            let src0 = get_varint(payload, &mut pos)?;
            let dst0 = get_varint(payload, &mut pos)?;
            if src0 > U32_MAX || dst0 > U32_MAX {
                return Err(bad_id(src0.max(dst0)));
            }
            let mut src = src0 as u32;
            let mut dst = dst0 as u32;
            out.push(Edge { src, dst });
            let mut batch = [Edge { src: 0, dst: 0 }; DECODE_BATCH];
            let mut produced = 1usize;
            while produced < want {
                let n = (want - produced).min(DECODE_BATCH);
                for slot in &mut batch[..n] {
                    let src_gap = get_varint_fast(payload, &mut pos)?;
                    let field = get_varint_fast(payload, &mut pos)?;
                    if src_gap == 0 {
                        // Same-source run: field is the dst delta.
                        let d = u64::from(dst)
                            .checked_add(field)
                            .ok_or_else(|| bad_id(field))?;
                        if d > U32_MAX {
                            return Err(bad_id(d));
                        }
                        dst = d as u32;
                    } else {
                        // New source: field is the dst absolute.
                        let s = u64::from(src)
                            .checked_add(src_gap)
                            .ok_or_else(|| bad_id(src_gap))?;
                        if s > U32_MAX || field > U32_MAX {
                            return Err(bad_id(s.max(field)));
                        }
                        src = s as u32;
                        dst = field as u32;
                    }
                    *slot = Edge { src, dst };
                }
                out.extend_from_slice(&batch[..n]);
                produced += n;
            }
        }
        finish_checks(payload, pos, entry, out)
    }

    /// Scalar reference decoder: the original per-record loop, kept as the
    /// equivalence oracle for the proptests. Not used on the hot path.
    pub fn decode_scalar(
        &self,
        payload: &[u8],
        entry: &BlockEntry,
        out: &mut Vec<Edge>,
    ) -> Result<()> {
        out.clear();
        out.reserve(entry.edge_count as usize);
        let mut pos = 0usize;
        let mut prev: Option<Edge> = None;
        while out.len() < entry.edge_count as usize {
            let e = match prev {
                None => {
                    let src = get_varint(payload, &mut pos)?;
                    let dst = get_varint(payload, &mut pos)?;
                    if src > U32_MAX || dst > U32_MAX {
                        return Err(bad_id(src.max(dst)));
                    }
                    Edge {
                        src: src as u32,
                        dst: dst as u32,
                    }
                }
                Some(p) => {
                    let src_gap = get_varint(payload, &mut pos)?;
                    let field = get_varint(payload, &mut pos)?;
                    if src_gap == 0 {
                        let dst = u64::from(p.dst)
                            .checked_add(field)
                            .ok_or_else(|| bad_id(field))?;
                        if dst > U32_MAX {
                            return Err(bad_id(dst));
                        }
                        Edge {
                            src: p.src,
                            dst: dst as u32,
                        }
                    } else {
                        let src = u64::from(p.src)
                            .checked_add(src_gap)
                            .ok_or_else(|| bad_id(src_gap))?;
                        if src > U32_MAX || field > U32_MAX {
                            return Err(bad_id(src.max(field)));
                        }
                        Edge {
                            src: src as u32,
                            dst: field as u32,
                        }
                    }
                }
            };
            out.push(e);
            prev = Some(e);
        }
        finish_checks(payload, pos, entry, out)
    }
}

fn finish_checks(payload: &[u8], pos: usize, entry: &BlockEntry, out: &[Edge]) -> Result<()> {
    if pos != payload.len() {
        return Err(GraphError::Format(format!(
            "block at offset {} has {} trailing bytes after its {} edges",
            entry.byte_offset,
            payload.len() - pos,
            entry.edge_count
        )));
    }
    if out.first().map(|e| e.src) != Some(entry.first_src) {
        return Err(GraphError::Format(format!(
            "block at offset {} decodes first src {:?}, index says {}",
            entry.byte_offset,
            out.first().map(|e| e.src),
            entry.first_src
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        // Overrun is an error, not a panic.
        assert!(get_varint(&buf, &mut pos).is_err());
        let mut pos2 = buf.len();
        assert!(get_varint_fast(&buf, &mut pos2).is_err());
    }

    #[test]
    fn fast_path_matches_slow_path() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let (mut a, mut b) = (0usize, 0usize);
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut a).unwrap(), v);
            assert_eq!(get_varint_fast(&buf, &mut b).unwrap(), v);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn put_record_is_two_varints_on_both_sides_of_the_one_byte_limit() {
        let values = [0u32, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u32::MAX];
        for &a in &values {
            for &b in &values {
                let (mut fast, mut slow) = (vec![0xAA], vec![0xAA]);
                put_record(&mut fast, a, b);
                put_varint(&mut slow, u64::from(a));
                put_varint(&mut slow, u64::from(b));
                assert_eq!(fast, slow, "a={a:#x} b={b:#x}");
            }
        }
    }

    fn entry_for(payload_len: usize, edges: u32, first_src: u32) -> BlockEntry {
        BlockEntry {
            first_src,
            edge_count: edges,
            byte_len: payload_len as u32,
            crc: 0,
            edge_offset: 0,
            byte_offset: 36,
        }
    }

    fn encode(edges: &[Edge]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut prev: Option<Edge> = None;
        for &e in edges {
            match prev {
                None => {
                    put_varint(&mut buf, u64::from(e.src));
                    put_varint(&mut buf, u64::from(e.dst));
                }
                Some(p) => {
                    let gap = e.src - p.src;
                    put_varint(&mut buf, u64::from(gap));
                    if gap == 0 {
                        put_varint(&mut buf, u64::from(e.dst - p.dst));
                    } else {
                        put_varint(&mut buf, u64::from(e.dst));
                    }
                }
            }
            prev = Some(e);
        }
        buf
    }

    #[test]
    fn batched_decode_matches_scalar_on_crafted_blocks() {
        let mut clustered: Vec<Edge> = (0..500u32).map(|i| Edge::new(i / 9, i % 37)).collect();
        clustered.sort_unstable_by_key(|e| (e.src, e.dst));
        let cases: Vec<Vec<Edge>> = vec![
            vec![Edge::new(0, 0)],
            vec![Edge::new(5, 9)],
            clustered,
            vec![
                Edge::new(0, 0),
                Edge::new(0, u32::MAX),
                Edge::new(u32::MAX - 1, 3),
                Edge::new(u32::MAX, u32::MAX),
            ],
        ];
        let d = BlockDecoder;
        for edges in cases {
            let payload = encode(&edges);
            let entry = entry_for(payload.len(), edges.len() as u32, edges[0].src);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            d.decode(&payload, &entry, &mut a).unwrap();
            d.decode_scalar(&payload, &entry, &mut b).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, edges);
        }
    }

    #[test]
    fn both_decoders_reject_the_same_malformed_payloads() {
        let d = BlockDecoder;
        let mut out = Vec::new();
        // Truncated payload.
        let edges = vec![Edge::new(1, 2), Edge::new(3, 4)];
        let payload = encode(&edges);
        let entry = entry_for(payload.len() - 1, 2, 1);
        let truncated = &payload[..payload.len() - 1];
        assert!(d.decode(truncated, &entry, &mut out).is_err());
        assert!(d.decode_scalar(truncated, &entry, &mut out).is_err());
        // Trailing bytes.
        let mut padded = payload.clone();
        padded.push(0);
        let entry = entry_for(padded.len(), 2, 1);
        let e1 = d.decode(&padded, &entry, &mut out).unwrap_err().to_string();
        let e2 = d
            .decode_scalar(&padded, &entry, &mut out)
            .unwrap_err()
            .to_string();
        assert!(e1.contains("trailing"), "{e1}");
        assert_eq!(e1, e2);
        // first_src mismatch.
        let entry = entry_for(payload.len(), 2, 9);
        assert!(d.decode(&payload, &entry, &mut out).is_err());
        assert!(d.decode_scalar(&payload, &entry, &mut out).is_err());
        // Gap overflowing u32.
        let mut over = Vec::new();
        put_varint(&mut over, u64::from(u32::MAX));
        put_varint(&mut over, 0);
        put_varint(&mut over, 1); // src = u32::MAX + 1
        put_varint(&mut over, 0);
        let entry = entry_for(over.len(), 2, u32::MAX);
        let e1 = d.decode(&over, &entry, &mut out).unwrap_err().to_string();
        let e2 = d
            .decode_scalar(&over, &entry, &mut out)
            .unwrap_err()
            .to_string();
        assert!(e1.contains("exceeds u32"), "{e1}");
        assert_eq!(e1, e2);
    }
}
