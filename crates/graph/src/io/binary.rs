//! Compact binary graph format and a file-backed resettable edge stream.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   [u8; 8]  = b"CLUGPGR1"
//! n       u64      number of vertices
//! m       u64      number of edges
//! edges   m × (u32 src, u32 dst)
//! ```
//!
//! 8 bytes per edge — the same density the paper's Table III sizes imply
//! (~12-16 B/edge for WebGraph-decompressed lists). [`FileEdgeStream`] is
//! the format's one reader; a caller that wants the edges in memory
//! collects it ([`crate::stream::collect_stream`]).

use crate::error::{GraphError, Result};
use crate::stream::{EdgeStream, RestreamableStream};
use crate::types::Edge;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub(crate) const MAGIC: &[u8; 8] = b"CLUGPGR1";
const HEADER_LEN: u64 = 8 + 8 + 8;

/// Validates that the file holds exactly the edge payload its header
/// promises, returning the dedicated size-mismatch error otherwise — the
/// fail-fast guard that keeps truncation from surfacing as a raw
/// short-read I/O error mid-stream.
fn check_payload_size(file: &std::fs::File, num_edges: u64) -> Result<()> {
    // The header's edge count is untrusted file input: a corrupt value near
    // u64::MAX must fail the check, not wrap it away.
    let expected_bytes = num_edges
        .checked_mul(8)
        .ok_or_else(|| GraphError::Format(format!("header edge count {num_edges} overflows")))?;
    let actual_bytes = file.metadata()?.len().saturating_sub(HEADER_LEN);
    if actual_bytes != expected_bytes {
        return Err(GraphError::TruncatedPayload {
            expected_bytes,
            actual_bytes,
        });
    }
    Ok(())
}

/// Writes `(num_vertices, edges)` to `path` in the binary format.
pub fn write_binary_graph(path: &Path, num_vertices: u64, edges: &[Edge]) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    w.write_all(&num_vertices.to_le_bytes())?;
    w.write_all(&(edges.len() as u64).to_le_bytes())?;
    for e in edges {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Decodes one 8-byte `(u32 src, u32 dst)` record.
fn decode_record(rec: &[u8]) -> Edge {
    let src = u32::from_le_bytes(rec[..4].try_into().expect("4-byte field"));
    let dst = u32::from_le_bytes(rec[4..8].try_into().expect("4-byte field"));
    Edge { src, dst }
}

fn read_header<R: Read>(r: &mut R) -> Result<(u64, u64)> {
    let mut header = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut header)
        .map_err(|_| GraphError::Format("file shorter than header".into()))?;
    if &header[..8] != MAGIC {
        return Err(GraphError::Format("bad magic bytes".into()));
    }
    let n = u64::from_le_bytes(header[8..16].try_into().expect("8-byte field"));
    let m = u64::from_le_bytes(header[16..24].try_into().expect("8-byte field"));
    Ok((n, m))
}

/// A resettable edge stream backed by a binary graph file.
///
/// A pull ([`EdgeStream::next_chunk`]) reads a whole block of records in
/// bulk `read` calls into a reused scratch buffer, decodes it in a tight
/// loop into the edge buffer the stream owns, and lends that — both buffers
/// hold at most what the file has left, whatever `cap` says. `reset` seeks
/// back to the start of the edge payload. This is the source used by the
/// Figure 10(a) compute/I-O breakdown, where CLUGP's three passes really do
/// read the file three times.
///
/// A truncated or size-mismatched file is rejected at [`FileEdgeStream::open`]
/// with the dedicated [`GraphError::TruncatedPayload`] (exact expected-vs-
/// actual byte accounting) instead of surfacing a raw short-read I/O error
/// mid-stream. If the file shrinks *after* open, the stream ends early with
/// the same dedicated error parked in [`FileEdgeStream::error`]; genuine
/// I/O failures park their error too, and the next
/// [`RestreamableStream::reset`] reports it — same contract as
/// [`crate::io::edge_list::TextEdgeStream`], so a restreaming consumer
/// cannot silently loop over a half-read stream.
#[derive(Debug)]
pub struct FileEdgeStream {
    reader: BufReader<std::fs::File>,
    path: PathBuf,
    num_vertices: u64,
    num_edges: u64,
    yielded: u64,
    /// Scratch for block decodes; grown to one chunk's bytes and reused.
    raw: Vec<u8>,
    /// The chunk last decoded — what `next_chunk` lends.
    buf: Vec<Edge>,
    error: Option<GraphError>,
}

impl FileEdgeStream {
    /// Opens `path`, validating the header and that the file holds exactly
    /// the edge payload the header promises.
    ///
    /// # Errors
    ///
    /// [`GraphError::TruncatedPayload`] on a truncated or size-mismatched
    /// payload; [`GraphError::Format`] on a bad magic or short header.
    pub fn open(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut reader = BufReader::new(file);
        let (num_vertices, num_edges) = read_header(&mut reader)?;
        check_payload_size(reader.get_ref(), num_edges)?;
        Ok(FileEdgeStream {
            reader,
            path: path.to_path_buf(),
            num_vertices,
            num_edges,
            yielded: 0,
            raw: Vec::new(),
            buf: Vec::new(),
            error: None,
        })
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The error that ended the stream early, if any — a
    /// [`GraphError::TruncatedPayload`] if the file shrank after open, or
    /// the underlying I/O failure. (Also reported by the next
    /// [`RestreamableStream::reset`].)
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }

    /// Parks the dedicated truncation error for a file that shrank after
    /// open; `decoded_now` (whole edges decoded from the current pull) is
    /// the fallback byte accounting if the file cannot be stat'ed.
    fn park_truncation(&mut self, decoded_now: u64) {
        let actual_bytes = self
            .reader
            .get_ref()
            .metadata()
            .map(|m| m.len().saturating_sub(HEADER_LEN))
            .unwrap_or((self.yielded + decoded_now).saturating_mul(8));
        self.error = Some(GraphError::TruncatedPayload {
            // Open validated num_edges * 8 against the real file size, so
            // this cannot overflow for a stream that ever opened; saturate
            // anyway rather than trust it.
            expected_bytes: self.num_edges.saturating_mul(8),
            actual_bytes,
        });
    }
}

impl EdgeStream for FileEdgeStream {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        self.buf.clear();
        // Open held `num_edges` to the file's real length, so a block is
        // bounded by the bytes on disk.
        let remaining = (self.num_edges - self.yielded) as usize;
        let want = cap.max(1).min(remaining);
        if self.error.is_some() || want == 0 {
            return &self.buf;
        }
        let want_bytes = want * 8;
        self.raw.resize(want_bytes, 0);
        let mut filled = 0usize;
        while filled < want_bytes {
            match self.reader.read(&mut self.raw[filled..want_bytes]) {
                Ok(0) => {
                    // File shrank after open: park the dedicated truncation
                    // error; the whole records already read still decode.
                    self.park_truncation((filled / 8) as u64);
                    break;
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.error = Some(GraphError::from(e));
                    break;
                }
            }
        }
        // A trailing partial record (truncated file) is dropped: the stream
        // ends early on whole edges.
        let complete = filled / 8;
        self.buf
            .extend(self.raw[..complete * 8].chunks_exact(8).map(decode_record));
        self.yielded += complete as u64;
        &self.buf
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.num_edges)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.num_vertices)
    }
}

impl RestreamableStream for FileEdgeStream {
    /// Rewinds to the first edge record.
    ///
    /// # Errors
    ///
    /// Fails on seek errors, or reports (and clears) the I/O error that
    /// ended the previous pass early.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.reader.seek(SeekFrom::Start(HEADER_LEN))?;
        self.yielded = 0;
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::collect_stream;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clugp_binary_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> Vec<Edge> {
        vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(0, 2),
        ]
    }

    #[test]
    fn round_trip_in_memory_read() {
        let path = tmp("rt.bin");
        write_binary_graph(&path, 3, &sample()).unwrap();
        let mut s = FileEdgeStream::open(&path).unwrap();
        assert_eq!(s.num_vertices_hint(), Some(3));
        assert_eq!(collect_stream(&mut s), sample());
        s.reset().unwrap();
    }

    #[test]
    fn file_stream_yields_all_edges() {
        let path = tmp("stream.bin");
        write_binary_graph(&path, 3, &sample()).unwrap();
        let mut s = FileEdgeStream::open(&path).unwrap();
        assert_eq!(s.len_hint(), Some(4));
        assert_eq!(s.num_vertices_hint(), Some(3));
        assert_eq!(collect_stream(&mut s), sample());
        assert!(s.next_chunk(1).is_empty());
    }

    #[test]
    fn file_stream_resets() {
        let path = tmp("reset.bin");
        write_binary_graph(&path, 3, &sample()).unwrap();
        let mut s = FileEdgeStream::open(&path).unwrap();
        let first = collect_stream(&mut s);
        s.reset().unwrap();
        let second = collect_stream(&mut s);
        assert_eq!(first, second);
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("bad_magic.bin");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        let err = FileEdgeStream::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)));
    }

    #[test]
    fn rejects_short_header() {
        let path = tmp("short.bin");
        std::fs::write(&path, b"CLU").unwrap();
        assert!(matches!(
            FileEdgeStream::open(&path).unwrap_err(),
            GraphError::Format(_)
        ));
    }

    #[test]
    fn detects_truncated_payload() {
        let path = tmp("trunc.bin");
        write_binary_graph(&path, 3, &sample()).unwrap();
        // Chop off the last 4 bytes: 4 edges promised (32 payload bytes),
        // 28 on disk. Open fails fast with the dedicated error carrying
        // the exact byte accounting — no raw short-read I/O error can
        // surface mid-stream.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 4]).unwrap();
        assert!(matches!(
            FileEdgeStream::open(&path).unwrap_err(),
            GraphError::TruncatedPayload {
                expected_bytes: 32,
                actual_bytes: 28,
            }
        ));
    }

    #[test]
    fn rejects_overflowing_edge_count_header() {
        // A corrupt header whose edge count overflows `m * 8` must be a
        // clean error, not a wrap (release) or panic (debug).
        let path = tmp("overflow.bin");
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&4u64.to_le_bytes()); // n
        data.extend_from_slice(&((1u64 << 61) + 1).to_le_bytes()); // m * 8 wraps
        data.extend_from_slice(&[0u8; 8]); // one fake record
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            FileEdgeStream::open(&path).unwrap_err(),
            GraphError::Format(_)
        ));
    }

    #[test]
    fn detects_oversized_payload() {
        // Trailing junk after the promised payload is a size mismatch too.
        let path = tmp("oversize.bin");
        write_binary_graph(&path, 3, &sample()).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&[0u8; 6]);
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            FileEdgeStream::open(&path).unwrap_err(),
            GraphError::TruncatedPayload {
                expected_bytes: 32,
                actual_bytes: 38,
            }
        ));
    }

    #[test]
    fn file_shrinking_after_open_parks_truncation_error() {
        // Regression: truncation discovered *mid-stream* (the file shrank
        // between open and the read) must park the dedicated error — the
        // next reset reports it, so a restreaming consumer cannot silently
        // loop over a half-read stream.
        // Big enough that the payload tail is beyond the BufReader's
        // buffer, so the shrink is actually observed by a read.
        let edges: Vec<Edge> = (0..2_000u32).map(|i| Edge::new(i, i + 1)).collect();
        let path = tmp("shrink.bin");
        write_binary_graph(&path, 2_001, &edges).unwrap();
        let mut s = FileEdgeStream::open(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 4]).unwrap();
        let seen = collect_stream(&mut s);
        assert_eq!(seen.len(), 1_999, "whole records still decode");
        assert!(
            matches!(
                s.error(),
                Some(GraphError::TruncatedPayload {
                    expected_bytes: 16_000,
                    actual_bytes: 15_996,
                })
            ),
            "got {:?}",
            s.error()
        );
        let err = s.reset().unwrap_err();
        assert!(matches!(err, GraphError::TruncatedPayload { .. }));
        // The parked error is cleared by the reporting reset.
        assert!(s.error().is_none());

        // Same contract when the records are pulled one at a time.
        let path2 = tmp("shrink_per_edge.bin");
        write_binary_graph(&path2, 2_001, &edges).unwrap();
        let mut s = FileEdgeStream::open(&path2).unwrap();
        let data = std::fs::read(&path2).unwrap();
        std::fs::write(&path2, &data[..data.len() - 4]).unwrap();
        let mut seen = 0;
        while !s.next_chunk(1).is_empty() {
            seen += 1;
        }
        assert_eq!(seen, 1_999);
        assert!(matches!(
            s.error(),
            Some(GraphError::TruncatedPayload { .. })
        ));
    }

    #[test]
    fn chunked_reads_match_per_edge_reads() {
        let path = tmp("chunked.bin");
        let edges: Vec<Edge> = (0..1000u32).map(|i| Edge::new(i, (i * 7) % 1000)).collect();
        write_binary_graph(&path, 1000, &edges).unwrap();
        for cap in [1usize, 7, 256, 4096] {
            let mut s = FileEdgeStream::open(&path).unwrap();
            let mut seen = Vec::new();
            crate::stream::for_each_chunk(&mut s, cap, |chunk| seen.extend_from_slice(chunk));
            assert_eq!(seen, edges, "cap={cap}");
        }
    }

    #[test]
    fn chunked_read_of_shrunk_file_ends_early_with_parked_error() {
        // Large enough that the tail lies beyond the BufReader's buffer.
        let edges: Vec<Edge> = (0..2_000u32).map(|i| Edge::new(i, i + 1)).collect();
        let path = tmp("trunc_chunk.bin");
        write_binary_graph(&path, 2_001, &edges).unwrap();
        let mut s = FileEdgeStream::open(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 4]).unwrap();
        let mut seen = Vec::new();
        crate::stream::for_each_chunk(&mut s, 4096, |chunk| seen.extend_from_slice(chunk));
        assert_eq!(seen.len(), 1_999, "whole records of this pull decode");
        assert_eq!(seen, edges[..1_999]);
        assert!(matches!(
            s.error(),
            Some(GraphError::TruncatedPayload { .. })
        ));
    }

    #[test]
    fn chunked_stream_resets() {
        let path = tmp("chunk_reset.bin");
        write_binary_graph(&path, 3, &sample()).unwrap();
        let mut s = FileEdgeStream::open(&path).unwrap();
        let first = collect_stream(&mut s);
        s.reset().unwrap();
        let second = collect_stream(&mut s);
        assert_eq!(first, sample());
        assert_eq!(first, second);
    }

    #[test]
    fn empty_graph_round_trip() {
        let path = tmp("empty.bin");
        write_binary_graph(&path, 0, &[]).unwrap();
        let mut s = FileEdgeStream::open(&path).unwrap();
        assert_eq!((s.len_hint(), s.num_vertices_hint()), (Some(0), Some(0)));
        assert!(s.next_chunk(16).is_empty());
    }
}
