//! Whitespace-separated text edge lists (`src dst` per line, `#` comments) —
//! the de-facto exchange format of SNAP/WebGraph-derived datasets.

use crate::error::{GraphError, Result};
use crate::idmap::RawEdgeStream;
use crate::stream::{EdgeStream, RestreamableStream};
use crate::types::{Edge, RawEdge};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Reads a text edge list. Lines starting with `#` or `%` and blank lines
/// are skipped. Each data line must contain two unsigned integers.
pub fn read_edge_list(path: &Path) -> Result<Vec<Edge>> {
    let file = std::fs::File::open(path)?;
    parse_edge_list(file)
}

/// Parses an edge list from any reader (exposed for tests and in-memory use).
pub fn parse_edge_list<R: Read>(reader: R) -> Result<Vec<Edge>> {
    let mut edges = Vec::new();
    let mut line = String::new();
    let mut buf = BufReader::new(reader);
    let mut line_no: u64 = 0;
    loop {
        line.clear();
        let n = buf.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src = parse_field(it.next(), line_no)?;
        let dst = parse_field(it.next(), line_no)?;
        edges.push(Edge { src, dst });
    }
    Ok(edges)
}

fn parse_field(field: Option<&str>, line: u64) -> Result<u32> {
    let s = field.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two vertex ids".into(),
    })?;
    s.parse::<u32>().map_err(|e| GraphError::Parse {
        line,
        message: format!("bad vertex id {s:?}: {e}"),
    })
}

fn parse_field_u64(field: Option<&str>, line: u64) -> Result<u64> {
    let s = field.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two vertex ids".into(),
    })?;
    s.parse::<u64>().map_err(|e| GraphError::Parse {
        line,
        message: format!("bad vertex id {s:?}: {e}"),
    })
}

/// A resettable edge stream over a text edge list, parsing lazily so the
/// whole file never has to sit in memory.
///
/// Lines are pulled through a [`BufReader`] (real buffered block reads); a
/// pull ([`EdgeStream::next_chunk`]) parses a block of lines into the edge
/// buffer the stream owns and lends it. Comment (`#`/`%`) and blank lines
/// are skipped.
///
/// [`TextEdgeStream::open`] validates the whole file up front (one extra
/// buffered pass) so a malformed line fails loudly at open time — never as
/// a silently truncated partition — and the stream carries exact
/// [`EdgeStream::len_hint`]/[`EdgeStream::num_vertices_hint`] values, which
/// CLUGP needs for `Vmax = |E|/k`. [`TextEdgeStream::open_lazy`] skips the
/// validation pass for trusted or too-large-to-rescan inputs; there a
/// malformed line ends the stream early (mirroring the truncation behavior
/// of the binary [`crate::io::binary::FileEdgeStream`]), parks the error in
/// [`TextEdgeStream::error`], and the next [`RestreamableStream::reset`]
/// reports it, so multi-pass consumers cannot keep re-reading a truncated
/// stream unknowingly.
#[derive(Debug)]
pub struct TextEdgeStream {
    reader: BufReader<std::fs::File>,
    path: PathBuf,
    line: String,
    line_no: u64,
    done: bool,
    /// The chunk last parsed — what `next_chunk` lends.
    buf: Vec<Edge>,
    error: Option<GraphError>,
    num_edges: Option<u64>,
    num_vertices: Option<u64>,
}

impl TextEdgeStream {
    /// Opens `path`, validating every line in one buffered pre-pass and
    /// recording exact edge/vertex hints.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or on the first malformed line (same contract as
    /// [`read_edge_list`]).
    pub fn open(path: &Path) -> Result<Self> {
        let mut s = Self::open_lazy(path)?;
        let mut edges = 0u64;
        let mut max_id: Option<u32> = None;
        while let Some(e) = s.parse_next() {
            edges += 1;
            let hi = e.src.max(e.dst);
            max_id = Some(max_id.map_or(hi, |m| m.max(hi)));
        }
        if let Some(err) = s.error.take() {
            return Err(err);
        }
        s.num_edges = Some(edges);
        s.num_vertices = Some(max_id.map_or(0, |m| u64::from(m) + 1));
        s.reset()?;
        Ok(s)
    }

    /// Opens `path` without the validation pre-pass: hints are `None` and a
    /// malformed line ends the stream early with the error parked (see the
    /// type docs for the failure contract).
    pub fn open_lazy(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        Ok(TextEdgeStream {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            line: String::new(),
            line_no: 0,
            done: false,
            buf: Vec::new(),
            error: None,
            num_edges: None,
            num_vertices: None,
        })
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The parse error that ended the stream early, if any. (Also reported
    /// by the next [`RestreamableStream::reset`].)
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }

    fn parse_next(&mut self) -> Option<Edge> {
        if self.done {
            return None;
        }
        loop {
            self.line.clear();
            let n = match self.reader.read_line(&mut self.line) {
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    self.error = Some(GraphError::from(e));
                    return None;
                }
            };
            if n == 0 {
                self.done = true;
                return None;
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let parsed = parse_field(it.next(), self.line_no)
                .and_then(|src| parse_field(it.next(), self.line_no).map(|dst| Edge { src, dst }));
            match parsed {
                Ok(e) => return Some(e),
                Err(e) => {
                    self.done = true;
                    self.error = Some(e);
                    return None;
                }
            }
        }
    }
}

impl EdgeStream for TextEdgeStream {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        let cap = cap.max(1);
        self.buf.clear();
        while self.buf.len() < cap {
            match self.parse_next() {
                Some(e) => self.buf.push(e),
                None => break,
            }
        }
        &self.buf
    }

    fn len_hint(&self) -> Option<u64> {
        self.num_edges
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.num_vertices
    }
}

impl RestreamableStream for TextEdgeStream {
    /// Rewinds to the start of the file.
    ///
    /// # Errors
    ///
    /// Fails on seek errors, or — for lazily opened streams — reports (and
    /// clears) the parse/I-O error that ended the previous pass early, so a
    /// restreaming consumer cannot silently loop over a truncated stream.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.reader.seek(SeekFrom::Start(0))?;
        self.line_no = 0;
        self.done = false;
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A resettable [`RawEdgeStream`] over a text edge list whose vertex ids
/// may be arbitrary (sparse) 64-bit values — the form web corpora actually
/// ship in (hashed URLs, crawl ids).
///
/// Where [`TextEdgeStream`] parses `u32` ids for already-dense lists, this
/// stream parses full `u64` ids and is meant to be wrapped in
/// [`crate::idmap::RemappedStream`], which compacts the ids onto the dense
/// internal space during its first pass. [`RawTextEdgeStream::open`]
/// validates every line up front (one buffered pre-pass) and records an
/// exact [`RawEdgeStream::len_hint`], so later pulls only fail if the file
/// is mutated underneath the stream — in which case the error is *parked*,
/// the stream ends early, and the next [`RawEdgeStream::reset`] reports it
/// (the same contract as [`TextEdgeStream`], so a restreaming consumer
/// cannot silently loop over a truncated stream). [`RawTextEdgeStream::error`]
/// exposes the parked error for single-pass consumers.
#[derive(Debug)]
pub struct RawTextEdgeStream {
    reader: BufReader<std::fs::File>,
    path: PathBuf,
    line: String,
    line_no: u64,
    done: bool,
    /// The chunk last parsed — what `next_raw_chunk` lends.
    buf: Vec<RawEdge>,
    error: Option<GraphError>,
    num_edges: u64,
}

impl RawTextEdgeStream {
    /// Opens `path`, validating every line in one buffered pre-pass.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or on the first malformed line.
    pub fn open(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut s = RawTextEdgeStream {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            line: String::new(),
            line_no: 0,
            done: false,
            buf: Vec::new(),
            error: None,
            num_edges: 0,
        };
        let mut edges = 0u64;
        while s.parse_next()?.is_some() {
            edges += 1;
        }
        s.num_edges = edges;
        RawEdgeStream::reset(&mut s)?;
        Ok(s)
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The error that ended the stream early, if any (also reported by the
    /// next [`RawEdgeStream::reset`]). Only possible if the file changed
    /// after the validating open.
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }

    fn parse_next(&mut self) -> Result<Option<RawEdge>> {
        if self.done {
            return Ok(None);
        }
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                self.done = true;
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let src = parse_field_u64(it.next(), self.line_no)?;
            let dst = parse_field_u64(it.next(), self.line_no)?;
            return Ok(Some(RawEdge { src, dst }));
        }
    }
}

impl RawEdgeStream for RawTextEdgeStream {
    fn next_raw_chunk(&mut self, cap: usize) -> &[RawEdge] {
        let cap = cap.max(1);
        self.buf.clear();
        while self.buf.len() < cap && self.error.is_none() {
            match self.parse_next() {
                Ok(Some(e)) => self.buf.push(e),
                Ok(None) => break,
                // The validating open proved every line parses; a failure
                // here can only be a racing file mutation. Park it so the
                // next reset reports it instead of letting a restreaming
                // consumer silently loop over a truncated stream.
                Err(err) => {
                    self.done = true;
                    self.error = Some(err);
                }
            }
        }
        &self.buf
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.num_edges)
    }

    /// Rewinds to the start of the file.
    ///
    /// # Errors
    ///
    /// Fails on seek errors, or reports (and clears) the error that ended
    /// the previous pass early.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.reader.seek(SeekFrom::Start(0))?;
        self.line_no = 0;
        self.done = false;
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Writes edges as a text edge list with a provenance header comment.
pub fn write_edge_list(path: &Path, edges: &[Edge]) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# directed edge list, {} edges", edges.len())?;
    for e in edges {
        writeln!(w, "{} {}", e.src, e.dst)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_list() {
        let input = "# comment\n0 1\n\n% also comment\n2 3\n";
        let edges = parse_edge_list(input.as_bytes()).unwrap();
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(2, 3)]);
    }

    #[test]
    fn tolerates_extra_whitespace() {
        let edges = parse_edge_list("  7\t 8 \n".as_bytes()).unwrap();
        assert_eq!(edges, vec![Edge::new(7, 8)]);
    }

    #[test]
    fn reports_line_of_bad_token() {
        let err = parse_edge_list("0 1\nx y\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn reports_missing_field() {
        let err = parse_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("clugp_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        let edges = vec![Edge::new(0, 1), Edge::new(5, 2), Edge::new(5, 2)];
        write_edge_list(&path, &edges).unwrap();
        let back = read_edge_list(&path).unwrap();
        assert_eq!(back, edges);
        std::fs::remove_file(&path).unwrap();
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("clugp_text_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn text_stream_matches_eager_reader() {
        let path = tmp("stream.txt");
        let edges: Vec<Edge> = (0..500u32).map(|i| Edge::new(i, (i * 3) % 500)).collect();
        write_edge_list(&path, &edges).unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        // The validating open records exact hints.
        assert_eq!(s.len_hint(), Some(500));
        assert_eq!(s.num_vertices_hint(), Some(500));
        let streamed = crate::stream::collect_stream(&mut s);
        assert_eq!(streamed, read_edge_list(&path).unwrap());
        assert!(s.error().is_none());
        // The lazy open streams the same edges, just without hints.
        let mut lazy = TextEdgeStream::open_lazy(&path).unwrap();
        assert_eq!(lazy.len_hint(), None);
        assert_eq!(crate::stream::collect_stream(&mut lazy), streamed);
    }

    #[test]
    fn text_stream_resets() {
        let path = tmp("reset.txt");
        write_edge_list(&path, &[Edge::new(0, 1), Edge::new(2, 3)]).unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        let first = crate::stream::collect_stream(&mut s);
        s.reset().unwrap();
        let second = crate::stream::collect_stream(&mut s);
        assert_eq!(first, second);
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn text_stream_chunked_pulls_skip_comments() {
        let path = tmp("comments.txt");
        std::fs::write(&path, "# header\n0 1\n\n% note\n2 3\n4 5\n").unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        assert_eq!(s.next_chunk(2), [Edge::new(0, 1), Edge::new(2, 3)]);
        assert_eq!(s.next_chunk(2), [Edge::new(4, 5)]);
        assert!(s.next_chunk(2).is_empty());
    }

    #[test]
    fn validating_open_rejects_malformed_file() {
        let path = tmp("bad_open.txt");
        std::fs::write(&path, "0 1\nnot numbers\n2 3\n").unwrap();
        let err = TextEdgeStream::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn lazy_stream_parks_parse_error_and_reset_reports_it() {
        let path = tmp("bad.txt");
        std::fs::write(&path, "0 1\nnot numbers\n2 3\n").unwrap();
        let mut s = TextEdgeStream::open_lazy(&path).unwrap();
        assert_eq!(s.next_chunk(1), [Edge::new(0, 1)]);
        assert!(s.next_chunk(1).is_empty());
        assert!(matches!(s.error(), Some(GraphError::Parse { line: 2, .. })));
        // The next reset surfaces the parked error (a restreaming consumer
        // cannot silently loop over the truncated stream)...
        let err = s.reset().unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        // ...after which the stream is rewound and replays the good prefix.
        assert!(s.error().is_none());
        assert_eq!(s.next_chunk(1), [Edge::new(0, 1)]);
    }

    #[test]
    fn raw_text_stream_parses_sparse_u64_ids() {
        let path = tmp("raw_sparse.txt");
        std::fs::write(
            &path,
            format!(
                "# hashed-url ids\n18446744073709551615 9000000000\n9000000000 {}\n",
                1u64 << 40
            ),
        )
        .unwrap();
        let mut s = RawTextEdgeStream::open(&path).unwrap();
        assert_eq!(RawEdgeStream::len_hint(&s), Some(2));
        let first = RawEdge::new(u64::MAX, 9_000_000_000);
        assert_eq!(s.next_raw_chunk(1), [first]);
        assert_eq!(s.next_raw_chunk(7), [RawEdge::new(9_000_000_000, 1 << 40)]);
        assert!(s.next_raw_chunk(1).is_empty());
        // Resets for multi-pass consumption.
        RawEdgeStream::reset(&mut s).unwrap();
        assert_eq!(s.next_raw_chunk(1), [first]);
    }

    #[test]
    fn raw_text_stream_feeds_the_remap_layer() {
        use crate::idmap::RemappedStream;
        use crate::stream::collect_stream;
        let path = tmp("raw_remap.txt");
        std::fs::write(&path, "18446744073709551615 7\n7 42\n").unwrap();
        let raw = RawTextEdgeStream::open(&path).unwrap();
        let mut s = RemappedStream::remap(raw).unwrap();
        assert_eq!(
            collect_stream(&mut s),
            vec![Edge::new(0, 1), Edge::new(1, 2)]
        );
        assert_eq!(s.id_map().external_of(0), u64::MAX);
    }

    #[test]
    fn raw_text_stream_parks_error_on_mid_stream_mutation() {
        // A file mutated *underneath* an open stream (after the validating
        // pre-pass) must not be silently truncated: the parse error is
        // parked and the next reset reports it, so a restreaming consumer
        // cannot loop over a corrupted stream. The file must exceed the
        // BufReader buffer (8 KiB) for the mutation to be observable.
        let path = tmp("raw_mutated.txt");
        let good: String = (0..4000u64).map(|i| format!("{i} {}\n", i + 1)).collect();
        std::fs::write(&path, &good).unwrap();
        let mut s = RawTextEdgeStream::open(&path).unwrap();
        assert_eq!(s.next_raw_chunk(1), [RawEdge::new(0, 1)]);
        // Same-length garbage so reads keep succeeding but parsing fails.
        std::fs::write(&path, good.replace(' ', "x")).unwrap();
        while !s.next_raw_chunk(1).is_empty() {}
        assert!(s.error().is_some(), "mutation must park an error");
        assert!(
            RawEdgeStream::reset(&mut s).is_err(),
            "reset must report it"
        );
        // After reporting, the stream is usable again (over the new bytes).
        assert!(s.error().is_none());
    }

    #[test]
    fn raw_text_stream_rejects_malformed_lines_at_open() {
        let path = tmp("raw_bad.txt");
        std::fs::write(&path, "1 2\nnot numbers\n").unwrap();
        let err = RawTextEdgeStream::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn empty_input() {
        assert!(parse_edge_list("".as_bytes()).unwrap().is_empty());
        assert!(parse_edge_list("# only comments\n".as_bytes())
            .unwrap()
            .is_empty());
    }
}
