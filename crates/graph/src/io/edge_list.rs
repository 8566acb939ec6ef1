//! Whitespace-separated text edge lists (`src dst` per line, `#` comments) —
//! the de-facto exchange format of SNAP/WebGraph-derived datasets.
//!
//! Every text input goes through one line parser, [`RawTextEdgeStream`]'s.
//! It parses `u64` ids up to the id bound its `open` takes: `u64::MAX` for
//! sparse ids, which [`crate::idmap::RemappedStream`] compacts, and
//! `u32::MAX` under [`TextEdgeStream`], which narrows dense ids to
//! [`Edge`]s.

use crate::error::{GraphError, Result};
use crate::idmap::RawEdgeStream;
use crate::stream::{EdgeStream, RestreamableStream};
use crate::types::{Edge, RawEdge, VertexId};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Parses one id field of line `line`, holding it to `max_id`.
fn parse_id(field: Option<&str>, line: u64, max_id: u64) -> Result<u64> {
    let s = field.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two vertex ids".into(),
    })?;
    let message = match s.parse::<u64>() {
        Ok(id) if id <= max_id => return Ok(id),
        Ok(id) => format!("vertex id {id} is above this input's id bound {max_id}"),
        Err(e) => format!("bad vertex id {s:?}: {e}"),
    };
    Err(GraphError::Parse { line, message })
}

/// A resettable [`RawEdgeStream`] over a text edge list — the one line
/// parser of every text input.
///
/// Lines are pulled through a [`BufReader`]; a pull parses a block of lines
/// into the edge buffer the stream owns and lends it. Lines starting with
/// `#` or `%` and blank lines are skipped; every other line holds two ids.
///
/// [`RawTextEdgeStream::open`] takes an id bound and validates the whole
/// file in one buffered pre-pass, so a malformed line or an id above the
/// bound fails at open with its line number — never as a silently
/// truncated partition. The pass records the exact edge count
/// ([`RawEdgeStream::len_hint`]) and the largest id, which
/// [`TextEdgeStream`] reports as its vertex count. Later pulls hold every
/// line to the same parse and bound, so they fail only if the file changed
/// after open. Then the error is *parked*, the stream ends early, and the
/// next [`RawEdgeStream::reset`] reports it, so a restreaming consumer
/// cannot silently loop over a truncated stream.
/// [`RawTextEdgeStream::error`] exposes the parked error for single-pass
/// consumers.
#[derive(Debug)]
pub struct RawTextEdgeStream {
    reader: BufReader<std::fs::File>,
    path: PathBuf,
    line: String,
    line_no: u64,
    max_id: u64,
    done: bool,
    /// The chunk last parsed — what `next_raw_chunk` lends.
    buf: Vec<RawEdge>,
    error: Option<GraphError>,
    num_edges: u64,
    /// The largest id in the file (`None` if it holds no edge).
    largest_id: Option<u64>,
}

impl RawTextEdgeStream {
    /// Opens `path`, validating every line against the id bound `max_id` in
    /// one buffered pre-pass.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, or with [`GraphError::Parse`] naming the first
    /// line that is malformed or holds an id above `max_id`.
    pub fn open(path: &Path, max_id: u64) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut s = RawTextEdgeStream {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            line: String::new(),
            line_no: 0,
            max_id,
            done: false,
            buf: Vec::new(),
            error: None,
            num_edges: 0,
            largest_id: None,
        };
        while let Some(e) = s.parse_next()? {
            s.num_edges += 1;
            s.largest_id = s.largest_id.max(Some(e.src.max(e.dst)));
        }
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
            if self.reader.read_line(&mut self.line)? == 0 {
                self.done = true;
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let src = parse_id(it.next(), self.line_no, self.max_id)?;
            let dst = parse_id(it.next(), self.line_no, self.max_id)?;
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

/// A resettable [`EdgeStream`] over a text edge list of dense `u32` ids: a
/// [`RawTextEdgeStream`] opened with the id bound `u32::MAX`, whose ids it
/// narrows to [`Edge`]s.
///
/// The hints are exact, which CLUGP needs for `Vmax = |E|/k`:
/// [`EdgeStream::len_hint`] is the edge count and
/// [`EdgeStream::num_vertices_hint`] the largest id + 1. The failure
/// contract is the raw stream's: a bad line fails at open, and a file
/// changed after open parks its error for the next
/// [`RestreamableStream::reset`].
#[derive(Debug)]
pub struct TextEdgeStream {
    raw: RawTextEdgeStream,
    /// The narrowing of the raw chunk last pulled — what `next_chunk` lends.
    buf: Vec<Edge>,
}

impl TextEdgeStream {
    /// Opens `path`, validating every line in one buffered pre-pass.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, or with [`GraphError::Parse`] naming the first
    /// line that is malformed or holds an id above `u32::MAX`.
    pub fn open(path: &Path) -> Result<Self> {
        Ok(TextEdgeStream {
            raw: RawTextEdgeStream::open(path, u64::from(VertexId::MAX))?,
            buf: Vec::new(),
        })
    }

    /// The error that ended the stream early, if any (also reported by the
    /// next [`RestreamableStream::reset`]).
    pub fn error(&self) -> Option<&GraphError> {
        self.raw.error()
    }
}

impl EdgeStream for TextEdgeStream {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        self.buf.clear();
        // The id bound held every id to `u32` as it parsed.
        self.buf.extend(
            self.raw
                .next_raw_chunk(cap)
                .iter()
                .map(|e| Edge::new(e.src as VertexId, e.dst as VertexId)),
        );
        &self.buf
    }

    fn len_hint(&self) -> Option<u64> {
        self.raw.len_hint()
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.raw.largest_id.map_or(0, |id| id + 1))
    }
}

impl RestreamableStream for TextEdgeStream {
    /// Rewinds to the start of the file, reporting (and clearing) the error
    /// that ended the previous pass early.
    fn reset(&mut self) -> Result<()> {
        self.raw.reset()
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
    use crate::stream::collect_stream;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clugp_text_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Writes `text` to the file `name` and opens it as dense text.
    fn open_text(name: &str, text: &str) -> Result<TextEdgeStream> {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        TextEdgeStream::open(&path)
    }

    #[test]
    fn parses_simple_list() {
        let mut s = open_text("simple.txt", "# comment\n0 1\n\n% also comment\n2 3\n").unwrap();
        assert_eq!(collect_stream(&mut s), [Edge::new(0, 1), Edge::new(2, 3)]);
    }

    #[test]
    fn tolerates_extra_whitespace() {
        let mut s = open_text("spaces.txt", "  7\t 8 \n").unwrap();
        assert_eq!(collect_stream(&mut s), [Edge::new(7, 8)]);
    }

    #[test]
    fn reports_line_of_bad_token() {
        let err = open_text("bad_token.txt", "0 1\nx y\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn reports_missing_field() {
        let err = open_text("one_field.txt", "42\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let path = tmp("edges.txt");
        let edges = vec![Edge::new(0, 1), Edge::new(5, 2), Edge::new(5, 2)];
        write_edge_list(&path, &edges).unwrap();
        assert_eq!(
            collect_stream(&mut TextEdgeStream::open(&path).unwrap()),
            edges
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_stream_matches_eager_reader() {
        // The dense adapter yields what the sparse reading of the same file
        // yields, narrowed, with exact hints from the validating open.
        let path = tmp("stream.txt");
        let edges: Vec<Edge> = (0..500u32).map(|i| Edge::new(i, (i * 3) % 500)).collect();
        write_edge_list(&path, &edges).unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        assert_eq!(s.len_hint(), Some(500));
        assert_eq!(s.num_vertices_hint(), Some(500));
        assert_eq!(collect_stream(&mut s), edges);
        assert!(s.error().is_none());
        let mut raw = RawTextEdgeStream::open(&path, u64::MAX).unwrap();
        let wide: Vec<RawEdge> = edges.iter().map(|&e| e.into()).collect();
        assert_eq!(raw.next_raw_chunk(4096), wide);
    }

    #[test]
    fn text_stream_resets() {
        let path = tmp("reset.txt");
        write_edge_list(&path, &[Edge::new(0, 1), Edge::new(2, 3)]).unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        let first = collect_stream(&mut s);
        s.reset().unwrap();
        let second = collect_stream(&mut s);
        assert_eq!(first, second);
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn text_stream_chunked_pulls_skip_comments() {
        let mut s = open_text("comments.txt", "# header\n0 1\n\n% note\n2 3\n4 5\n").unwrap();
        assert_eq!(s.next_chunk(2), [Edge::new(0, 1), Edge::new(2, 3)]);
        assert_eq!(s.next_chunk(2), [Edge::new(4, 5)]);
        assert!(s.next_chunk(2).is_empty());
    }

    #[test]
    fn validating_open_rejects_malformed_file() {
        let err = open_text("bad_open.txt", "0 1\nnot numbers\n2 3\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
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
        let mut s = RawTextEdgeStream::open(&path, u64::MAX).unwrap();
        assert_eq!(RawEdgeStream::len_hint(&s), Some(2));
        assert_eq!(s.largest_id, Some(u64::MAX));
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
        let path = tmp("raw_remap.txt");
        std::fs::write(&path, "18446744073709551615 7\n7 42\n").unwrap();
        let raw = RawTextEdgeStream::open(&path, u64::MAX).unwrap();
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
        let mut s = RawTextEdgeStream::open(&path, u64::MAX).unwrap();
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

        // Under the dense adapter, an id that outgrows `u32` after open
        // parks its error the same way: the bound holds on every pass.
        std::fs::write(&path, &good).unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        assert_eq!(s.next_chunk(1), [Edge::new(0, 1)]);
        std::fs::write(&path, good.replace("3999 4000", "3999 9999999999")).unwrap();
        while !s.next_chunk(4096).is_empty() {}
        assert!(matches!(
            s.error(),
            Some(GraphError::Parse { line: 4000, .. })
        ));
        assert!(s.reset().is_err(), "reset must report it");
        assert!(s.error().is_none());
    }

    #[test]
    fn raw_text_stream_rejects_malformed_lines_at_open() {
        let path = tmp("raw_bad.txt");
        std::fs::write(&path, "1 2\nnot numbers\n").unwrap();
        let err = RawTextEdgeStream::open(&path, u64::MAX).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn empty_input() {
        for (name, text) in [
            ("empty.txt", ""),
            ("comments_only.txt", "# only comments\n"),
        ] {
            let mut s = open_text(name, text).unwrap();
            assert_eq!((s.len_hint(), s.num_vertices_hint()), (Some(0), Some(0)));
            assert!(s.next_chunk(16).is_empty());
        }
    }
}
