//! Graph I/O: a human-readable text edge list, a compact binary format,
//! and magic-based format detection over every on-disk representation
//! (including the block-compressed [`crate::pack`] format).
//!
//! Each format has one reader, and each reader is a resettable stream:
//! [`TextEdgeStream`] (over [`RawTextEdgeStream`], the one text line
//! parser), [`FileEdgeStream`] for flat binary, and the pack streams. A
//! caller that wants the edges in memory collects the stream
//! ([`crate::stream::collect_stream`]) and resets it, which reports any
//! error the pass parked.
//!
//! The binary format is what the Figure 10(a) experiment streams from disk to
//! charge I/O cost honestly (CLUGP makes three passes, one-pass baselines
//! one). [`sniff_format`]/[`open_edge_stream`] are the single entry point
//! the CLIs use, so a graph file works regardless of its extension.

pub mod binary;
pub mod edge_list;

pub use binary::{write_binary_graph, FileEdgeStream};
pub use edge_list::{write_edge_list, RawTextEdgeStream, TextEdgeStream};

use crate::error::Result;
use crate::stream::RestreamableStream;
use std::io::Read;
use std::path::Path;
use std::sync::OnceLock;

/// On-disk graph representations this crate can open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFileFormat {
    /// Flat binary (`CLUGPGR1` magic, 8 B/edge).
    Binary,
    /// Block-compressed pack (`CLUGPZ01` magic; see [`crate::pack`]).
    Packed,
    /// Text edge list (no magic — the fallback).
    Text,
}

impl GraphFileFormat {
    /// Short name for logs and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            GraphFileFormat::Binary => "binary",
            GraphFileFormat::Packed => "packed",
            GraphFileFormat::Text => "text",
        }
    }
}

/// Detects a file's format from its magic bytes (never from its extension):
/// `CLUGPGR1` → [`GraphFileFormat::Binary`], `CLUGPZ01` →
/// [`GraphFileFormat::Packed`], anything else (including files shorter than
/// a magic) → [`GraphFileFormat::Text`].
pub fn sniff_format(path: &Path) -> Result<GraphFileFormat> {
    let mut f = std::fs::File::open(path)?;
    let mut magic = [0u8; 8];
    let mut filled = 0usize;
    while filled < magic.len() {
        match f.read(&mut magic[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(match &magic[..filled] {
        m if m == binary::MAGIC => GraphFileFormat::Binary,
        m if m == crate::pack::PACK_MAGIC => GraphFileFormat::Packed,
        _ => GraphFileFormat::Text,
    })
}

/// Opens any on-disk edge file as a resettable stream, sniffing the format
/// by magic: flat binary → [`FileEdgeStream`], pack →
/// [`crate::pack::PipelinedPackStream`] wherever the process may run on a
/// second CPU ([`crate::pack::decodes_ahead`] of
/// [`std::thread::available_parallelism`], which honours the affinity mask,
/// so every `for_each_chunk` consumer inherits decode-ahead without
/// changing) and [`crate::pack::PackedEdgeStream`] elsewhere, both checking
/// every CRC; everything else → [`TextEdgeStream`] (validated eagerly).
/// This is the auto-detecting entry point of `clugp-part` and `clugp-pack`.
pub fn open_edge_stream(path: &Path) -> Result<Box<dyn RestreamableStream>> {
    static CPUS: OnceLock<usize> = OnceLock::new();
    Ok(match sniff_format(path)? {
        GraphFileFormat::Binary => Box::new(FileEdgeStream::open(path)?),
        GraphFileFormat::Packed => {
            let cpus =
                *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            if crate::pack::decodes_ahead(cpus) {
                Box::new(crate::pack::PipelinedPackStream::open(
                    path,
                    Default::default(),
                )?)
            } else {
                Box::new(crate::pack::PackedEdgeStream::open(path)?)
            }
        }
        GraphFileFormat::Text => Box::new(TextEdgeStream::open(path)?),
    })
}

/// Opens a text edge list of arbitrary sparse 64-bit ids as a remapped
/// dense stream (ids interned in first-appearance order) — the shared
/// sparse-input entry point of the `clugp-part` and `clugp-pack` CLIs.
/// Non-text inputs are rejected up front: the binary and pack formats
/// store dense `u32` ids by construction, so remapping them is a usage
/// error, not a fallback.
pub fn open_sparse_edge_stream(
    path: &Path,
) -> Result<crate::idmap::RemappedStream<RawTextEdgeStream>> {
    let fmt = sniff_format(path)?;
    if fmt != GraphFileFormat::Text {
        return Err(crate::error::GraphError::InvalidConfig(format!(
            "sparse-id input must be a text edge list of 64-bit ids, but {} is a {} file",
            path.display(),
            fmt.name()
        )));
    }
    crate::idmap::RemappedStream::remap(RawTextEdgeStream::open(path, u64::MAX)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{collect_stream, EdgeStream};
    use crate::types::Edge;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clugp_sniff_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> Vec<Edge> {
        vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]
    }

    #[test]
    fn sniffs_all_three_formats_regardless_of_extension() {
        let bin = tmp("misleading.txt");
        write_binary_graph(&bin, 3, &sample()).unwrap();
        assert_eq!(sniff_format(&bin).unwrap(), GraphFileFormat::Binary);

        let packed = tmp("misleading.bin");
        crate::pack::write_pack(&packed, 3, &sample(), &crate::pack::PackOptions::default())
            .unwrap();
        assert_eq!(sniff_format(&packed).unwrap(), GraphFileFormat::Packed);

        let text = tmp("plain.clugpz");
        write_edge_list(&text, &sample()).unwrap();
        assert_eq!(sniff_format(&text).unwrap(), GraphFileFormat::Text);

        // Short files fall back to text instead of erroring.
        let short = tmp("short");
        std::fs::write(&short, b"0 1").unwrap();
        assert_eq!(sniff_format(&short).unwrap(), GraphFileFormat::Text);

        for p in [bin, packed, text, short] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn open_edge_stream_yields_same_edges_for_every_format() {
        // Detected by magic, never by extension: the last two names lie.
        let edges = sample(); // already in canonical (src, dst) order
        let pack = |p: &Path| crate::pack::write_pack(p, 3, &edges, &Default::default());
        let inputs = ["auto.bin", "auto.clugpz", "auto.txt", "a.clugpz", "a.txt"].map(tmp);
        write_binary_graph(&inputs[0], 3, &edges).unwrap();
        pack(&inputs[1]).unwrap();
        write_edge_list(&inputs[2], &edges).unwrap();
        write_edge_list(&inputs[3], &edges).unwrap();
        pack(&inputs[4]).unwrap();
        for p in &inputs {
            let mut s = open_edge_stream(p).unwrap();
            let hints = (s.len_hint(), s.num_vertices_hint());
            assert_eq!(hints, (Some(3), Some(3)), "{}", p.display());
            assert_eq!(collect_stream(s.as_mut()), edges, "{}", p.display());
            s.reset().unwrap();
            assert_eq!(collect_stream(s.as_mut()).len(), edges.len());
        }
        for p in inputs {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn sparse_open_remaps_text_and_rejects_dense_formats() {
        let text = tmp("sparse_in.txt");
        std::fs::write(&text, "9000000000 7\n7 9000000000\n").unwrap();
        let s = open_sparse_edge_stream(&text).unwrap();
        assert_eq!(s.num_vertices_hint(), Some(2));

        let bin = tmp("sparse_in.bin");
        write_binary_graph(&bin, 2, &sample()).unwrap();
        let err = open_sparse_edge_stream(&bin).unwrap_err();
        assert!(err.to_string().contains("binary"), "{err}");
        for p in [text, bin] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn format_names() {
        assert_eq!(GraphFileFormat::Binary.name(), "binary");
        assert_eq!(GraphFileFormat::Packed.name(), "packed");
        assert_eq!(GraphFileFormat::Text.name(), "text");
    }
}
