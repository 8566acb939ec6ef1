//! `CLUGPZ` — block-compressed on-disk graph storage.
//!
//! The paper's Table III corpora ship WebGraph-compressed (~1–3 bits per
//! link); the flat [`crate::io::binary`] format replays them at a fixed
//! 8 B/edge, so on a real web graph the partitioner would be I/O-bound on a
//! representation ~20–50× larger than what production systems store. This
//! module is the missing storage layer: a compressed, block-indexed edge
//! pack that any chunked consumer streams through the standard
//! [`EdgeStream`] ABI — bit-identically to the flat formats — whole or a
//! block range at a time, through the block index.
//!
//! The module is layered:
//!
//! - [`checksum`] — CRC32 and the read-side [`ChecksumPolicy`]
//! - [`codec`] — varints and the per-block [`BlockDecoder`]
//! - [`pipeline`] — [`PipelinedPackStream`], decode running ahead of the
//!   consumer on one thread (see `DESIGN.md` §9)
//! - this file — on-disk format, writer, serial readers, verification
//!
//! # File layout (all little-endian)
//!
//! ```text
//! header   36 B   magic "CLUGPZ01", n u64, m u64, block_target u32,
//!                 flags u32, crc32(header[..32]) u32
//! blocks   ...    back-to-back varint payloads (~block_target bytes each),
//!                 each independently decodable
//! index    32 B × num_blocks
//!                 first_src u32, edge_count u32, byte_len u32,
//!                 crc32(payload) u32, edge_offset u64, byte_offset u64
//! footer   32 B   index_offset u64, num_blocks u64, crc32(index) u32,
//!                 crc32(footer[..24]) u32, magic "CLUGPZEN"
//! ```
//!
//! # Edge encoding
//!
//! A pack stores the edge multiset in **canonical order**: sorted by
//! `(src, dst)`, duplicates preserved. Grouping by source makes destination
//! lists sorted, so both coordinates gap-encode:
//!
//! ```text
//! record       := varint(src_gap) varint(dst_field)
//! first in blk := src and dst absolute
//! src_gap == 0 := same source run; dst_field = dst − prev_dst (≥ 0)
//! src_gap  > 0 := new source src = prev_src + gap; dst_field = dst absolute
//! ```
//!
//! On the site-structured web analogues this lands at ~2–3 B/edge (the
//! committed `results/BENCH_io.json` has the measured numbers) versus the
//! flat format's fixed 8. Every block starts with absolute coordinates, so
//! blocks decode independently — the property block-range streams, the
//! decode pipeline, and `reset` all lean on. A source's destination list
//! may span blocks; the continuation block simply re-encodes the source
//! absolutely.
//!
//! # Bounded-memory writer
//!
//! [`pack_edge_stream`] accepts edges in *any* order from any
//! [`EdgeStream`] and writes the same bytes for every order. While sources
//! ascend (a CSR dump, an adjacency-list file, a re-pack) it streams: each
//! adjacency list is sorted by `dst` once the next source starts and goes
//! straight to the block encoder, which runs on a second thread — one
//! pass, holding one list and two batches.
//! The first descent, or a list longer than [`PackOptions::spill_edges`],
//! hands the rest over to a classic external sort: buffers of at most
//! `spill_edges` edges, each sorted on every CPU the process may use and
//! spilled as a raw run next to the output, the last kept in memory, all
//! merged through a tree of branch-free two-way merges together with the
//! blocks already encoded, read back as the first run. The pack is
//! written beside the output and renamed over it once synced; no
//! temporary file survives, success or error (`DESIGN.md` §6).
//!
//! # Readers
//!
//! [`PackedEdgeStream`] implements [`EdgeStream`] + [`RestreamableStream`]:
//! one block is decoded per refill and `next_chunk` lends slices of it, so
//! CLUGP's three passes and every baseline consume a pack unchanged
//! (equivalence pinned by `tests/chunked_equivalence.rs`).
//! [`PipelinedPackStream`] is its decode-ahead twin: same chunk
//! sequence, decode on one more thread, opened by
//! [`crate::io::open_edge_stream`] wherever a second CPU is there.
//! [`PackedEdgeStream::open_blocks`] streams a block range alone, over a
//! file handle of its own: each worker of the coordinator/worker engine
//! reads its range so.
//!
//! Integrity: every reader that feeds a partitioner validates the header,
//! index, and footer checksums at open and block payloads as they stream
//! (CRC32/IEEE, [`ChecksumPolicy::Full`]); [`ChecksumPolicy::Off`] serves
//! inspecting damaged packs and pricing the CRC (see [`checksum`]). A
//! decode or I/O failure mid-stream parks
//! the error and ends the stream, and the next
//! [`RestreamableStream::reset`] reports it — the same failure contract as
//! every other file-backed stream in this crate.

pub mod checksum;
pub mod codec;
pub mod pipeline;

pub use checksum::{crc32, ChecksumPolicy};
pub use codec::BlockDecoder;
pub use pipeline::{decodes_ahead, DecodeOptions, PipelinedPackStream, DEFAULT_PREFETCH_BLOCKS};

use crate::error::{GraphError, Result};
use crate::stream::{chunk_edges, EdgeStream, RestreamableStream};
use crate::types::Edge;
use clugp_obs as obs;
use codec::put_record;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};

/// Magic bytes opening a `CLUGPZ` file (version 1).
pub const PACK_MAGIC: &[u8; 8] = b"CLUGPZ01";
/// Magic bytes closing the footer.
const FOOTER_MAGIC: &[u8; 8] = b"CLUGPZEN";

const HEADER_LEN: u64 = 36;
const FOOTER_LEN: u64 = 32;
const INDEX_ENTRY_LEN: usize = 32;

/// Default target payload bytes per block: large enough to amortize the
/// per-block seek + checksum to noise, small enough that a block's decoded
/// edges stay cache-resident and block ranges stay fine-grained.
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

/// Default in-memory sort buffer of the external-sort writer, in edges
/// (4 Mi edges = 32 MiB): the bound on packing memory.
pub const DEFAULT_SPILL_EDGES: usize = 4 << 20;

// ---------------------------------------------------------------------------
// On-disk structures.
// ---------------------------------------------------------------------------

/// Parsed, checksum-validated `CLUGPZ` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackHeader {
    /// Number of vertices of the packed graph.
    pub num_vertices: u64,
    /// Number of edges (over all blocks).
    pub num_edges: u64,
    /// The encoder's target payload bytes per block.
    pub block_target: u32,
}

impl PackHeader {
    fn to_bytes(self) -> [u8; HEADER_LEN as usize] {
        let mut b = [0u8; HEADER_LEN as usize];
        b[..8].copy_from_slice(PACK_MAGIC);
        b[8..16].copy_from_slice(&self.num_vertices.to_le_bytes());
        b[16..24].copy_from_slice(&self.num_edges.to_le_bytes());
        b[24..28].copy_from_slice(&self.block_target.to_le_bytes());
        b[28..32].copy_from_slice(&0u32.to_le_bytes()); // flags (reserved)
        let crc = crc32(&b[..32]);
        b[32..36].copy_from_slice(&crc.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8; HEADER_LEN as usize], verify_crc: bool) -> Result<Self> {
        if &b[..8] != PACK_MAGIC {
            return Err(GraphError::Format("not a CLUGPZ file (bad magic)".into()));
        }
        if verify_crc {
            let stored = u32::from_le_bytes(b[32..36].try_into().expect("4-byte field"));
            let computed = crc32(&b[..32]);
            if stored != computed {
                return Err(GraphError::Format(format!(
                    "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )));
            }
        }
        Ok(PackHeader {
            num_vertices: u64::from_le_bytes(b[8..16].try_into().expect("8-byte field")),
            num_edges: u64::from_le_bytes(b[16..24].try_into().expect("8-byte field")),
            block_target: u32::from_le_bytes(b[24..28].try_into().expect("4-byte field")),
        })
    }
}

/// One entry of the trailing block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Source id of the block's first edge.
    pub first_src: u32,
    /// Edges encoded in this block.
    pub edge_count: u32,
    /// Payload bytes of this block.
    pub byte_len: u32,
    /// CRC32 of the payload.
    pub crc: u32,
    /// Index of the block's first edge in the whole pack.
    pub edge_offset: u64,
    /// File offset of the payload start.
    pub byte_offset: u64,
}

impl BlockEntry {
    fn write_to(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.first_src.to_le_bytes());
        buf.extend_from_slice(&self.edge_count.to_le_bytes());
        buf.extend_from_slice(&self.byte_len.to_le_bytes());
        buf.extend_from_slice(&self.crc.to_le_bytes());
        buf.extend_from_slice(&self.edge_offset.to_le_bytes());
        buf.extend_from_slice(&self.byte_offset.to_le_bytes());
    }

    fn read_from(b: &[u8]) -> Self {
        BlockEntry {
            first_src: u32::from_le_bytes(b[0..4].try_into().expect("4-byte field")),
            edge_count: u32::from_le_bytes(b[4..8].try_into().expect("4-byte field")),
            byte_len: u32::from_le_bytes(b[8..12].try_into().expect("4-byte field")),
            crc: u32::from_le_bytes(b[12..16].try_into().expect("4-byte field")),
            edge_offset: u64::from_le_bytes(b[16..24].try_into().expect("8-byte field")),
            byte_offset: u64::from_le_bytes(b[24..32].try_into().expect("8-byte field")),
        }
    }
}

/// The validated block index of an open pack.
#[derive(Debug, Clone, Default)]
pub struct PackIndex {
    entries: Vec<BlockEntry>,
}

impl PackIndex {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.entries.len()
    }

    /// The index entries, in file order.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }

    /// Edges covered by the block range (from the index's edge offsets).
    pub fn edges_in(&self, blocks: Range<usize>) -> u64 {
        self.entries[blocks]
            .iter()
            .map(|e| u64::from(e.edge_count))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Knobs of [`pack_edge_stream`].
#[derive(Debug, Clone, Copy)]
pub struct PackOptions {
    /// Target payload bytes per block (clamped to ≥ 1; a tiny target gives
    /// one edge per block, the degenerate case the proptests sweep).
    pub block_bytes: usize,
    /// The most edges the writer holds (clamped to ≥ 1): the longest
    /// adjacency list it streams — a longer one hands the input over to the
    /// external sort — and that sort's in-memory buffer before a run spills
    /// to disk.
    pub spill_edges: usize,
}

impl Default for PackOptions {
    fn default() -> Self {
        PackOptions {
            block_bytes: DEFAULT_BLOCK_BYTES,
            spill_edges: DEFAULT_SPILL_EDGES,
        }
    }
}

/// What [`pack_edge_stream`] reports about the file it wrote.
#[derive(Debug, Clone, Copy)]
pub struct PackStats {
    /// Vertices recorded in the header.
    pub num_vertices: u64,
    /// Edges packed.
    pub num_edges: u64,
    /// Blocks written.
    pub num_blocks: u64,
    /// Compressed payload bytes (blocks only, excluding header/index/footer).
    pub payload_bytes: u64,
    /// Total file bytes.
    pub file_bytes: u64,
    /// Runs the external sort spilled to disk, plus its in-memory tail when
    /// it spilled any: 0 when the input streamed in one pass, or when what
    /// followed the hand-over fit one buffer. The streamed prefix, which the
    /// merge reads back after a hand-over, is not one of them (the trace's
    /// `pack:hand_over` instant carries its edge count).
    pub spill_runs: usize,
}

impl PackStats {
    /// Total file bytes per edge (∞-free: 0 edges reports 0).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.num_edges as f64
        }
    }
}

/// Incremental block encoder: push canonically-ordered edges, blocks and
/// index entries fall out.
struct BlockEncoder<W: Write> {
    out: W,
    target: usize,
    block: Vec<u8>,
    prev: Option<Edge>,
    first_src: u32,
    edges_in_block: u32,
    edge_offset: u64,
    byte_offset: u64,
    index: Vec<BlockEntry>,
}

impl<W: Write> BlockEncoder<W> {
    fn new(out: W, target: usize, byte_offset: u64) -> Self {
        BlockEncoder {
            out,
            target: target.max(1),
            block: Vec::with_capacity(target.max(1) + 16),
            prev: None,
            first_src: 0,
            edges_in_block: 0,
            edge_offset: 0,
            byte_offset,
            index: Vec::new(),
        }
    }

    /// Encodes a canonically-ordered slice, closing blocks as they fill.
    fn push_run(&mut self, edges: &[Edge]) -> Result<()> {
        for &e in edges {
            self.push(e)?;
        }
        Ok(())
    }

    #[inline]
    fn push(&mut self, e: Edge) -> Result<()> {
        match self.prev {
            None => {
                // Block opens with absolute coordinates.
                self.first_src = e.src;
                put_record(&mut self.block, e.src, e.dst);
            }
            Some(p) => {
                debug_assert!(
                    (p.src, p.dst) <= (e.src, e.dst),
                    "encoder fed unsorted edges"
                );
                let src_gap = e.src - p.src;
                let field = if src_gap == 0 { e.dst - p.dst } else { e.dst };
                put_record(&mut self.block, src_gap, field);
            }
        }
        self.prev = Some(e);
        self.edges_in_block += 1;
        if self.block.len() >= self.target {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.edges_in_block == 0 {
            return Ok(());
        }
        self.out.write_all(&self.block)?;
        self.index.push(BlockEntry {
            first_src: self.first_src,
            edge_count: self.edges_in_block,
            byte_len: self.block.len() as u32,
            crc: crc32(&self.block),
            edge_offset: self.edge_offset,
            byte_offset: self.byte_offset,
        });
        self.edge_offset += u64::from(self.edges_in_block);
        self.byte_offset += self.block.len() as u64;
        self.block.clear();
        self.prev = None;
        self.edges_in_block = 0;
        Ok(())
    }

    /// Edges pushed so far.
    fn encoded(&self) -> u64 {
        self.edge_offset + u64::from(self.edges_in_block)
    }

    /// Flushes the trailing partial block and returns `(index, edges,
    /// payload_end_offset, writer)`.
    fn finish(mut self) -> Result<(Vec<BlockEntry>, u64, u64, W)> {
        self.flush_block()?;
        Ok((self.index, self.edge_offset, self.byte_offset, self.out))
    }
}

/// The encoder of a pack being written to a file.
type PackEncoder = BlockEncoder<BufWriter<File>>;

/// A block encoder writing a new pack at `path`, its header left blank
/// until [`finish_pack`] knows the counts.
fn create_pack(path: &Path, opts: &PackOptions) -> Result<PackEncoder> {
    let mut w = BufWriter::with_capacity(1 << 16, File::create(path)?);
    w.write_all(&[0u8; HEADER_LEN as usize])?;
    Ok(BlockEncoder::new(w, opts.block_bytes, HEADER_LEN))
}

/// Edges per spill-run slab: runs are written and read back 64 KiB at a time.
const SLAB_EDGES: usize = 8 * 1024;
/// Bytes of one raw spill-run record (`src`, `dst`, little-endian).
const RECORD_LEN: usize = 8;

/// Buffers below this many edges sort inline on the calling thread: a
/// thread would cost more than the sort it takes over.
const INLINE_SORT_EDGES: usize = 1 << 15;

/// Sorts a buffer of the external sort into canonical `(src, dst)` order on
/// up to `width` threads, over the packed `src << 32 | dst` keys.
///
/// The buffer is cut into parts that sort apart — no key left of a cut
/// above a key right of it — and each part is sorted in place on a scoped
/// thread of its own. Equal keys are identical edges, so the sorted buffer,
/// and every byte packed from it, is the same at any width.
fn sort_canonical(edges: &mut [Edge], width: usize) {
    let start = obs::now_us();
    sort_parts(edges, width.max(1));
    obs::record_span("pack:sort", start, edges.len() as u64);
}

/// Sorts `edges` on `width` threads by recursive halving around the key of
/// the cut's rank: the calling thread takes one part, a scoped thread the
/// other, each with its share of the width. A buffer below
/// [`INLINE_SORT_EDGES`] or a width of one sorts inline.
fn sort_parts(edges: &mut [Edge], width: usize) {
    if width >= 2 && edges.len() >= INLINE_SORT_EDGES {
        let left_width = width / 2;
        let at = edges.len() * left_width / width;
        edges.select_nth_unstable_by_key(at, packed_key);
        let (left, right) = edges.split_at_mut(at);
        std::thread::scope(|scope| {
            scope.spawn(|| sort_parts(left, left_width));
            sort_parts(right, width - left_width);
        });
        return;
    }
    edges.sort_unstable_by_key(packed_key);
}

/// An edge's `(src, dst)` order as one integer.
fn packed_key(e: &Edge) -> u64 {
    u64::from(e.src) << 32 | u64::from(e.dst)
}

/// What a run file of the external sort holds.
enum Spilled {
    /// This many raw `src`/`dst` records.
    Records(u64),
    /// The streamed prefix: the blocks of this index, ending at this byte
    /// offset.
    Blocks(Vec<BlockEntry>, u64),
}

/// A run file being read back, with what it has yet to hand over.
enum RunFile {
    Records {
        file: File,
        owed: u64,
    },
    Blocks {
        file: File,
        blocks: std::vec::IntoIter<BlockEntry>,
    },
}

/// One sorted run of the external sort, held a slab at a time: a run file
/// — raw records, or the streamed prefix a block per slab — or the
/// in-memory tail (no file — its slab is the whole buffer).
struct Run {
    slab: Vec<Edge>,
    pos: usize,
    file: Option<RunFile>,
}

impl Run {
    fn in_memory(sorted: Vec<Edge>) -> Self {
        Run {
            slab: sorted,
            pos: 0,
            file: None,
        }
    }

    /// Opens the run file at `path` and loads its first slab. A file that is
    /// not exactly what was `spilled` to it is an error: a truncated run
    /// must never merge into a shorter graph.
    fn open(path: &Path, spilled: &Spilled, scratch: &mut Vec<u8>) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let (want, what, file) = match spilled {
            Spilled::Records(edges) => (
                edges * RECORD_LEN as u64,
                format!("the {edges} edges spilled to it"),
                RunFile::Records { file, owed: *edges },
            ),
            Spilled::Blocks(index, end) => (
                *end,
                format!("the {} blocks streamed to it", index.len()),
                RunFile::Blocks {
                    file,
                    blocks: index.clone().into_iter(),
                },
            ),
        };
        if len != want {
            return Err(GraphError::Format(format!(
                "spill run {} is {len} bytes, {what} are {want}",
                path.display()
            )));
        }
        let mut run = Run {
            slab: Vec::new(),
            pos: 0,
            file: Some(file),
        };
        run.refill(scratch)?;
        Ok(run)
    }

    /// Replaces the spent slab with the next one; `false` once the run is
    /// drained.
    fn refill(&mut self, scratch: &mut Vec<u8>) -> Result<bool> {
        self.slab.clear();
        self.pos = 0;
        match &mut self.file {
            None | Some(RunFile::Records { owed: 0, .. }) => Ok(false),
            Some(RunFile::Records { file, owed }) => {
                let want = (*owed).min(SLAB_EDGES as u64) as usize;
                scratch.resize(want * RECORD_LEN, 0);
                file.read_exact(scratch)?;
                self.slab
                    .extend(scratch.chunks_exact(RECORD_LEN).map(|rec| Edge {
                        src: u32::from_le_bytes(rec[..4].try_into().expect("4-byte field")),
                        dst: u32::from_le_bytes(rec[4..].try_into().expect("4-byte field")),
                    }));
                *owed -= want as u64;
                Ok(true)
            }
            Some(RunFile::Blocks { file, blocks }) => match blocks.next() {
                Some(entry) => {
                    load_block(file, scratch, &entry, ChecksumPolicy::Full, &mut self.slab)?;
                    Ok(true)
                }
                None => Ok(false),
            },
        }
    }
}

/// Edges a merge node holds ready for its parent: enough to run its
/// inner loop long, few enough that the nodes of a tree over hundreds of
/// runs stay in cache.
const MERGE_EDGES: usize = 4 * 1024;

/// A sorted input of the k-way merge: a run, or a node merging two.
enum Merge {
    Run(Run),
    Pair(Box<Pair>),
}

/// Two sorted inputs merged a buffer at a time.
struct Pair {
    left: Merge,
    right: Merge,
    out: Vec<Edge>,
    pos: usize,
}

impl Merge {
    /// The merge of `runs` as a balanced tree of pairs: every edge passes
    /// ⌈log₂ k⌉ two-way merges. `None` without a run.
    fn tree(runs: Vec<Run>) -> Option<Merge> {
        let mut level: Vec<Merge> = runs.into_iter().map(Merge::Run).collect();
        while level.len() > 1 {
            let mut inputs = level.into_iter();
            let mut next = Vec::new();
            while let Some(left) = inputs.next() {
                next.push(match inputs.next() {
                    Some(right) => Merge::Pair(Box::new(Pair {
                        left,
                        right,
                        out: Vec::with_capacity(MERGE_EDGES),
                        pos: 0,
                    })),
                    None => left,
                });
            }
            level = next;
        }
        level.pop()
    }

    /// The next edges in order, refilled when spent; empty once drained.
    fn head(&mut self, scratch: &mut Vec<u8>) -> Result<&[Edge]> {
        match self {
            Merge::Run(run) => {
                if run.pos == run.slab.len() {
                    run.refill(scratch)?;
                }
                Ok(&run.slab[run.pos..])
            }
            Merge::Pair(pair) => {
                if pair.pos == pair.out.len() {
                    pair.fill(scratch)?;
                }
                Ok(&pair.out[pair.pos..])
            }
        }
    }

    /// Takes the first `n` edges of the head.
    fn consume(&mut self, n: usize) {
        match self {
            Merge::Run(run) => run.pos += n,
            Merge::Pair(pair) => pair.pos += n,
        }
    }
}

impl Pair {
    /// Refills `out` with the next edges of both inputs. Where one input's
    /// head lies wholly below the other's next edge (runs that do not
    /// interleave) it moves as one slice; otherwise the two heads merge an
    /// edge per step without a branch on which input wins. Equal keys are
    /// identical edges, so which input gives up a tie changes no byte.
    fn fill(&mut self, scratch: &mut Vec<u8>) -> Result<()> {
        self.out.clear();
        self.pos = 0;
        while self.out.len() < MERGE_EDGES {
            let room = MERGE_EDGES - self.out.len();
            let (l, r) = (self.left.head(scratch)?, self.right.head(scratch)?);
            let (took_l, took_r) = match (l, r) {
                ([], []) => break,
                (_, []) => (l.len().min(room), 0),
                ([], _) => (0, r.len().min(room)),
                ([.., last], [next, ..]) if packed_key(last) <= packed_key(next) => {
                    (l.len().min(room), 0)
                }
                ([next, ..], [.., last]) if packed_key(last) < packed_key(next) => {
                    (0, r.len().min(room))
                }
                _ => {
                    let (mut i, mut j) = (0, 0);
                    while i < l.len() && j < r.len() && i + j < room {
                        let (a, b) = (l[i], r[j]);
                        let right = packed_key(&b) < packed_key(&a);
                        self.out.push(if right { b } else { a });
                        i += usize::from(!right);
                        j += usize::from(right);
                    }
                    self.left.consume(i);
                    self.right.consume(j);
                    continue;
                }
            };
            self.out.extend_from_slice(&l[..took_l]);
            self.out.extend_from_slice(&r[..took_r]);
            self.left.consume(took_l);
            self.right.consume(took_r);
        }
        Ok(())
    }
}

/// Merges `runs` into `emit`, a sorted slice at a time.
fn merge_runs(
    runs: Vec<Run>,
    scratch: &mut Vec<u8>,
    mut emit: impl FnMut(&[Edge]) -> Result<()>,
) -> Result<()> {
    let Some(mut root) = Merge::tree(runs) else {
        return Ok(());
    };
    loop {
        let head = root.head(scratch)?;
        if head.is_empty() {
            return Ok(());
        }
        emit(head)?;
        let n = head.len();
        root.consume(n);
    }
}

/// The files the writer keeps beside the output: the pack being written,
/// `<name>.tmp`, renamed over the output once it is synced, and the runs of
/// the external sort, `<name>.runN.tmp`. Every one still there is removed
/// when this is dropped, on success and on every error path.
struct Scratch {
    output: PathBuf,
    /// Every run spilled so far, in merge order.
    runs: Vec<(PathBuf, Spilled)>,
    /// The bytes of the slab being written.
    bytes: Vec<u8>,
}

impl Scratch {
    fn new(output: &Path) -> Self {
        Scratch {
            output: output.to_path_buf(),
            runs: Vec::new(),
            bytes: Vec::new(),
        }
    }

    /// The output's whole file name with `suffix` appended: `web.clugpz`
    /// and `web.bin` packed side by side must not share `web.run0.tmp`.
    fn beside(&self, suffix: &str) -> PathBuf {
        let mut name = self.output.file_name().unwrap_or_default().to_os_string();
        name.push(suffix);
        self.output.with_file_name(name)
    }

    /// Where the pack is written until it is whole.
    fn pack(&self) -> PathBuf {
        self.beside(".tmp")
    }

    fn next_run(&self) -> PathBuf {
        self.beside(&format!(".run{}.tmp", self.runs.len()))
    }

    /// Writes the sorted `edges` out as the next run, a slab per write, and
    /// empties the buffer.
    fn spill(&mut self, edges: &mut Vec<Edge>) -> Result<()> {
        let path = self.next_run();
        let mut file = File::create(&path)?;
        self.runs.push((path, Spilled::Records(edges.len() as u64)));
        for slab in edges.chunks(SLAB_EDGES) {
            self.bytes.clear();
            for e in slab {
                self.bytes.extend_from_slice(&e.src.to_le_bytes());
                self.bytes.extend_from_slice(&e.dst.to_le_bytes());
            }
            file.write_all(&self.bytes)?;
        }
        edges.clear();
        Ok(())
    }

    /// Closes the streamed prefix `enc` wrote into the pack file and makes
    /// it the first run, read back through its blocks; returns its edge
    /// count. An empty prefix is no run: the merge rewrites the file.
    fn keep_prefix(&mut self, enc: PackEncoder) -> Result<u64> {
        let (index, edges, end, w) = enc.finish()?;
        w.into_inner()
            .map_err(|e| GraphError::from(e.into_error()))?;
        if edges > 0 {
            let run = self.next_run();
            std::fs::rename(self.pack(), &run)?;
            self.runs.push((run, Spilled::Blocks(index, end)));
        }
        Ok(edges)
    }

    /// Renames the synced pack over the output.
    fn commit(&self) -> Result<()> {
        Ok(std::fs::rename(self.pack(), &self.output)?)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for (p, _) in &self.runs {
            std::fs::remove_file(p).ok();
        }
        // Gone already once committed.
        std::fs::remove_file(self.pack()).ok();
    }
}

/// Edges the streamed prefix hands the encoder at a time: enough to keep a
/// second CPU busy for a while, few enough to stay in its caches.
const STREAM_BATCH: usize = 64 * 1024;

/// The block encoder of a pack being written, on a scoped thread beside
/// the caller, which hands it one batch of sorted edges at a time and fills
/// the next into the other of two buffers meanwhile.
struct Encoder<'scope> {
    to: SyncSender<Vec<Edge>>,
    back: Receiver<Vec<Edge>>,
    spare: Vec<Edge>,
    /// Edges of the batch the thread holds, if it holds one.
    in_flight: Option<usize>,
    /// Taken only to report the error the thread stopped on.
    thread: Option<ScopedJoinHandle<'scope, Result<PackEncoder>>>,
}

impl<'scope> Encoder<'scope> {
    fn new(enc: PackEncoder, scope: &'scope Scope<'scope, '_>) -> Self {
        let (to, batches) = sync_channel::<Vec<Edge>>(1);
        let (give_back, back) = channel();
        let thread = scope.spawn(move || -> Result<PackEncoder> {
            let (start, mut enc) = (obs::now_us(), enc);
            for mut batch in batches {
                enc.push_run(&batch)?;
                batch.clear();
                // Only a caller on its way out stops taking buffers back.
                give_back.send(batch).ok();
            }
            obs::record_span("pack:encode", start, enc.encoded());
            Ok(enc)
        });
        Encoder {
            to,
            back,
            spare: Vec::new(),
            in_flight: None,
            thread: Some(thread),
        }
    }

    /// Edges of the batch the thread holds.
    fn in_flight(&self) -> usize {
        self.in_flight.unwrap_or(0)
    }

    /// Waits for the thread to give back the buffer of the batch it holds.
    fn reclaim(&mut self) -> Result<()> {
        if self.in_flight.is_some() {
            match self.back.recv() {
                Ok(buffer) => {
                    self.spare = buffer;
                    self.in_flight = None;
                }
                Err(_) => return Err(self.failure()),
            }
        }
        Ok(())
    }

    /// An empty buffer to fill.
    fn spare(&mut self) -> Result<Vec<Edge>> {
        self.reclaim()?;
        Ok(std::mem::take(&mut self.spare))
    }

    /// Encodes `batch`, sorted edges that follow every batch before it.
    fn encode(&mut self, batch: Vec<Edge>) -> Result<()> {
        self.reclaim()?;
        let edges = batch.len();
        if self.to.send(batch).is_err() {
            return Err(self.failure());
        }
        self.in_flight = Some(edges);
        Ok(())
    }

    /// The error the encoder thread stopped on.
    fn failure(&mut self) -> GraphError {
        match self.thread.take().map(ScopedJoinHandle::join) {
            Some(Ok(Err(e))) => e,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            _ => GraphError::Io(std::io::Error::other("the pack encoder stopped early")),
        }
    }

    /// The encoder, every batch handed to it encoded.
    fn finish(self) -> Result<PackEncoder> {
        drop(self.to);
        match self.thread.expect("taken only on failure").join() {
            Ok(enc) => enc,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// The source-ascending prefix of the input, gathered a list at a time:
/// each adjacency list is sorted by `dst` once the next source starts.
struct Gather {
    /// Sorted lists not yet handed to the encoder, then the open list.
    lists: Vec<Edge>,
    /// Where the open list starts in `lists`.
    open: usize,
    /// The `dst`s of the list being sorted.
    dsts: Vec<u32>,
    last_src: Option<u32>,
    /// [`PackOptions::spill_edges`]: the most edges held here and by the
    /// encoder thread together.
    cap: usize,
}

impl Gather {
    fn new(cap: usize) -> Self {
        Gather {
            lists: Vec::new(),
            open: 0,
            dsts: Vec::new(),
            last_src: None,
            cap,
        }
    }

    /// Takes the leading edges of `chunk` that keep the prefix streaming and
    /// says how many. Fewer than all is the hand-over: an edge whose source
    /// is below the last one's, or a list that would grow past the cap.
    fn take(&mut self, chunk: &[Edge], enc: &mut Encoder) -> Result<usize> {
        let mut taken = 0;
        for run in chunk.chunk_by(|a, b| a.src == b.src) {
            let src = run[0].src;
            match self.last_src {
                Some(last) if src < last => {
                    self.close();
                    return Ok(taken);
                }
                Some(last) if src > last => {
                    self.close();
                    if self.open >= STREAM_BATCH {
                        self.send(enc)?;
                    }
                }
                _ => {}
            }
            self.last_src = Some(src);
            while self.lists.len() + enc.in_flight() + run.len() > self.cap {
                if enc.in_flight() > 0 {
                    enc.reclaim()?;
                } else if self.open > 0 {
                    self.send(enc)?;
                } else {
                    return Ok(taken);
                }
            }
            self.lists.extend_from_slice(run);
            taken += run.len();
        }
        Ok(taken)
    }

    /// Sorts the open list, which the next source closed. All its edges
    /// share one source, so sorting their bare `dst`s orders it, and sorts
    /// faster than the edges by key.
    fn close(&mut self) {
        let list = &mut self.lists[self.open..];
        if list.len() > 1 {
            self.dsts.clear();
            self.dsts.extend(list.iter().map(|e| e.dst));
            self.dsts.sort_unstable();
            for (e, &dst) in list.iter_mut().zip(&self.dsts) {
                e.dst = dst;
            }
        }
        self.open = self.lists.len();
    }

    /// Hands the closed lists to the encoder and moves the open one to the
    /// buffer the encoder gave back.
    fn send(&mut self, enc: &mut Encoder) -> Result<()> {
        let mut next = enc.spare()?;
        next.extend_from_slice(&self.lists[self.open..]);
        self.lists.truncate(self.open);
        self.open = 0;
        enc.encode(std::mem::replace(&mut self.lists, next))
    }

    /// Encodes every closed list; returns the encoder and the open list,
    /// which is empty unless it outgrew the cap.
    fn hand_over(mut self, mut enc: Encoder) -> Result<(PackEncoder, Vec<Edge>)> {
        self.send(&mut enc)?;
        Ok((enc.finish()?, self.lists))
    }

    /// At the end of the input the last list closes too.
    fn finish(mut self, enc: Encoder) -> Result<PackEncoder> {
        self.close();
        Ok(self.hand_over(enc)?.0)
    }
}

/// Packs any edge stream into a `CLUGPZ` file at `path` in bounded memory.
///
/// The stream may yield edges in any order. While sources ascend, each
/// adjacency list is sorted by `dst` as the next source starts and goes
/// straight to the block encoder, which runs on a second thread: a
/// source-ascending input packs in one pass, holding one list and two
/// batches. The first descent, or a list longer
/// than [`PackOptions::spill_edges`], hands the rest over to an external
/// sort — buffers of at most `spill_edges` edges, each sorted on every CPU
/// and spilled as a run — which merges the blocks already encoded back in
/// as its first run. The file is the same for any input order and any
/// number of CPUs. The header's vertex count is
/// `max(num_vertices_hint, max id + 1)`.
///
/// The pack is written to `<name>.tmp` beside `path` and renamed over it
/// once synced; the spill runs are `<name>.runN.tmp`.
///
/// # Errors
///
/// Fails on I/O errors writing the pack or its runs — a failed final
/// `fsync` included — when `path` exists but is no regular file, and with
/// [`GraphError::Format`] when a run read back is not the run that was
/// written. No temporary file is left behind, and `path` is only ever
/// replaced by a whole pack.
pub fn pack_edge_stream(
    stream: &mut dyn EdgeStream,
    path: &Path,
    opts: &PackOptions,
) -> Result<PackStats> {
    // The rename at the end would replace a device or a directory there.
    if path.metadata().is_ok_and(|m| !m.is_file()) {
        return Err(GraphError::Io(std::io::Error::other(format!(
            "{} exists and is not a regular file",
            path.display()
        ))));
    }
    // Every CPU the process may use sorts: `taskset -c 0` gives one.
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spill_cap = opts.spill_edges.max(1);
    let mut scratch = Scratch::new(path);
    let mut buffer: Vec<Edge> = Vec::new();
    let (mut drained, mut max_id) = (0u64, 0u32);
    let (enc, spill_runs) = std::thread::scope(|scope| -> Result<(PackEncoder, usize)> {
        let (t_stream, mut t_drain) = (obs::now_us(), 0);
        let enc = Encoder::new(create_pack(&scratch.pack(), opts)?, scope);
        let mut streaming = Some((Gather::new(spill_cap), enc));
        crate::stream::try_for_each_chunk(stream, chunk_edges(), |mut chunk| -> Result<()> {
            drained += chunk.len() as u64;
            max_id = chunk.iter().fold(max_id, |m, e| m.max(e.src).max(e.dst));
            if let Some((gather, enc)) = &mut streaming {
                let taken = gather.take(chunk, enc)?;
                if taken == chunk.len() {
                    return Ok(());
                }
                chunk = &chunk[taken..];
                let (gather, enc) = streaming.take().expect("streaming");
                let (enc, open) = gather.hand_over(enc)?;
                obs::record_span("pack:stream", t_stream, drained - chunk.len() as u64);
                obs::record_instant("pack:hand_over", scratch.keep_prefix(enc)?);
                buffer = open;
                buffer.reserve_exact(
                    spill_cap
                        .min(DEFAULT_SPILL_EDGES)
                        .saturating_sub(buffer.len()),
                );
                t_drain = obs::now_us();
                // An open list of exactly the cap fills the buffer.
                if buffer.len() >= spill_cap {
                    sort_canonical(&mut buffer, width);
                    scratch.spill(&mut buffer)?;
                }
            }
            while !chunk.is_empty() {
                let (head, rest) = chunk.split_at(chunk.len().min(spill_cap - buffer.len()));
                buffer.extend_from_slice(head);
                chunk = rest;
                if buffer.len() >= spill_cap {
                    sort_canonical(&mut buffer, width);
                    scratch.spill(&mut buffer)?;
                }
            }
            Ok(())
        })?;
        match streaming {
            Some((gather, enc)) => {
                let enc = gather.finish(enc)?;
                obs::record_span("pack:stream", t_stream, drained);
                Ok((enc, 0))
            }
            None => {
                // The tail run stays in memory: it is merged from the
                // buffer it sits in.
                sort_canonical(&mut buffer, width);
                obs::record_span("pack:drain_spill", t_drain, drained);
                let t_merge = obs::now_us();
                let merged = merge_encode(&scratch, buffer, opts, scope)?;
                obs::record_span("pack:merge_encode", t_merge, drained);
                Ok(merged)
            }
        }
    })?;
    let implied_n = if drained == 0 {
        0
    } else {
        u64::from(max_id) + 1
    };
    let num_vertices = stream.num_vertices_hint().unwrap_or(0).max(implied_n);
    let stats = finish_pack(enc, drained, num_vertices, opts, spill_runs)?;
    scratch.commit()?;
    Ok(stats)
}

/// The second half of a handed-over [`pack_edge_stream`]: merges the runs
/// of `scratch` — the streamed prefix first — and the sorted in-memory
/// `tail` into a new pack file, encoded beside the merge as the streamed
/// prefix was. Returns the encoder and the spill-run count.
fn merge_encode<'scope>(
    scratch: &Scratch,
    tail: Vec<Edge>,
    opts: &PackOptions,
    scope: &'scope Scope<'scope, '_>,
) -> Result<(PackEncoder, usize)> {
    let mut bytes = Vec::new();
    let mut runs = scratch
        .runs
        .iter()
        .map(|(p, spilled)| Run::open(p, spilled, &mut bytes))
        .collect::<Result<Vec<Run>>>()?;
    let spilled = scratch
        .runs
        .iter()
        .filter(|(_, s)| matches!(s, Spilled::Records(_)))
        .count();
    let spill_runs = if spilled == 0 {
        0
    } else {
        spilled + usize::from(!tail.is_empty())
    };
    if !tail.is_empty() {
        runs.push(Run::in_memory(tail));
    }
    let mut enc = Encoder::new(create_pack(&scratch.pack(), opts)?, scope);
    let batch_edges = STREAM_BATCH.min(opts.spill_edges.max(1));
    let mut batch = Vec::new();
    merge_runs(runs, &mut bytes, |edges| {
        batch.extend_from_slice(edges);
        if batch.len() >= batch_edges {
            let next = enc.spare()?;
            enc.encode(std::mem::replace(&mut batch, next))?;
        }
        Ok(())
    })?;
    enc.encode(batch)?;
    Ok((enc.finish()?, spill_runs))
}

/// Closes the pack `enc` wrote: holds the edges encoded to the `drained`
/// the stream handed over, then writes index, footer and the real header,
/// and syncs.
fn finish_pack(
    enc: PackEncoder,
    drained: u64,
    num_vertices: u64,
    opts: &PackOptions,
    spill_runs: usize,
) -> Result<PackStats> {
    let start = obs::now_us();
    let (index, num_edges, payload_end, mut w) = enc.finish()?;
    if num_edges != drained {
        return Err(GraphError::Format(format!(
            "packing drained {drained} edges from the stream but encoded {num_edges} \
             out of its {spill_runs} spill runs"
        )));
    }
    // Trailing index + footer.
    let mut index_bytes = Vec::with_capacity(index.len() * INDEX_ENTRY_LEN);
    for entry in &index {
        entry.write_to(&mut index_bytes);
    }
    w.write_all(&index_bytes)?;
    let mut footer = [0u8; FOOTER_LEN as usize];
    footer[..8].copy_from_slice(&payload_end.to_le_bytes());
    footer[8..16].copy_from_slice(&(index.len() as u64).to_le_bytes());
    footer[16..20].copy_from_slice(&crc32(&index_bytes).to_le_bytes());
    let fcrc = crc32(&footer[..20]);
    footer[20..24].copy_from_slice(&fcrc.to_le_bytes());
    footer[24..32].copy_from_slice(FOOTER_MAGIC);
    w.write_all(&footer)?;
    w.flush()?;

    // Rewrite the header with the real counts.
    let mut file = w
        .into_inner()
        .map_err(|e| GraphError::from(e.into_error()))?;
    let header = PackHeader {
        num_vertices,
        num_edges,
        block_target: opts.block_bytes.max(1).min(u32::MAX as usize) as u32,
    };
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header.to_bytes())?;
    // A pack reported written is durable, or the caller hears why not.
    file.sync_data()?;
    obs::record_span("pack:finish", start, num_edges);
    Ok(PackStats {
        num_vertices,
        num_edges,
        num_blocks: index.len() as u64,
        payload_bytes: payload_end - HEADER_LEN,
        file_bytes: payload_end + index_bytes.len() as u64 + FOOTER_LEN,
        spill_runs,
    })
}

// ---------------------------------------------------------------------------
// Open/validate.
// ---------------------------------------------------------------------------

/// Opens `path` and validates its metadata under `policy`: magic bytes and
/// structural consistency (contiguous block offsets, non-empty blocks, at
/// most one edge per two payload bytes, totals matching the header) always;
/// header/index/footer CRC comparisons only when
/// [`ChecksumPolicy::verifies`] holds.
pub(crate) fn open_validated(
    path: &Path,
    policy: ChecksumPolicy,
) -> Result<(File, PackHeader, PackIndex)> {
    let verify = policy.verifies();
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err(GraphError::Format(format!(
            "CLUGPZ file shorter than header + footer ({file_len} bytes)"
        )));
    }
    let mut hbytes = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut hbytes)?;
    let header = PackHeader::from_bytes(&hbytes, verify)?;

    let mut fbytes = [0u8; FOOTER_LEN as usize];
    file.seek(SeekFrom::Start(file_len - FOOTER_LEN))?;
    file.read_exact(&mut fbytes)?;
    if &fbytes[24..32] != FOOTER_MAGIC {
        return Err(GraphError::Format(
            "CLUGPZ footer magic missing (truncated file?)".into(),
        ));
    }
    if verify {
        let stored = u32::from_le_bytes(fbytes[20..24].try_into().expect("4-byte field"));
        let computed = crc32(&fbytes[..20]);
        if stored != computed {
            return Err(GraphError::Format(format!(
                "footer checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
    }
    let index_offset = u64::from_le_bytes(fbytes[..8].try_into().expect("8-byte field"));
    let num_blocks = u64::from_le_bytes(fbytes[8..16].try_into().expect("8-byte field"));
    let index_crc = u32::from_le_bytes(fbytes[16..20].try_into().expect("4-byte field"));

    let index_len = num_blocks
        .checked_mul(INDEX_ENTRY_LEN as u64)
        .filter(|len| index_offset.checked_add(*len) == Some(file_len - FOOTER_LEN))
        .ok_or_else(|| {
            GraphError::Format("block index does not span header..footer (corrupt footer)".into())
        })?;
    let mut index_bytes = vec![0u8; index_len as usize];
    file.seek(SeekFrom::Start(index_offset))?;
    file.read_exact(&mut index_bytes)?;
    if verify {
        let computed = crc32(&index_bytes);
        if index_crc != computed {
            return Err(GraphError::Format(format!(
                "index checksum mismatch: stored {index_crc:#010x}, computed {computed:#010x}"
            )));
        }
    }
    let mut entries = Vec::with_capacity(num_blocks as usize);
    let mut expect_edge = 0u64;
    let mut expect_byte = HEADER_LEN;
    for raw in index_bytes.chunks_exact(INDEX_ENTRY_LEN) {
        let e = BlockEntry::read_from(raw);
        if e.edge_offset != expect_edge || e.byte_offset != expect_byte || e.edge_count == 0 {
            return Err(GraphError::Format(format!(
                "block index entry {} is inconsistent (offsets must be \
                 contiguous and blocks non-empty)",
                entries.len()
            )));
        }
        // Every record is two varints of at least a byte each. Without this
        // bound a forged count sizes a reader's buffer: u32::MAX edges asked
        // a 32 GiB allocation of a 400-byte file.
        if u64::from(e.edge_count) > u64::from(e.byte_len) / 2 {
            return Err(GraphError::Format(format!(
                "block index entry {} claims {} edges in {} payload bytes \
                 (a record takes at least 2)",
                entries.len(),
                e.edge_count,
                e.byte_len
            )));
        }
        expect_edge += u64::from(e.edge_count);
        expect_byte += u64::from(e.byte_len);
        entries.push(e);
    }
    if expect_edge != header.num_edges || expect_byte != index_offset {
        return Err(GraphError::Format(format!(
            "block index covers {expect_edge} edges / {expect_byte} payload bytes, \
             header promises {} / {}",
            header.num_edges, index_offset
        )));
    }
    Ok((file, header, PackIndex { entries }))
}

/// Reads the block `entry` names from `file` through the scratch `raw`,
/// holds it to its stored checksum when `policy` verifies, and
/// decodes it into `out` — the one per-block read both pack streams and
/// [`verify_pack_report`] share.
/// A positional read moves no file cursor, so threads can share one handle.
fn load_block(
    file: &File,
    raw: &mut Vec<u8>,
    entry: &BlockEntry,
    policy: ChecksumPolicy,
    out: &mut Vec<Edge>,
) -> Result<()> {
    raw.resize(entry.byte_len as usize, 0);
    file.read_exact_at(raw, entry.byte_offset)?;
    if policy.verifies() {
        let computed = crc32(raw);
        if computed != entry.crc {
            return Err(GraphError::Format(format!(
                "block at offset {} failed its checksum: stored {:#010x}, computed {computed:#010x}",
                entry.byte_offset, entry.crc
            )));
        }
    }
    BlockDecoder.decode(raw, entry, out)
}

// ---------------------------------------------------------------------------
// PackedEdgeStream.
// ---------------------------------------------------------------------------

/// A resettable edge stream over a `CLUGPZ` pack (or a block range of one).
///
/// One block is decoded per refill into an internal buffer that
/// [`EdgeStream::next_chunk`] lends from, so a chunk never spans two blocks;
/// payload checksums are verified as blocks stream (under
/// [`ChecksumPolicy::Full`]).
/// Decode/IO failures park an error, end the stream, and surface on the
/// next [`RestreamableStream::reset`] — so a restreaming consumer cannot
/// silently loop over a damaged pack.
#[derive(Debug)]
pub struct PackedEdgeStream {
    file: File,
    path: PathBuf,
    header: PackHeader,
    index: PackIndex,
    policy: ChecksumPolicy,
    blocks: Range<usize>,
    next_block: usize,
    range_edges: u64,
    decoded: Vec<Edge>,
    pos: usize,
    raw: Vec<u8>,
    error: Option<GraphError>,
}

impl PackedEdgeStream {
    /// Opens `path`, validating header, footer, and index checksums
    /// ([`ChecksumPolicy::Full`]).
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with(path, ChecksumPolicy::Full)
    }

    /// Opens `path` under an explicit checksum policy.
    pub fn open_with(path: &Path, policy: ChecksumPolicy) -> Result<Self> {
        Self::open_range(path, policy, 0..usize::MAX)
    }

    /// Opens the blocks `blocks` of `path` as a stream of their own,
    /// validating the pack once and checking every CRC
    /// ([`ChecksumPolicy::Full`]). The range is clamped to the pack's
    /// blocks, so a range at or past the end streams nothing.
    pub fn open_blocks(path: &Path, blocks: Range<usize>) -> Result<Self> {
        Self::open_range(path, ChecksumPolicy::Full, blocks)
    }

    fn open_range(path: &Path, policy: ChecksumPolicy, blocks: Range<usize>) -> Result<Self> {
        let (file, header, index) = open_validated(path, policy)?;
        let num_blocks = index.num_blocks();
        let start = blocks.start.min(num_blocks);
        let blocks = start..blocks.end.min(num_blocks).max(start);
        Ok(PackedEdgeStream {
            file,
            path: path.to_path_buf(),
            header,
            range_edges: index.edges_in(blocks.clone()),
            index,
            policy,
            next_block: blocks.start,
            blocks,
            decoded: Vec::new(),
            pos: 0,
            raw: Vec::new(),
            error: None,
        })
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The validated header.
    pub fn header(&self) -> &PackHeader {
        &self.header
    }

    /// The validated block index.
    pub fn index(&self) -> &PackIndex {
        &self.index
    }

    /// The error that ended the stream early, if any (also reported by the
    /// next [`RestreamableStream::reset`]).
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }

    /// Reads + decodes the next block of this stream's range into
    /// `self.decoded`. Returns `false` at range end or on a parked error.
    fn load_next_block(&mut self) -> bool {
        if self.error.is_some() || self.next_block >= self.blocks.end {
            return false;
        }
        let entry = self.index.entries()[self.next_block];
        let loaded = load_block(
            &self.file,
            &mut self.raw,
            &entry,
            self.policy,
            &mut self.decoded,
        );
        self.pos = 0;
        match loaded {
            Ok(()) => {
                self.next_block += 1;
                true
            }
            Err(e) => {
                // A block that failed mid-decode leaves a partial buffer:
                // drop it, so pulls past the early end keep lending nothing.
                self.decoded.clear();
                self.error = Some(e);
                false
            }
        }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.decoded.len() - self.pos
    }
}

impl EdgeStream for PackedEdgeStream {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        if self.remaining() == 0 && !self.load_next_block() {
            return &[];
        }
        let n = cap.max(1).min(self.remaining());
        let s = &self.decoded[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.range_edges)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.header.num_vertices)
    }
}

impl RestreamableStream for PackedEdgeStream {
    /// Rewinds to the first block of this stream's range.
    ///
    /// # Errors
    ///
    /// Reports (and clears) the decode/IO error that ended the previous
    /// pass early.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.next_block = self.blocks.start;
        self.decoded.clear();
        self.pos = 0;
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Summaries + verification (the `clugp-pack info`/`verify` surfaces).
// ---------------------------------------------------------------------------

/// Size/shape summary of a pack (the `clugp-pack info` payload).
#[derive(Debug, Clone)]
pub struct PackSummary {
    /// The validated header.
    pub header: PackHeader,
    /// Total file bytes.
    pub file_bytes: u64,
    /// Compressed payload bytes (blocks only).
    pub payload_bytes: u64,
    /// Blocks in the file.
    pub num_blocks: u64,
    /// Smallest block payload, bytes.
    pub min_block_bytes: u32,
    /// Largest block payload, bytes.
    pub max_block_bytes: u32,
    /// Mean edges per block.
    pub mean_block_edges: f64,
}

impl PackSummary {
    /// Total file bytes per edge (0 for an empty pack).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.header.num_edges == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.header.num_edges as f64
        }
    }
}

/// Reads and summarizes a pack without decoding its blocks, under
/// `policy`: `Off` skips the header/index CRC comparisons (magic and
/// structural validation always run), letting `clugp-pack info` inspect a
/// pack whose metadata checksums are damaged.
pub fn read_pack_summary(path: &Path, policy: ChecksumPolicy) -> Result<PackSummary> {
    let (file, header, index) = open_validated(path, policy)?;
    let file_bytes = file.metadata()?.len();
    let payload_bytes: u64 = index.entries().iter().map(|e| u64::from(e.byte_len)).sum();
    let (mut min_b, mut max_b) = (u32::MAX, 0u32);
    for e in index.entries() {
        min_b = min_b.min(e.byte_len);
        max_b = max_b.max(e.byte_len);
    }
    let num_blocks = index.num_blocks() as u64;
    Ok(PackSummary {
        header,
        file_bytes,
        payload_bytes,
        num_blocks,
        min_block_bytes: if num_blocks == 0 { 0 } else { min_b },
        max_block_bytes: max_b,
        mean_block_edges: if num_blocks == 0 {
            0.0
        } else {
            header.num_edges as f64 / num_blocks as f64
        },
    })
}

/// One damaged block found by [`verify_pack_report`].
#[derive(Debug)]
pub struct BlockFailure {
    /// Block index within the pack.
    pub block: usize,
    /// File offset of the block's payload.
    pub byte_offset: u64,
    /// What went wrong reading or decoding it.
    pub error: GraphError,
}

/// Exhaustive verification result: every failing block, not just the first.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Blocks in the pack.
    pub num_blocks: u64,
    /// Edges the header promises.
    pub num_edges: u64,
    /// Edges decoded from the blocks that passed.
    pub decoded_edges: u64,
    /// Every block that failed its checksum, read, or decode.
    pub failures: Vec<BlockFailure>,
    /// Pack-wide violations (canonical order, id range) found in the blocks
    /// that did decode.
    pub global_errors: Vec<String>,
}

impl VerifyReport {
    /// `true` when the pack verified clean.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty() && self.global_errors.is_empty()
    }
}

/// Fully decodes a pack, verifying every checksum, the canonical edge
/// order, the edge count and that every id is below the header's vertex
/// count. It continues past failures, so the report names *all* damaged
/// blocks with their index and byte offset — the `clugp-pack verify`
/// surface.
///
/// # Errors
///
/// Fails only when the metadata (header/index/footer) is too damaged to
/// enumerate blocks at all; block-level damage lands in the report.
pub fn verify_pack_report(path: &Path) -> Result<VerifyReport> {
    let (file, header, index) = open_validated(path, ChecksumPolicy::Full)?;
    let mut raw: Vec<u8> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut report = VerifyReport {
        num_blocks: index.num_blocks() as u64,
        num_edges: header.num_edges,
        ..Default::default()
    };
    // Last edge of the previous *good* block; cleared after a failure so
    // order is only judged across contiguous decoded data.
    let mut prev: Option<Edge> = None;
    let mut order_ok = true;
    let mut max_id = 0u64;
    for (i, entry) in index.entries().iter().enumerate() {
        match load_block(&file, &mut raw, entry, ChecksumPolicy::Full, &mut edges) {
            Ok(()) => {
                for &e in &edges {
                    if let Some(p) = prev {
                        order_ok &= (p.src, p.dst) <= (e.src, e.dst);
                    }
                    max_id = max_id.max(u64::from(e.src.max(e.dst)));
                    prev = Some(e);
                }
                report.decoded_edges += edges.len() as u64;
            }
            Err(error) => {
                report.failures.push(BlockFailure {
                    block: i,
                    byte_offset: entry.byte_offset,
                    error,
                });
                prev = None;
            }
        }
    }
    if !order_ok {
        report
            .global_errors
            .push("pack violates canonical (src, dst) order".into());
    }
    if report.decoded_edges > 0 && max_id >= header.num_vertices {
        report.global_errors.push(format!(
            "vertex id {max_id} out of range (header promises {} vertices)",
            header.num_vertices
        ));
    }
    if report.failures.is_empty() && report.decoded_edges != header.num_edges {
        report.global_errors.push(format!(
            "pack decodes {} edges, header promises {}",
            report.decoded_edges, header.num_edges
        ));
    }
    Ok(report)
}

/// Convenience: packs an in-memory edge list (used by tests, fixtures, and
/// the experiment harness).
pub fn write_pack(
    path: &Path,
    num_vertices: u64,
    edges: &[Edge],
    opts: &PackOptions,
) -> Result<PackStats> {
    let mut s = crate::stream::InMemoryStream::new(num_vertices, edges.to_vec());
    pack_edge_stream(&mut s, path, opts)
}

/// The canonical `(src, dst)` order a pack stores — the edge sequence
/// [`PackedEdgeStream`] yields for any input order. Exposed so callers can
/// build the equivalent flat representation for apples-to-apples
/// comparisons.
pub fn canonical_order(edges: &[Edge]) -> Vec<Edge> {
    let mut sorted = edges.to_vec();
    sorted.sort_unstable_by_key(|e| (e.src, e.dst));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{collect_stream, for_each_chunk, InMemoryStream};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clugp_pack_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn web_like(m: u32) -> Vec<Edge> {
        // Clustered dsts with duplicates and self-loops sprinkled in.
        (0..m)
            .map(|i| {
                let src = i / 7;
                let dst = (src + (i * 31) % 17) % (m / 7 + 1);
                Edge::new(src, dst)
            })
            .collect()
    }

    fn pack_roundtrip(edges: &[Edge], n: u64, opts: &PackOptions, name: &str) -> Vec<Edge> {
        let path = tmp(name);
        let stats = write_pack(&path, n, edges, opts).unwrap();
        assert_eq!(stats.num_edges, edges.len() as u64);
        let mut s = PackedEdgeStream::open(&path).unwrap();
        assert_eq!(s.len_hint(), Some(edges.len() as u64));
        let out = collect_stream(&mut s);
        s.reset().unwrap();
        assert_eq!(collect_stream(&mut s), out, "second pass differs");
        std::fs::remove_file(&path).ok();
        out
    }

    /// Format pin, recorded with the byte-at-a-time `crc32` (commit
    /// 77db6d0) before the slicing-by-16 kernel replaced it: FNV-1a over
    /// every byte `write_pack` emits for a fixed 1 500-vertex web graph —
    /// header, blocks, index (one and many entries), footer, and the CRC in
    /// each. A kernel that returned a different checksum anywhere would
    /// change these hashes, and a pack written at either commit would stop
    /// opening under `ChecksumPolicy::Full` at the other.
    #[test]
    fn pack_bytes_are_pinned_across_crc_kernels() {
        let g = crate::gen::generate_web_crawl(&crate::gen::WebCrawlConfig {
            vertices: 1_500,
            seed: 15,
            ..Default::default()
        });
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 17_679);
        for (block_bytes, blocks, pin) in [
            (DEFAULT_BLOCK_BYTES, 1, 0xDE7A_F529_1D4C_465Du64),
            (4096, 10, 0x9431_6C78_82D8_5BA3),
        ] {
            let path = tmp(&format!("pin{block_bytes}.clugpz"));
            let opts = PackOptions {
                block_bytes,
                ..Default::default()
            };
            let stats = write_pack(&path, g.num_vertices(), &edges, &opts).unwrap();
            assert_eq!(stats.num_blocks, blocks, "block_bytes={block_bytes}");
            let bytes = std::fs::read(&path).unwrap();
            let fnv = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            assert_eq!(fnv, pin, "block_bytes={block_bytes}: {fnv:#018X}");
            let mut s = PackedEdgeStream::open(&path).unwrap();
            assert_eq!(collect_stream(&mut s), canonical_order(&edges));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn round_trip_is_canonical_order() {
        let edges = web_like(5_000);
        let out = pack_roundtrip(&edges, 0, &PackOptions::default(), "rt.clugpz");
        assert_eq!(out, canonical_order(&edges));
    }

    #[test]
    fn round_trip_across_block_sizes() {
        let edges = web_like(2_000);
        let want = canonical_order(&edges);
        for block_bytes in [1usize, 13, 256, DEFAULT_BLOCK_BYTES] {
            let opts = PackOptions {
                block_bytes,
                ..Default::default()
            };
            let out = pack_roundtrip(&edges, 0, &opts, &format!("bs{block_bytes}.clugpz"));
            assert_eq!(out, want, "block_bytes={block_bytes}");
        }
    }

    #[test]
    fn one_edge_per_block_degenerate() {
        let edges = web_like(50);
        let path = tmp("single.clugpz");
        let stats = write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            stats.num_blocks,
            edges.len() as u64,
            "1-byte target = 1 edge/block"
        );
        let mut s = PackedEdgeStream::open(&path).unwrap();
        assert_eq!(collect_stream(&mut s), canonical_order(&edges));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_sort_spill_path_matches_in_memory_path() {
        let edges = web_like(10_000);
        let want = pack_roundtrip(&edges, 0, &PackOptions::default(), "nospill.clugpz");
        let path = tmp("spill.clugpz");
        let opts = PackOptions {
            spill_edges: 777, // force many runs
            ..Default::default()
        };
        // Sources ascend in `web_like`: a shuffle takes the external sort.
        let stats = write_pack(&path, 0, &shuffled(edges, 8), &opts).unwrap();
        assert!(
            stats.spill_runs >= 2,
            "expected spill runs, got {}",
            stats.spill_runs
        );
        let mut s = PackedEdgeStream::open(&path).unwrap();
        assert_eq!(collect_stream(&mut s), want);
        // Spill runs and the unrenamed pack are cleaned up.
        let dir = path.parent().unwrap();
        assert!(std::fs::read_dir(dir).unwrap().all(|f| !f
            .unwrap()
            .file_name()
            .to_string_lossy()
            .contains(".tmp")));
        std::fs::remove_file(&path).ok();
    }

    /// A private directory per spilling test: `external_sort_spill_path_…`
    /// asserts that the shared one holds no `.tmp` file.
    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clugp_pack_test_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dir_names(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }

    /// Fisher–Yates over a fixed LCG.
    fn shuffled(mut edges: Vec<Edge>, seed: u64) -> Vec<Edge> {
        let mut state = seed;
        for i in (1..edges.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            edges.swap(i, (state >> 33) as usize % (i + 1));
        }
        edges
    }

    /// The whole vector ordered by the standard library's stable tuple sort
    /// — nothing of the writer's — and encoded as one in-memory run.
    fn reference_pack(edges: &[Edge], block_bytes: usize, path: &Path) -> Vec<u8> {
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|e| (e.src, e.dst));
        let opts = PackOptions {
            block_bytes,
            spill_edges: usize::MAX,
        };
        let stats = write_pack(path, 0, &sorted, &opts).unwrap();
        assert_eq!(stats.spill_runs, 0);
        let mut s = PackedEdgeStream::open(path).unwrap();
        assert_eq!(collect_stream(&mut s), sorted, "reference does not decode");
        std::fs::read(path).unwrap()
    }

    /// Inputs for every leg of the writer, built from `len` edges of
    /// `web_like`: streamed whole, handed over at the first, a middle or
    /// the last edge, handed over once and ascending again, handed over at
    /// a long list, and never streamed past the first edge.
    fn writer_legs(len: u32) -> Vec<(&'static str, Vec<Edge>)> {
        let canonical = canonical_order(&web_like(len));
        let mut ascending = canonical.clone();
        for list in ascending.chunk_by_mut(|a, b| a.src == b.src) {
            list.reverse();
        }
        let n = ascending.len();
        let last_first: Vec<Edge> = std::iter::once(ascending[n - 1])
            .chain(ascending[..n - 1].iter().copied())
            .collect();
        let mut middle = ascending.clone();
        let first = middle.remove(0);
        middle.insert(n / 2, first);
        let mut last = ascending.clone();
        last.rotate_left(1);
        let mut again = ascending.clone();
        again.rotate_left(n / 3);
        // Source 1 000 000 gathers a list of half as many edges again in the
        // middle of the input.
        let long_list: Vec<Edge> = ascending[..n / 3]
            .iter()
            .copied()
            .chain((0..len / 2).map(|i| Edge::new(1_000_000, (i * 7_919) % 1_000)))
            .chain(
                ascending[n / 3..]
                    .iter()
                    .map(|e| Edge::new(e.src + 1_000_001, e.dst)),
            )
            .collect();
        // Self-loops and copies of one edge inside every list.
        let loops: Vec<Edge> = ascending
            .chunk_by(|a, b| a.src == b.src)
            .flat_map(|list| {
                let s = list[0].src;
                list.iter()
                    .copied()
                    .chain([Edge::new(s, s), list[0], Edge::new(s, s), list[0]])
            })
            .collect();
        // Four distinct edges, thousands of copies: ties straddle every run
        // boundary at every spill size.
        let duplicates: Vec<Edge> = (0..len.min(6_000))
            .map(|i| Edge::new(i % 2, i % 4 / 2))
            .collect();
        let one_source: Vec<Edge> = (0..len.min(5_000))
            .map(|i| Edge::new(9, (i * 7_919) % 1_000))
            .collect();
        vec![
            ("canonical", canonical.clone()),
            ("ascending", ascending),
            ("descends at the first edge", last_first),
            ("descends at a middle edge", middle),
            ("descends at the last edge", last),
            ("descends once, ascends again", again),
            ("one long list", long_list),
            ("self-loops and duplicates in every list", loops),
            ("shuffled", shuffled(canonical.clone(), 3)),
            ("reversed", canonical.iter().rev().copied().collect()),
            ("duplicates", shuffled(duplicates, 5)),
            ("one_source", one_source),
            ("single edge", vec![Edge::new(3, 4)]),
            ("empty", Vec::new()),
        ]
    }

    /// Where the writer hands `edges` over to the external sort under
    /// `spill_edges`: at the first edge whose source is below the last one,
    /// or at the start of the first list longer than `spill_edges` —
    /// `edges.len()` when it streams them all.
    fn hand_over_at(edges: &[Edge], spill_edges: usize) -> usize {
        let mut list = 0;
        for i in 0..edges.len() {
            if i > 0 && edges[i].src != edges[i - 1].src {
                if edges[i].src < edges[i - 1].src {
                    return i;
                }
                list = i;
            }
            if i + 1 - list > spill_edges {
                return list;
            }
        }
        edges.len()
    }

    /// The writer's spill-run count: buffers of the edges after the
    /// hand-over, plus a non-empty tail, 0 when none was full.
    fn expected_spill_runs(edges: &[Edge], spill_edges: usize) -> usize {
        let sorted = edges.len() - hand_over_at(edges, spill_edges);
        let (full, tail) = (sorted / spill_edges, sorted % spill_edges);
        if full == 0 {
            0
        } else {
            full + usize::from(tail > 0)
        }
    }

    #[test]
    fn every_sort_and_merge_leg_writes_the_reference_bytes() {
        let dir = tmp_dir("legs");
        for (name, edges) in &writer_legs(8_547) {
            for spill_edges in [1usize, 7, 777, 4096, usize::MAX] {
                // One file per run is open during the merge: a few hundred
                // edges are plenty for the one- and seven-edge runs.
                let edges = &edges[..edges.len().min(spill_edges.saturating_mul(300))];
                for block_bytes in [1usize, 64, DEFAULT_BLOCK_BYTES] {
                    let want = reference_pack(edges, block_bytes, &dir.join("want.clugpz"));
                    let opts = PackOptions {
                        block_bytes,
                        spill_edges,
                    };
                    let path = dir.join("got.clugpz");
                    let mut s = InMemoryStream::new(0, edges.to_vec());
                    let stats = pack_edge_stream(&mut s, &path, &opts).unwrap();
                    let tag = format!("{name} spill={spill_edges} block={block_bytes}");
                    assert_eq!(stats.num_edges, edges.len() as u64, "{tag}");
                    assert_eq!(
                        stats.spill_runs,
                        expected_spill_runs(edges, spill_edges),
                        "{tag}"
                    );
                    assert!(std::fs::read(&path).unwrap() == want, "{tag}: bytes differ");
                    let mut names = dir_names(&dir);
                    names.sort();
                    assert_eq!(names, ["got.clugpz", "want.clugpz"], "{tag}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sources ascending, one of them holding over half the buffer.
    fn one_source_over_half(len: u32) -> Vec<Edge> {
        (0..len)
            .map(|i| match i * 5 / len {
                0 => Edge::new(i / 3, i % 7),
                1..=3 => Edge::new(len, (i * 7_919) % 1_000),
                _ => Edge::new(len + 1 + i / 5, (i * 31) % 11),
            })
            .collect()
    }

    #[test]
    fn sort_canonical_takes_both_legs_to_the_same_order() {
        // The two legs: small buffers, and every buffer at width one, sort
        // inline; those above three times the inline threshold are cut at
        // every width above one.
        let mut buffers = Vec::new();
        for len in [3_000, 3 * INLINE_SORT_EDGES as u32 + 17] {
            let sorted = canonical_order(&web_like(len));
            let mut ascending = sorted.clone();
            for list in ascending.chunk_by_mut(|a, b| a.src == b.src) {
                list.reverse();
            }
            assert_ne!(ascending, sorted);
            let duplicates: Vec<Edge> = (0..len).map(|i| Edge::new(i % 3, i % 2)).collect();
            buffers.extend([
                ("sorted", sorted.clone()),
                ("ascending", ascending),
                ("shuffled", shuffled(sorted, 1)),
                ("duplicates", shuffled(duplicates, 4)),
                ("one source over half", one_source_over_half(len)),
                (
                    "one source",
                    (0..len).map(|i| Edge::new(4, (i * 7_919) % len)).collect(),
                ),
            ]);
        }
        buffers.push(("empty", Vec::new()));
        for (name, buffer) in &buffers {
            let want = canonical_order(buffer);
            for width in 1..=4 {
                let mut got = buffer.clone();
                sort_canonical(&mut got, width);
                assert!(got == want, "{name} of {} at width {width}", buffer.len());
            }
        }
    }

    /// Hands out its edges, and damages `victim` just before it reports
    /// exhaustion — between the drain and the merge: cuts it to `cut_to`
    /// bytes, or removes it.
    struct TruncatingStream {
        inner: InMemoryStream,
        victim: PathBuf,
        cut_to: Option<u64>,
    }

    impl EdgeStream for TruncatingStream {
        fn next_chunk(&mut self, cap: usize) -> &[Edge] {
            let chunk = self.inner.next_chunk(cap);
            if chunk.is_empty() {
                match self.cut_to {
                    Some(len) => std::fs::OpenOptions::new()
                        .write(true)
                        .open(&self.victim)
                        .unwrap()
                        .set_len(len)
                        .unwrap(),
                    None => std::fs::remove_file(&self.victim).unwrap(),
                }
            }
            chunk
        }
        fn len_hint(&self) -> Option<u64> {
            self.inner.len_hint()
        }
        fn num_vertices_hint(&self) -> Option<u64> {
            self.inner.num_vertices_hint()
        }
    }

    #[test]
    fn truncated_spill_run_is_a_typed_error_and_leaves_nothing_behind() {
        let edges = web_like(2_000);
        let opts = PackOptions {
            spill_edges: 600,
            block_bytes: 64,
        };
        // A shuffle streams a few edges into run 0 and spills run 1 raw:
        // cut inside a record, and on a record boundary.
        let raw = [(8 * 100 + 3), (8 * 100)].map(|cut| (shuffled(edges.clone(), 2), 1, cut));
        // Half the graph streams into run 0 before it descends: cut inside
        // a block, and at the end of its first block.
        let mut descends = edges.clone();
        descends[1_000..].reverse();
        let prefix = tmp("prefix.clugpz");
        write_pack(&prefix, 0, &descends[..1_000], &opts).unwrap();
        let second_block =
            PackedEdgeStream::open(&prefix).unwrap().index().entries()[1].byte_offset;
        std::fs::remove_file(&prefix).ok();
        let streamed = [second_block + 7, second_block].map(|cut| (descends.clone(), 0, cut));
        for (input, run, cut_to) in raw.into_iter().chain(streamed) {
            let dir = tmp_dir(&format!("truncated{run}_{cut_to}"));
            let path = dir.join("web.clugpz");
            let victim = format!("web.clugpz.run{run}.tmp");
            let mut s = TruncatingStream {
                inner: InMemoryStream::new(0, input),
                victim: dir.join(&victim),
                cut_to: Some(cut_to),
            };
            let err = pack_edge_stream(&mut s, &path, &opts).unwrap_err();
            assert!(matches!(err, GraphError::Format(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains(&victim), "{msg}");
            assert!(msg.contains(&format!("{cut_to} bytes")), "{msg}");
            assert_eq!(
                dir_names(&dir),
                Vec::<String>::new(),
                "{victim} cut to {cut_to}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        // A pack that streamed whole fails at the rename once its file is
        // gone, and leaves nothing either.
        let dir = tmp_dir("vanished");
        let path = dir.join("web.clugpz");
        let mut s = TruncatingStream {
            inner: InMemoryStream::new(0, edges),
            victim: dir.join("web.clugpz.tmp"),
            cut_to: None,
        };
        let err = pack_edge_stream(&mut s, &path, &opts).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err:?}");
        assert_eq!(dir_names(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_runs_are_named_after_the_whole_output_file_name() {
        let dir = tmp_dir("names");
        let edges = web_like(100);
        let mut files: Vec<Scratch> = ["web.clugpz", "web.bin", "web"]
            .iter()
            .map(|name| Scratch::new(&dir.join(name)))
            .collect();
        for f in &mut files {
            std::fs::write(f.pack(), b"").unwrap();
            f.spill(&mut edges.clone()).unwrap();
            f.spill(&mut edges.clone()).unwrap();
        }
        let mut names = dir_names(&dir);
        names.sort();
        assert_eq!(
            names,
            [
                "web.bin.run0.tmp",
                "web.bin.run1.tmp",
                "web.bin.tmp",
                "web.clugpz.run0.tmp",
                "web.clugpz.run1.tmp",
                "web.clugpz.tmp",
                "web.run0.tmp",
                "web.run1.tmp",
                "web.tmp",
            ]
        );
        drop(files);
        assert!(dir_names(&dir).is_empty(), "files outlive their owner");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_device_at_the_output_is_refused_not_replaced() {
        let dir = tmp_dir("not_a_file");
        let err = write_pack(&dir, 0, &web_like(10), &PackOptions::default()).unwrap_err();
        assert!(err.to_string().contains("not a regular file"), "{err}");
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph() {
        let out = pack_roundtrip(&[], 0, &PackOptions::default(), "empty.clugpz");
        assert!(out.is_empty());
        let path = tmp("empty2.clugpz");
        let stats = write_pack(&path, 5, &[], &PackOptions::default()).unwrap();
        assert_eq!(stats.num_blocks, 0);
        assert_eq!(stats.num_vertices, 5, "explicit n preserved");
        let s = PackedEdgeStream::open(&path).unwrap();
        assert_eq!(s.num_vertices_hint(), Some(5));
        assert!(verify_pack_report(&path).unwrap().is_ok());
        // Pipelined open over an empty pack streams empty too.
        let mut p = PipelinedPackStream::open(&path, DecodeOptions::default()).unwrap();
        assert!(collect_stream(&mut p).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn self_loops_duplicates_and_extreme_ids() {
        let edges = vec![
            Edge::new(u32::MAX, u32::MAX),
            Edge::new(0, 0),
            Edge::new(u32::MAX - 1, u32::MAX),
            Edge::new(0, 0),
            Edge::new(u32::MAX, 0),
            Edge::new(7, u32::MAX),
        ];
        for block_bytes in [1usize, 4, DEFAULT_BLOCK_BYTES] {
            let opts = PackOptions {
                block_bytes,
                ..Default::default()
            };
            let out = pack_roundtrip(&edges, 0, &opts, &format!("extreme{block_bytes}.clugpz"));
            assert_eq!(out, canonical_order(&edges), "block_bytes={block_bytes}");
        }
    }

    #[test]
    fn vertex_count_is_max_of_hint_and_implied() {
        let path = tmp("n.clugpz");
        // Hint larger than implied: preserved.
        let stats = write_pack(&path, 100, &[Edge::new(0, 3)], &PackOptions::default()).unwrap();
        assert_eq!(stats.num_vertices, 100);
        // Implied larger than hint: corrected upward.
        let mut s = InMemoryStream::new(2, vec![Edge::new(0, 9)]);
        let stats = pack_edge_stream(&mut s, &path, &PackOptions::default()).unwrap();
        assert_eq!(stats.num_vertices, 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compresses_web_like_streams_below_flat() {
        let edges = web_like(100_000);
        let path = tmp("ratio.clugpz");
        let stats = write_pack(&path, 0, &edges, &PackOptions::default()).unwrap();
        assert!(
            stats.bytes_per_edge() < 4.0,
            "expected < 4 B/edge, got {:.2}",
            stats.bytes_per_edge()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_pulls_respect_cap_and_cover_stream() {
        let edges = web_like(3_000);
        let path = tmp("chunks.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 128,
                ..Default::default()
            },
        )
        .unwrap();
        for cap in [1usize, 7, 256, 4096] {
            let mut s = PackedEdgeStream::open(&path).unwrap();
            let mut seen = Vec::new();
            for_each_chunk(&mut s, cap, |chunk| {
                assert!(chunk.len() <= cap);
                seen.extend_from_slice(chunk);
            });
            assert_eq!(seen, canonical_order(&edges), "cap={cap}");
        }
        // Pulls of different sizes keep the cursor coherent.
        let mut s = PackedEdgeStream::open(&path).unwrap();
        let want = canonical_order(&edges);
        assert_eq!(s.next_chunk(1), &want[..1]);
        assert_eq!(s.next_chunk(3), &want[1..4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_and_verify() {
        let edges = web_like(5_000);
        let path = tmp("info.clugpz");
        let stats = write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let sum = read_pack_summary(&path, ChecksumPolicy::Full).unwrap();
        assert_eq!(sum.header.num_edges, edges.len() as u64);
        assert_eq!(sum.num_blocks, stats.num_blocks);
        // Every block but the trailing partial one reaches the target.
        let reader = PackedEdgeStream::open(&path).unwrap();
        let entries = reader.index().entries();
        assert!(entries[..entries.len() - 1]
            .iter()
            .all(|e| e.byte_len >= 1024));
        assert!(sum.min_block_bytes >= 1);
        assert!(sum.bytes_per_edge() > 0.0);
        let report = verify_pack_report(&path).unwrap();
        assert!(report.is_ok());
        assert_eq!(report.decoded_edges, edges.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_block_is_detected_and_parks_error() {
        let edges = web_like(4_000);
        let path = tmp("corrupt.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        // Flip a byte in the middle of the payload region.
        let mut data = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN as usize + 700;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        // Open succeeds (header/index/footer intact)…
        let mut s = PackedEdgeStream::open(&path).unwrap();
        // …but the drain ends early with a parked checksum error.
        let got = collect_stream(&mut s);
        assert!(got.len() < edges.len());
        assert!(s.error().is_some());
        let err = s.reset().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // After reset the error is cleared; the stream re-reads up to the
        // damaged block again.
        assert!(s.error().is_none());
        assert!(!verify_pack_report(&path).unwrap().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_report_lists_every_failing_block() {
        let edges = web_like(6_000);
        let path = tmp("multi_corrupt.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let entries = PackedEdgeStream::open(&path)
            .unwrap()
            .index()
            .entries()
            .to_vec();
        assert!(entries.len() >= 5, "need several blocks for this test");
        // Corrupt two non-adjacent blocks.
        let victims = [1usize, 3];
        let mut data = std::fs::read(&path).unwrap();
        for &v in &victims {
            data[entries[v].byte_offset as usize] ^= 0xFF;
        }
        std::fs::write(&path, &data).unwrap();
        let report = verify_pack_report(&path).unwrap();
        assert!(!report.is_ok());
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        for (f, &v) in report.failures.iter().zip(&victims) {
            assert_eq!(f.block, v);
            assert_eq!(f.byte_offset, entries[v].byte_offset);
            assert!(f.error.to_string().contains("checksum"), "{}", f.error);
        }
        // Good blocks still decoded.
        let bad_edges: u64 = victims
            .iter()
            .map(|&v| u64::from(entries[v].edge_count))
            .sum();
        assert_eq!(report.decoded_edges, edges.len() as u64 - bad_edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_policy_gates_payload_and_metadata_verification() {
        let edges = web_like(3_000);
        let path = tmp("policy.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let want = canonical_order(&edges);
        // Pristine file: both policies stream identically.
        for policy in [ChecksumPolicy::Full, ChecksumPolicy::Off] {
            let mut s = PackedEdgeStream::open_with(&path, policy).unwrap();
            assert_eq!(collect_stream(&mut s), want, "{policy:?}");
        }
        // Tamper with a stored *block CRC* in the index, recomputing the
        // index + footer checksums so the metadata stays self-consistent:
        // Full must reject the payload, Off must stream it.
        let pristine = std::fs::read(&path).unwrap();
        let reader = PackedEdgeStream::open(&path).unwrap();
        let num_blocks = reader.index().num_blocks();
        let second = reader.index().entries()[1];
        drop(reader);
        let mut data = pristine.clone();
        let index_start = data.len() - FOOTER_LEN as usize - num_blocks * INDEX_ENTRY_LEN;
        data[index_start + 12] ^= 0xFF; // entry 0's crc field
        let index_end = data.len() - FOOTER_LEN as usize;
        let new_index_crc = crc32(&data[index_start..index_end]);
        let footer_start = index_end;
        data[footer_start + 16..footer_start + 20].copy_from_slice(&new_index_crc.to_le_bytes());
        let new_footer_crc = crc32(&data[footer_start..footer_start + 20]);
        data[footer_start + 20..footer_start + 24].copy_from_slice(&new_footer_crc.to_le_bytes());
        std::fs::write(&path, &data).unwrap();

        let mut s = PackedEdgeStream::open_with(&path, ChecksumPolicy::Full).unwrap();
        collect_stream(&mut s);
        assert!(s.error().is_some(), "Full policy must catch the bad CRC");
        let mut s = PackedEdgeStream::open_with(&path, ChecksumPolicy::Off).unwrap();
        assert_eq!(collect_stream(&mut s), want);
        assert!(s.error().is_none());

        // A payload the codec refuses (an over-long varint, unverified under
        // Off) ends the stream on the block before it, parks the error, and
        // pulls past that early end keep lending nothing.
        let mut data = pristine.clone();
        let start = second.byte_offset as usize;
        data[start..start + 11].fill(0xFF);
        std::fs::write(&path, &data).unwrap();
        let mut s = PackedEdgeStream::open_with(&path, ChecksumPolicy::Off).unwrap();
        assert_eq!(collect_stream(&mut s), want[..second.edge_offset as usize]);
        assert!(s.error().is_some() && s.next_chunk(7).is_empty());

        // Tamper with the *header CRC*: Full rejects at open, Off still
        // opens (magic + structure intact).
        let mut data = pristine.clone();
        data[33] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(PackedEdgeStream::open_with(&path, ChecksumPolicy::Full).is_err());
        let mut s = PackedEdgeStream::open_with(&path, ChecksumPolicy::Off).unwrap();
        assert_eq!(collect_stream(&mut s), want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipelined_stream_matches_serial_and_resets() {
        let edges = web_like(8_000);
        let path = tmp("pipelined.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let want = canonical_order(&edges);
        for prefetch in [1usize, 2, 4] {
            let opts = DecodeOptions {
                threads: 1,
                prefetch,
            };
            let mut s = PipelinedPackStream::open(&path, opts).unwrap();
            assert_eq!(s.len_hint(), Some(edges.len() as u64));
            assert_eq!(collect_stream(&mut s), want, "prefetch={prefetch}");
            // Restream: reset reports clean and the second pass agrees.
            s.reset().unwrap();
            assert_eq!(collect_stream(&mut s), want, "second pass");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipelined_corruption_parks_error_from_worker_thread() {
        let edges = web_like(6_000);
        let path = tmp("pipelined_corrupt.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let entries = PackedEdgeStream::open(&path)
            .unwrap()
            .index()
            .entries()
            .to_vec();
        let victim = entries.len() / 2;
        let mut data = std::fs::read(&path).unwrap();
        data[entries[victim].byte_offset as usize] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let good_prefix: u64 = entries[..victim]
            .iter()
            .map(|e| u64::from(e.edge_count))
            .sum();
        let opts = DecodeOptions {
            threads: 1,
            prefetch: 4,
        };
        let mut s = PipelinedPackStream::open(&path, opts).unwrap();
        let got = collect_stream(&mut s);
        // Ordered delivery: everything before the damaged block streamed.
        assert_eq!(got.len() as u64, good_prefix);
        assert!(s.error().is_some());
        let err = s.reset().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(s.error().is_none());
        // The stream restreams cleanly up to the damaged block again.
        let again = collect_stream(&mut s);
        assert_eq!(again, got);
        assert!(s.error().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_header_footer_and_index_are_rejected_at_open() {
        let edges = web_like(1_000);
        let path = tmp("corrupt_meta.clugpz");
        write_pack(&path, 0, &edges, &PackOptions::default()).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Header corruption.
        let mut data = pristine.clone();
        data[10] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(PackedEdgeStream::open(&path).is_err());

        // Footer corruption.
        let mut data = pristine.clone();
        let len = data.len();
        data[len - 12] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(PackedEdgeStream::open(&path).is_err());

        // Index corruption.
        let mut data = pristine.clone();
        let len = data.len();
        data[len - FOOTER_LEN as usize - 4] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(PackedEdgeStream::open(&path).is_err());

        // Truncation (footer gone).
        std::fs::write(&path, &pristine[..pristine.len() - 10]).unwrap();
        assert!(PackedEdgeStream::open(&path).is_err());

        // Bad magic (long enough to pass the length check) — rejected under
        // every policy, Off included.
        let mut junk = b"NOTPACKD".to_vec();
        junk.resize(96, b'_');
        std::fs::write(&path, &junk).unwrap();
        let err = PackedEdgeStream::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        assert!(PackedEdgeStream::open_with(&path, ChecksumPolicy::Off).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_forged_edge_count_is_a_typed_error_not_an_allocation() {
        // A one-block pack whose entry and header both claim u32::MAX edges,
        // every CRC recomputed: only the structure can give it away.
        let edges = web_like(150);
        let path = tmp("forged_count.clugpz");
        write_pack(&path, 0, &edges, &PackOptions::default()).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let len = data.len();
        let footer = len - FOOTER_LEN as usize;
        let index = u64::from_le_bytes(data[footer..footer + 8].try_into().unwrap()) as usize;
        assert_eq!(footer - index, INDEX_ENTRY_LEN, "one block");
        data[16..24].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        let crc = crc32(&data[..32]);
        data[32..36].copy_from_slice(&crc.to_le_bytes());
        data[index + 4..index + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&data[index..footer]);
        data[footer + 16..footer + 20].copy_from_slice(&crc.to_le_bytes());
        let crc = crc32(&data[footer..footer + 20]);
        data[footer + 20..footer + 24].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &data).unwrap();

        let errors = [
            PackedEdgeStream::open(&path).err(),
            PipelinedPackStream::open(&path, DecodeOptions::default()).err(),
            read_pack_summary(&path, ChecksumPolicy::Off).err(),
            verify_pack_report(&path).err(),
        ];
        for (reader, err) in ["serial", "decode-ahead", "summary", "verify"]
            .into_iter()
            .zip(errors)
        {
            match err {
                Some(GraphError::Format(msg)) => assert!(msg.contains("edges"), "{reader}: {msg}"),
                other => panic!("{reader}: want a format error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
