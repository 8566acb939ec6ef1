//! `CLUGPZ` — block-compressed on-disk graph storage.
//!
//! The paper's Table III corpora ship WebGraph-compressed (~1–3 bits per
//! link); the flat [`crate::io::binary`] format replays them at a fixed
//! 8 B/edge, so on a real web graph the partitioner would be I/O-bound on a
//! representation ~20–50× larger than what production systems store. This
//! module is the missing storage layer: a compressed, block-indexed edge
//! pack that any chunked consumer streams through the standard
//! [`EdgeStream`] ABI — bit-identically to the flat formats — and that a
//! thread pool can read in parallel shards through the block index.
//!
//! The module is layered:
//!
//! - [`checksum`] — CRC32 and the read-side [`ChecksumPolicy`]
//! - [`codec`] — varints and the per-block [`BlockDecoder`]
//! - [`pipeline`] — [`PipelinedPackStream`], decode running ahead of the
//!   consumer on worker threads (see `DESIGN.md` §9)
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
//! blocks decode independently — the property the sharded reader, the
//! decode pipeline, and `reset` all lean on. A source's destination list
//! may span blocks; the continuation block simply re-encodes the source
//! absolutely.
//!
//! # Bounded-memory writer
//!
//! [`pack_edge_stream`] accepts edges in *any* order from any
//! [`EdgeStream`]: it buffers up to [`PackOptions::spill_edges`] edges,
//! sorts each buffer, spills it as a raw run file next to the output, and
//! k-way merges the runs at write time — classic external sort, so packing
//! never holds more than one spill buffer of edges in memory, plus one
//! 64 KiB slab per run while they merge. A buffer whose sources already
//! ascend only has each adjacency list sorted; the last buffer is merged
//! from memory, never written out; and the merge lets the run with the
//! least head emit until the runner-up's head overtakes it, so runs that do
//! not interleave (a source-ascending input) concatenate at two heap
//! operations apiece (`DESIGN.md` §6).
//!
//! # Readers
//!
//! [`PackedEdgeStream`] implements [`EdgeStream`] + [`RestreamableStream`]:
//! one block is decoded per refill and `next_chunk` lends slices of it, so
//! CLUGP's three passes and every baseline consume a pack unchanged
//! (equivalence pinned by `tests/chunked_equivalence.rs`).
//! [`PipelinedPackStream`] is its staged-pipeline twin: same chunk
//! sequence, decode on worker threads.
//! [`ShardedPackReader`] splits the block range into per-thread shards
//! balanced by edge count; each shard is its own stream (serial or
//! pipelined) over a private file handle.
//!
//! Integrity: under the default [`ChecksumPolicy::Full`], header, index,
//! and footer are checksum-validated at open and block payloads as they
//! stream (CRC32/IEEE); relaxed policies trade coverage for decode
//! throughput (see [`checksum`]). A decode or I/O failure mid-stream parks
//! the error and ends the stream, and the next
//! [`RestreamableStream::reset`] reports it — the same failure contract as
//! every other file-backed stream in this crate.

pub mod checksum;
pub mod codec;
pub mod pipeline;

pub use checksum::{crc32, ChecksumPolicy};
pub use codec::BlockDecoder;
pub use pipeline::{
    decode_options, set_decode_options, DecodeOptions, PipelinedPackStream, DEFAULT_PREFETCH_BLOCKS,
};

use crate::error::{GraphError, Result};
use crate::stream::{chunk_edges, EdgeStream, RestreamableStream};
use crate::types::Edge;
use clugp_obs as obs;
use codec::put_record;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening a `CLUGPZ` file (version 1).
pub const PACK_MAGIC: &[u8; 8] = b"CLUGPZ01";
/// Magic bytes closing the footer.
const FOOTER_MAGIC: &[u8; 8] = b"CLUGPZEN";

const HEADER_LEN: u64 = 36;
const FOOTER_LEN: u64 = 32;
const INDEX_ENTRY_LEN: usize = 32;

/// Default target payload bytes per block: large enough to amortize the
/// per-block seek + checksum to noise, small enough that a block's decoded
/// edges stay cache-resident and shard boundaries stay fine-grained.
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

/// The validated block index of an open pack (shared by sharded readers).
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
    /// In-memory sort buffer in edges before a run spills to disk
    /// (clamped to ≥ 1): the packing memory bound.
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
    /// Spill runs the external sort used (0 = fit in one in-memory buffer).
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

    /// Flushes the trailing partial block and returns `(index, edges,
    /// payload_end_offset, writer)`.
    fn finish(mut self) -> Result<(Vec<BlockEntry>, u64, u64, W)> {
        self.flush_block()?;
        Ok((self.index, self.edge_offset, self.byte_offset, self.out))
    }
}

/// Edges per spill-run slab: runs are written and read back 64 KiB at a time.
const SLAB_EDGES: usize = 8 * 1024;
/// Bytes of one raw spill-run record (`src`, `dst`, little-endian).
const RECORD_LEN: usize = 8;

/// Sorts `edges` into canonical `(src, dst)` order — the one sort of the
/// writer, spilled run or not.
///
/// One scan decides how. A buffer whose sources already ascend (a CSR dump,
/// an adjacency-list file, a re-pack, a WebGraph-style corpus) only needs
/// each source's run ordered by `dst`; anything else is one sort over the
/// packed `src << 32 | dst` keys.
fn sort_canonical(edges: &mut [Edge]) {
    if edges.windows(2).all(|w| w[0].src <= w[1].src) {
        for run in edges.chunk_by_mut(|a, b| a.src == b.src) {
            run.sort_unstable_by_key(|e| e.dst);
        }
    } else {
        edges.sort_unstable_by_key(|e| u64::from(e.src) << 32 | u64::from(e.dst));
    }
}

/// Length of the prefix of the sorted `slab` on which `le` holds, found by
/// doubling probes and a binary search between the last two: O(log prefix)
/// compares, so a short prefix (interleaved runs) and a whole slab (disjoint
/// runs) are both cheap.
fn gallop(slab: &[Edge], le: impl Fn(&Edge) -> bool) -> usize {
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= slab.len() && le(&slab[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(slab.len());
    lo + slab[lo..hi].partition_point(le)
}

/// One sorted run of the external sort, held a slab at a time: a spill file
/// of raw records, or the in-memory tail (no file — its slab is the whole
/// buffer).
struct Run {
    slab: Vec<Edge>,
    pos: usize,
    file: Option<File>,
    /// Edges the file has yet to hand over.
    owed: u64,
}

impl Run {
    fn in_memory(sorted: Vec<Edge>) -> Self {
        Run {
            slab: sorted,
            pos: 0,
            file: None,
            owed: 0,
        }
    }

    /// Opens the spill file at `path` and loads its first slab. A file that
    /// is not exactly the `edges` records spilled to it is an error: a
    /// truncated run must never merge into a shorter graph.
    fn open(path: &Path, edges: u64, scratch: &mut Vec<u8>) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len != edges * RECORD_LEN as u64 {
            return Err(GraphError::Format(format!(
                "spill run {} is {len} bytes, the {edges} edges spilled to it are {}",
                path.display(),
                edges * RECORD_LEN as u64
            )));
        }
        let mut run = Run {
            slab: Vec::with_capacity(edges.min(SLAB_EDGES as u64) as usize),
            pos: 0,
            file: Some(file),
            owed: edges,
        };
        run.refill(scratch)?;
        Ok(run)
    }

    /// Replaces the spent slab with the next one; `false` once the run is
    /// drained.
    fn refill(&mut self, scratch: &mut Vec<u8>) -> Result<bool> {
        self.slab.clear();
        self.pos = 0;
        if self.owed == 0 {
            return Ok(false);
        }
        let file = self.file.as_mut().expect("only a spill file owes edges");
        let want = self.owed.min(SLAB_EDGES as u64) as usize;
        scratch.resize(want * RECORD_LEN, 0);
        file.read_exact(scratch)?;
        self.slab
            .extend(scratch.chunks_exact(RECORD_LEN).map(|rec| Edge {
                src: u32::from_le_bytes(rec[..4].try_into().expect("4-byte field")),
                dst: u32::from_le_bytes(rec[4..].try_into().expect("4-byte field")),
            }));
        self.owed -= want as u64;
        Ok(true)
    }

    /// Merge key of the run's next edge; ties between runs go to the lower
    /// run index, which keeps the merge stable.
    fn head_key(&self, index: usize) -> (u32, u32, usize) {
        let e = self.slab[self.pos];
        (e.src, e.dst, index)
    }
}

/// K-way merges `runs` into `enc`. The run with the least head keeps
/// emitting while its head stays at or below the runner-up's key, so the
/// heap is touched once per run *switch*, not per edge: disjoint runs (a
/// source-ascending input) cost two heap operations each.
fn merge_runs<W: Write>(
    runs: &mut [Run],
    scratch: &mut Vec<u8>,
    enc: &mut BlockEncoder<W>,
) -> Result<()> {
    use std::cmp::Reverse;
    let mut heap: std::collections::BinaryHeap<_> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.slab.is_empty())
        .map(|(i, r)| Reverse(r.head_key(i)))
        .collect();
    while let Some(Reverse((_, _, i))) = heap.pop() {
        let floor = heap.peek().map(|r| r.0);
        let run = &mut runs[i];
        loop {
            let rest = &run.slab[run.pos..];
            let n = match floor {
                Some(floor) => gallop(rest, |e| (e.src, e.dst, i) <= floor),
                None => rest.len(),
            };
            enc.push_run(&rest[..n])?;
            run.pos += n;
            if run.pos < run.slab.len() {
                heap.push(Reverse(run.head_key(i)));
                break;
            }
            if !run.refill(scratch)? {
                break;
            }
        }
    }
    Ok(())
}

/// Spill-run files beside the output; removed when packing completes or is
/// dropped on an error path.
struct SpillRuns {
    output: PathBuf,
    /// Path and edge count of every run spilled so far.
    files: Vec<(PathBuf, u64)>,
    /// The bytes of the slab being written.
    scratch: Vec<u8>,
}

impl SpillRuns {
    fn new(output: &Path) -> Self {
        SpillRuns {
            output: output.to_path_buf(),
            files: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Sorts `edges` and writes them out as the next run, a slab per write.
    fn spill(&mut self, edges: &mut Vec<Edge>) -> Result<()> {
        sort_canonical(edges);
        // Appended to the whole file name: `web.clugpz` and `web.bin` packed
        // side by side must not share `web.run0.tmp`.
        let mut name = self.output.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".run{}.tmp", self.files.len()));
        let path = self.output.with_file_name(name);
        let mut file = File::create(&path)?;
        self.files.push((path, edges.len() as u64));
        for slab in edges.chunks(SLAB_EDGES) {
            self.scratch.clear();
            for e in slab {
                self.scratch.extend_from_slice(&e.src.to_le_bytes());
                self.scratch.extend_from_slice(&e.dst.to_le_bytes());
            }
            file.write_all(&self.scratch)?;
        }
        edges.clear();
        Ok(())
    }
}

impl Drop for SpillRuns {
    fn drop(&mut self) {
        for (p, _) in &self.files {
            std::fs::remove_file(p).ok();
        }
    }
}

/// Packs any edge stream into a `CLUGPZ` file at `path` in bounded memory.
///
/// The stream may yield edges in any order; the writer external-sorts them
/// into canonical `(src, dst)` order (duplicates preserved) in spill runs of
/// at most [`PackOptions::spill_edges`] edges, merged at write time. The
/// header's vertex count is `max(num_vertices_hint, max id + 1)`.
///
/// # Errors
///
/// Fails on I/O errors writing the pack or its spill runs — a failed final
/// `fsync` included — and with [`GraphError::Format`] when a spill run read
/// back is not the run that was written. No output file is left behind.
pub fn pack_edge_stream(
    stream: &mut dyn EdgeStream,
    path: &Path,
    opts: &PackOptions,
) -> Result<PackStats> {
    let spill_cap = opts.spill_edges.max(1);
    let mut runs = SpillRuns::new(path);
    let mut buffer: Vec<Edge> = Vec::with_capacity(spill_cap.min(DEFAULT_SPILL_EDGES));
    let (mut drained, mut max_id) = (0u64, 0u32);
    let t_drain = obs::now_us();
    crate::stream::try_for_each_chunk(stream, chunk_edges(), |mut chunk| -> Result<()> {
        drained += chunk.len() as u64;
        max_id = chunk.iter().fold(max_id, |m, e| m.max(e.src).max(e.dst));
        while !chunk.is_empty() {
            let (head, rest) = chunk.split_at(chunk.len().min(spill_cap - buffer.len()));
            buffer.extend_from_slice(head);
            chunk = rest;
            if buffer.len() >= spill_cap {
                runs.spill(&mut buffer)?;
            }
        }
        Ok(())
    })?;
    // The tail run stays in memory: it is merged from the buffer it sits in.
    sort_canonical(&mut buffer);
    obs::record_span("pack:drain_spill", t_drain, drained);
    let implied_n = if drained == 0 {
        0
    } else {
        u64::from(max_id) + 1
    };
    let num_vertices = stream.num_vertices_hint().unwrap_or(0).max(implied_n);

    let t_merge = obs::now_us();
    let file = File::create(path)?;
    let written = merge_encode(file, &runs.files, buffer, drained, num_vertices, opts);
    match &written {
        Ok(stats) => obs::record_span("pack:merge_encode", t_merge, stats.num_edges),
        // Only ever a regular file: `/dev/null` refuses the final fsync.
        Err(_) if path.metadata().is_ok_and(|m| m.is_file()) => {
            std::fs::remove_file(path).ok();
        }
        Err(_) => {}
    }
    written
}

/// The second half of [`pack_edge_stream`]: merges the spilled `runs` and the
/// sorted in-memory `tail` through the block encoder into `file`, holds the
/// edges encoded to the `drained` the stream handed over, then writes index,
/// footer and the real header, and syncs.
fn merge_encode(
    file: File,
    runs: &[(PathBuf, u64)],
    tail: Vec<Edge>,
    drained: u64,
    num_vertices: u64,
    opts: &PackOptions,
) -> Result<PackStats> {
    let mut scratch = Vec::new();
    let mut w = BufWriter::with_capacity(1 << 16, file);
    // Header is rewritten with real counts at the end (m is unknown for
    // hint-less streams until the drain completes).
    w.write_all(&[0u8; HEADER_LEN as usize])?;
    let mut enc = BlockEncoder::new(w, opts.block_bytes, HEADER_LEN);

    let mut sources = runs
        .iter()
        .map(|(p, edges)| Run::open(p, *edges, &mut scratch))
        .collect::<Result<Vec<Run>>>()?;
    if !tail.is_empty() {
        sources.push(Run::in_memory(tail));
    }
    let spill_runs = if runs.is_empty() { 0 } else { sources.len() };
    merge_runs(&mut sources, &mut scratch, &mut enc)?;

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
/// structural consistency (contiguous block offsets, non-empty blocks,
/// totals matching the header) always; header/index/footer CRC comparisons
/// only when [`ChecksumPolicy::verify_metadata`] holds.
pub(crate) fn open_validated(
    path: &Path,
    policy: ChecksumPolicy,
) -> Result<(File, PackHeader, PackIndex)> {
    let verify = policy.verify_metadata();
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
/// holds it to its stored checksum when `policy` verifies payloads, and
/// decodes it into `out` — the one per-block read both pack readers share.
fn load_block(
    file: &mut File,
    raw: &mut Vec<u8>,
    entry: &BlockEntry,
    policy: ChecksumPolicy,
    out: &mut Vec<Edge>,
) -> Result<()> {
    raw.resize(entry.byte_len as usize, 0);
    file.seek(SeekFrom::Start(entry.byte_offset))?;
    file.read_exact(raw)?;
    if policy.verify_payload() {
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
    index: Arc<PackIndex>,
    policy: ChecksumPolicy,
    blocks: Range<usize>,
    next_block: usize,
    shard_edges: u64,
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
        let (file, header, index) = open_validated(path, policy)?;
        let blocks = 0..index.num_blocks();
        Ok(Self::over_range(
            file,
            path.to_path_buf(),
            header,
            Arc::new(index),
            blocks,
            policy,
        ))
    }

    fn over_range(
        file: File,
        path: PathBuf,
        header: PackHeader,
        index: Arc<PackIndex>,
        blocks: Range<usize>,
        policy: ChecksumPolicy,
    ) -> Self {
        let shard_edges = index.edges_in(blocks.clone());
        PackedEdgeStream {
            file,
            path,
            header,
            index,
            policy,
            next_block: blocks.start,
            blocks,
            shard_edges,
            decoded: Vec::new(),
            pos: 0,
            raw: Vec::new(),
            error: None,
        }
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The validated header.
    pub fn header(&self) -> &PackHeader {
        &self.header
    }

    /// The block index (shared across shards of the same pack).
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
            &mut self.file,
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
        Some(self.shard_edges)
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
// ShardedPackReader.
// ---------------------------------------------------------------------------

/// A contiguous block range of a pack, sized for one reader thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Block range of this shard.
    pub blocks: Range<usize>,
    /// Edges the range covers.
    pub edges: u64,
}

/// Splits a pack into per-thread block ranges via the index, so a thread
/// pool can stream shards in parallel — each shard is an independent
/// [`PackedEdgeStream`] (or [`PipelinedPackStream`]) over its own file
/// handle.
#[derive(Debug)]
pub struct ShardedPackReader {
    path: PathBuf,
    header: PackHeader,
    index: Arc<PackIndex>,
    policy: ChecksumPolicy,
}

impl ShardedPackReader {
    /// Opens and validates `path` once; shards share the parsed index.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with(path, ChecksumPolicy::Full)
    }

    /// Opens `path` under an explicit checksum policy, inherited by every
    /// shard stream this reader hands out.
    pub fn open_with(path: &Path, policy: ChecksumPolicy) -> Result<Self> {
        let (_, header, index) = open_validated(path, policy)?;
        Ok(ShardedPackReader {
            path: path.to_path_buf(),
            header,
            index: Arc::new(index),
            policy,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &PackHeader {
        &self.header
    }

    /// The block index.
    pub fn index(&self) -> &PackIndex {
        &self.index
    }

    /// Cuts the block range into at most `want` contiguous shards balanced
    /// by edge count (never returns an empty shard; fewer shards come back
    /// when the pack has fewer blocks than `want`).
    pub fn shards(&self, want: usize) -> Vec<ShardSpec> {
        let want = want.max(1);
        let total = self.header.num_edges;
        let num_blocks = self.index.num_blocks();
        let mut specs = Vec::new();
        let mut start = 0usize;
        let mut covered = 0u64;
        for s in 0..want {
            if start >= num_blocks {
                break;
            }
            // Edge-count boundary this shard should reach (cumulative), so
            // imbalance never exceeds one block.
            let boundary = total * (s as u64 + 1) / want as u64;
            let mut end = start;
            let mut edges = 0u64;
            while end < num_blocks && (covered + edges < boundary || end == start) {
                edges += u64::from(self.index.entries()[end].edge_count);
                end += 1;
            }
            // The last shard sweeps any remainder.
            if s == want - 1 {
                while end < num_blocks {
                    edges += u64::from(self.index.entries()[end].edge_count);
                    end += 1;
                }
            }
            covered += edges;
            specs.push(ShardSpec {
                blocks: start..end,
                edges,
            });
            start = end;
        }
        specs
    }

    /// Opens one shard as an independent stream (its own file handle, so
    /// shards decode concurrently without contention).
    pub fn open_shard(&self, spec: &ShardSpec) -> Result<PackedEdgeStream> {
        let file = File::open(&self.path)?;
        Ok(PackedEdgeStream::over_range(
            file,
            self.path.clone(),
            self.header,
            Arc::clone(&self.index),
            spec.blocks.clone(),
            self.policy,
        ))
    }

    /// Opens one shard as a [`PipelinedPackStream`]: the shard's blocks
    /// decode on `opts.threads` dedicated workers ahead of the consumer.
    /// The reader's checksum policy wins over `opts.checksums` (the shard
    /// cannot be stricter than the metadata validation already performed).
    pub fn open_pipelined_shard(
        &self,
        spec: &ShardSpec,
        opts: DecodeOptions,
    ) -> Result<PipelinedPackStream> {
        Ok(PipelinedPackStream::over_range(
            self.path.clone(),
            self.header,
            Arc::clone(&self.index),
            spec.blocks.clone(),
            DecodeOptions {
                checksums: self.policy,
                ..opts
            },
        ))
    }

    /// Builds the [`ShardSpec`] for an explicit block range — the handle a
    /// distributed worker is assigned by its coordinator (as opposed to
    /// [`ShardedPackReader::shards`], which picks ranges itself). The range
    /// is clamped to the pack's block count; the edge count comes from the
    /// index.
    pub fn block_range(&self, blocks: Range<usize>) -> ShardSpec {
        let num_blocks = self.index.num_blocks();
        let start = blocks.start.min(num_blocks);
        let end = blocks.end.min(num_blocks).max(start);
        let edges = self.index.entries()[start..end]
            .iter()
            .map(|b| u64::from(b.edge_count))
            .sum();
        ShardSpec {
            blocks: start..end,
            edges,
        }
    }

    /// Opens an explicit block range directly (see
    /// [`ShardedPackReader::block_range`]).
    pub fn open_block_range(&self, blocks: Range<usize>) -> Result<PackedEdgeStream> {
        self.open_shard(&self.block_range(blocks))
    }

    /// Opens an explicit block range as a [`PipelinedPackStream`] (see
    /// [`ShardedPackReader::open_pipelined_shard`]).
    pub fn open_pipelined_block_range(
        &self,
        blocks: Range<usize>,
        opts: DecodeOptions,
    ) -> Result<PipelinedPackStream> {
        self.open_pipelined_shard(&self.block_range(blocks), opts)
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

/// Reads and summarizes a pack without decoding its blocks.
pub fn read_pack_summary(path: &Path) -> Result<PackSummary> {
    read_pack_summary_with(path, ChecksumPolicy::Full)
}

/// [`read_pack_summary`] under an explicit [`ChecksumPolicy`]: `Off` skips
/// the header/index CRC comparisons (magic and structural validation always
/// run), letting `clugp-pack info` inspect a pack whose metadata checksums
/// are damaged.
pub fn read_pack_summary_with(path: &Path, policy: ChecksumPolicy) -> Result<PackSummary> {
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

/// Fully decodes a pack, verifying every checksum, the canonical edge
/// order, and that every id is below the header's vertex count. Returns the
/// edge count on success, or the *first* failure — the streaming
/// equivalent; [`verify_pack_report`] walks every block and reports all of
/// them.
pub fn verify_pack(path: &Path) -> Result<u64> {
    let mut s = PackedEdgeStream::open(path)?;
    let n = s.header().num_vertices;
    let mut count = 0u64;
    let mut prev: Option<Edge> = None;
    let mut order_ok = true;
    let mut max_id = 0u64;
    crate::stream::for_each_chunk(&mut s, chunk_edges(), |chunk| {
        for &e in chunk {
            if let Some(p) = prev {
                order_ok &= (p.src, p.dst) <= (e.src, e.dst);
            }
            max_id = max_id.max(u64::from(e.src.max(e.dst)));
            prev = Some(e);
        }
        count += chunk.len() as u64;
    });
    // A parked decode error means the drain ended early; surface it.
    s.reset()?;
    if !order_ok {
        return Err(GraphError::Format(
            "pack violates canonical (src, dst) order".into(),
        ));
    }
    if count != s.header().num_edges {
        return Err(GraphError::Format(format!(
            "pack decodes {count} edges, header promises {}",
            s.header().num_edges
        )));
    }
    if count > 0 && max_id >= n {
        return Err(GraphError::VertexOutOfRange {
            vertex: max_id,
            num_vertices: n,
        });
    }
    Ok(count)
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

/// Verifies every block of a pack, continuing past failures so the report
/// names *all* damaged blocks with their index and byte offset — the
/// `clugp-pack verify` surface.
///
/// # Errors
///
/// Fails only when the metadata (header/index/footer) is too damaged to
/// enumerate blocks at all; block-level damage lands in the report.
pub fn verify_pack_report(path: &Path) -> Result<VerifyReport> {
    let (mut file, header, index) = open_validated(path, ChecksumPolicy::Full)?;
    let decoder = BlockDecoder;
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
        let outcome = (|| -> Result<()> {
            raw.resize(entry.byte_len as usize, 0);
            file.seek(SeekFrom::Start(entry.byte_offset))?;
            file.read_exact(&mut raw)?;
            let computed = crc32(&raw);
            if computed != entry.crc {
                return Err(GraphError::Format(format!(
                    "payload checksum mismatch: stored {:#010x}, computed {computed:#010x}",
                    entry.crc
                )));
            }
            decoder.decode(&raw, entry, &mut edges)
        })();
        match outcome {
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
        let stats = write_pack(&path, 0, &edges, &opts).unwrap();
        assert!(
            stats.spill_runs >= 2,
            "expected spill runs, got {}",
            stats.spill_runs
        );
        let mut s = PackedEdgeStream::open(&path).unwrap();
        assert_eq!(collect_stream(&mut s), want);
        // Spill runs are cleaned up.
        let dir = path.parent().unwrap();
        assert!(std::fs::read_dir(dir).unwrap().all(|f| !f
            .unwrap()
            .file_name()
            .to_string_lossy()
            .contains(".run")));
        std::fs::remove_file(&path).ok();
    }

    /// A private directory per spilling test: `external_sort_spill_path_…`
    /// asserts that the shared one holds no `.run` file.
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

    #[test]
    fn every_sort_and_merge_leg_writes_the_reference_bytes() {
        let dir = tmp_dir("legs");
        let canonical = canonical_order(&web_like(8_547)); // 11 × 777: an empty tail run
        let mut ascending = canonical.clone();
        for list in ascending.chunk_by_mut(|a, b| a.src == b.src) {
            list.reverse();
        }
        // Four distinct edges, thousands of copies: ties straddle every run
        // boundary at every spill size.
        let duplicates: Vec<Edge> = (0..6_000u32).map(|i| Edge::new(i % 2, i % 4 / 2)).collect();
        let one_source: Vec<Edge> = (0..5_000u32)
            .map(|i| Edge::new(9, (i * 7_919) % 1_000))
            .collect();
        let inputs: [(&str, Vec<Edge>); 7] = [
            ("canonical", canonical.clone()),
            ("ascending", ascending),
            ("shuffled", shuffled(canonical.clone(), 3)),
            ("reversed", canonical.iter().rev().copied().collect()),
            ("duplicates", shuffled(duplicates, 5)),
            ("one_source", one_source),
            ("empty", Vec::new()),
        ];
        for (name, edges) in &inputs {
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
                    let stats = write_pack(&path, 0, edges, &opts).unwrap();
                    let tag = format!("{name} spill={spill_edges} block={block_bytes}");
                    assert_eq!(stats.num_edges, edges.len() as u64, "{tag}");
                    // The parent's count: runs on disk plus a non-empty tail,
                    // 0 when nothing was spilled.
                    let (full, tail) = (edges.len() / spill_edges, edges.len() % spill_edges);
                    let runs = if full == 0 {
                        0
                    } else {
                        full + usize::from(tail > 0)
                    };
                    assert_eq!(stats.spill_runs, runs, "{tag}");
                    assert!(std::fs::read(&path).unwrap() == want, "{tag}: bytes differ");
                }
            }
        }
        assert!(dir_names(&dir).iter().all(|f| !f.contains(".run")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sort_canonical_takes_both_legs_to_the_same_order() {
        let sorted = canonical_order(&web_like(3_000));
        let mut ascending = sorted.clone();
        for list in ascending.chunk_by_mut(|a, b| a.src == b.src) {
            list.reverse();
        }
        assert_ne!(ascending, sorted);
        for mut input in [
            sorted.clone(),
            ascending,
            shuffled(sorted.clone(), 1),
            Vec::new(),
        ] {
            let want = canonical_order(&input);
            sort_canonical(&mut input);
            assert_eq!(input, want);
        }
    }

    #[test]
    fn gallop_finds_the_prefix_a_linear_scan_finds() {
        let slab: Vec<Edge> = (0..100u32).map(|i| Edge::new(i / 3, i % 3)).collect();
        for len in [0usize, 1, 2, 3, 7, 64, 100] {
            for bound in 0..=len + 1 {
                let le = |e: &Edge| ((e.src * 3 + e.dst) as usize) < bound;
                let want = slab[..len].iter().take_while(|e| le(e)).count();
                assert_eq!(gallop(&slab[..len], le), want, "len={len} bound={bound}");
            }
        }
    }

    /// Hands out its edges, and cuts `victim` short just before it reports
    /// exhaustion — between the spill and the merge.
    struct TruncatingStream {
        inner: InMemoryStream,
        victim: PathBuf,
        cut_to: u64,
    }

    impl EdgeStream for TruncatingStream {
        fn next_chunk(&mut self, cap: usize) -> &[Edge] {
            let chunk = self.inner.next_chunk(cap);
            if chunk.is_empty() {
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&self.victim)
                    .unwrap();
                f.set_len(self.cut_to).unwrap();
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
            ..Default::default()
        };
        // Inside a record, and on a record boundary.
        for cut_to in [8 * 100 + 3, 8 * 100] {
            let dir = tmp_dir(&format!("truncated{cut_to}"));
            let path = dir.join("web.clugpz");
            let mut s = TruncatingStream {
                inner: InMemoryStream::new(0, edges.clone()),
                victim: dir.join("web.clugpz.run1.tmp"),
                cut_to,
            };
            let err = pack_edge_stream(&mut s, &path, &opts).unwrap_err();
            assert!(matches!(err, GraphError::Format(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains("web.clugpz.run1.tmp"), "{msg}");
            assert!(msg.contains(&format!("{cut_to} bytes")), "{msg}");
            assert_eq!(dir_names(&dir), Vec::<String>::new(), "cut_to={cut_to}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn spill_runs_are_named_after_the_whole_output_file_name() {
        let dir = tmp_dir("names");
        let edges = web_like(100);
        let mut runs: Vec<SpillRuns> = ["web.clugpz", "web.bin", "web"]
            .iter()
            .map(|name| SpillRuns::new(&dir.join(name)))
            .collect();
        for r in &mut runs {
            r.spill(&mut edges.clone()).unwrap();
            r.spill(&mut edges.clone()).unwrap();
        }
        let mut names = dir_names(&dir);
        names.sort();
        assert_eq!(
            names,
            [
                "web.bin.run0.tmp",
                "web.bin.run1.tmp",
                "web.clugpz.run0.tmp",
                "web.clugpz.run1.tmp",
                "web.run0.tmp",
                "web.run1.tmp",
            ]
        );
        drop(runs);
        assert!(dir_names(&dir).is_empty(), "runs outlive their owner");
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
        assert_eq!(verify_pack(&path).unwrap(), 0);
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
    fn sharded_reader_covers_the_pack_exactly_once() {
        let edges = web_like(5_000);
        let path = tmp("shards.clugpz");
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
        let reader = ShardedPackReader::open(&path).unwrap();
        let want = canonical_order(&edges);
        for want_shards in [1usize, 2, 3, 8, 1000] {
            let specs = reader.shards(want_shards);
            assert!(!specs.is_empty());
            assert!(specs.len() <= want_shards);
            assert!(
                specs.iter().all(|s| !s.blocks.is_empty()),
                "no empty shards"
            );
            // Contiguous cover.
            assert_eq!(specs[0].blocks.start, 0);
            assert_eq!(
                specs.last().unwrap().blocks.end,
                reader.index().num_blocks()
            );
            for w in specs.windows(2) {
                assert_eq!(w[0].blocks.end, w[1].blocks.start);
            }
            let mut all = Vec::new();
            for spec in &specs {
                let mut s = reader.open_shard(spec).unwrap();
                assert_eq!(s.len_hint(), Some(spec.edges));
                let part = collect_stream(&mut s);
                assert_eq!(part.len() as u64, spec.edges);
                all.extend(part);
            }
            assert_eq!(all, want, "want_shards={want_shards}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shards_are_balanced_by_edges() {
        let edges = web_like(20_000);
        let path = tmp("balance.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 256,
                ..Default::default()
            },
        )
        .unwrap();
        let reader = ShardedPackReader::open(&path).unwrap();
        let specs = reader.shards(4);
        assert_eq!(specs.len(), 4);
        let total: u64 = specs.iter().map(|s| s.edges).sum();
        assert_eq!(total, edges.len() as u64);
        let target = total as f64 / 4.0;
        for s in &specs {
            // Imbalance bounded by one block (≤ ~128 edges at 256 B).
            assert!(
                (s.edges as f64 - target).abs() <= 300.0,
                "shard {s:?} vs target {target}"
            );
        }
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
        let sum = read_pack_summary(&path).unwrap();
        assert_eq!(sum.header.num_edges, edges.len() as u64);
        assert_eq!(sum.num_blocks, stats.num_blocks);
        // Every block but the trailing partial one reaches the target.
        let reader = ShardedPackReader::open(&path).unwrap();
        let entries = reader.index().entries();
        assert!(entries[..entries.len() - 1]
            .iter()
            .all(|e| e.byte_len >= 1024));
        assert!(sum.min_block_bytes >= 1);
        assert!(sum.bytes_per_edge() > 0.0);
        assert_eq!(verify_pack(&path).unwrap(), edges.len() as u64);
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
        assert!(verify_pack(&path).is_err());
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
        let reader = ShardedPackReader::open(&path).unwrap();
        let entries: Vec<BlockEntry> = reader.index().entries().to_vec();
        assert!(entries.len() >= 5, "need several blocks for this test");
        drop(reader);
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
        // Pristine file: all policies stream identically.
        for policy in [
            ChecksumPolicy::Full,
            ChecksumPolicy::HeaderAndIndex,
            ChecksumPolicy::Off,
        ] {
            let mut s = PackedEdgeStream::open_with(&path, policy).unwrap();
            assert_eq!(collect_stream(&mut s), want, "{policy:?}");
        }
        // Tamper with a stored *block CRC* in the index, recomputing the
        // index + footer checksums so the metadata stays self-consistent:
        // Full must reject the payload, HeaderAndIndex/Off must stream it.
        let pristine = std::fs::read(&path).unwrap();
        let reader = ShardedPackReader::open(&path).unwrap();
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
        for policy in [ChecksumPolicy::HeaderAndIndex, ChecksumPolicy::Off] {
            let mut s = PackedEdgeStream::open_with(&path, policy).unwrap();
            assert_eq!(collect_stream(&mut s), want, "{policy:?}");
            assert!(s.error().is_none(), "{policy:?}");
        }

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

        // Tamper with the *header CRC*: Full/HeaderAndIndex reject at open,
        // Off still opens (magic + structure intact).
        let mut data = pristine.clone();
        data[33] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(PackedEdgeStream::open_with(&path, ChecksumPolicy::Full).is_err());
        assert!(PackedEdgeStream::open_with(&path, ChecksumPolicy::HeaderAndIndex).is_err());
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
        for threads in [1usize, 2, 4] {
            for prefetch in [1usize, 4] {
                let opts = DecodeOptions {
                    threads,
                    prefetch,
                    checksums: ChecksumPolicy::Full,
                };
                let mut s = PipelinedPackStream::open(&path, opts).unwrap();
                assert_eq!(s.len_hint(), Some(edges.len() as u64));
                assert_eq!(
                    collect_stream(&mut s),
                    want,
                    "threads={threads} prefetch={prefetch}"
                );
                // Restream: reset reports clean and the second pass agrees.
                s.reset().unwrap();
                assert_eq!(collect_stream(&mut s), want, "second pass");
            }
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
        let reader = ShardedPackReader::open(&path).unwrap();
        let entries: Vec<BlockEntry> = reader.index().entries().to_vec();
        drop(reader);
        let victim = entries.len() / 2;
        let mut data = std::fs::read(&path).unwrap();
        data[entries[victim].byte_offset as usize] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let good_prefix: u64 = entries[..victim]
            .iter()
            .map(|e| u64::from(e.edge_count))
            .sum();
        let opts = DecodeOptions {
            threads: 2,
            prefetch: 4,
            checksums: ChecksumPolicy::Full,
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
    fn pipelined_sharded_ranges_cover_the_pack() {
        let edges = web_like(5_000);
        let path = tmp("pipelined_shards.clugpz");
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
        let reader = ShardedPackReader::open(&path).unwrap();
        let want = canonical_order(&edges);
        let opts = DecodeOptions {
            threads: 2,
            prefetch: 2,
            checksums: ChecksumPolicy::Full,
        };
        let mut all = Vec::new();
        for spec in reader.shards(3) {
            let mut s = reader.open_pipelined_shard(&spec, opts).unwrap();
            assert_eq!(s.len_hint(), Some(spec.edges));
            all.extend(collect_stream(&mut s));
        }
        assert_eq!(all, want);
        // Explicit block-range opener agrees with the serial one.
        let mid = reader.index().num_blocks() / 2;
        let mut serial = reader.open_block_range(mid..usize::MAX).unwrap();
        let mut piped = reader
            .open_pipelined_block_range(mid..usize::MAX, opts)
            .unwrap();
        assert_eq!(collect_stream(&mut piped), collect_stream(&mut serial));
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
}
