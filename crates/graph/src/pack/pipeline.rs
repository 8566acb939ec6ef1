//! Staged decode pipeline: pack blocks decode on worker threads *ahead of*
//! the consumer, so partitioning no longer runs in lockstep with the codec.
//!
//! # Stages
//!
//! ```text
//!            claim next block            publish decoded buffer
//! workers ──[ seek + read + CRC + BlockDecoder ]──▶ ready map ──▶ consumer
//!    ▲                                                              │
//!    └───────────────── recycled edge buffers ──────────────────────┘
//! ```
//!
//! Each worker owns a private file handle and raw-byte scratch; decoded
//! edges travel in `Vec<Edge>` buffers drawn from a shared free list and
//! returned to it when the consumer finishes a block — steady-state runs
//! allocation-free. Claims are bounded: at most `prefetch` blocks may be
//! claimed-but-undelivered, so memory stays O(prefetch × block) no matter
//! how far decode runs ahead (the Sanders/Schulz semi-external discipline).
//!
//! # Ordering guarantee
//!
//! Workers may finish out of order; the consumer delivers blocks strictly by
//! index through an ordered reassembly map. The chunk sequence out of
//! [`EdgeStream::next_chunk`] is therefore byte-identical to the serial
//! [`super::PackedEdgeStream`] at every thread count and prefetch depth —
//! pinned by `tests/pipelined_equivalence.rs`.
//!
//! # Failure contract
//!
//! A worker-side I/O, checksum, or decode failure is delivered *in order*
//! (blocks before the damaged one still stream), then parks on the consumer:
//! the stream ends early, in-flight work for the old epoch is cancelled and
//! its buffers recycled, and the next [`RestreamableStream::reset`] reports
//! the error — the same park-error/reset-reports contract as every other
//! file-backed stream in this crate, held across threads.

use super::checksum::ChecksumPolicy;
use super::{load_block, open_validated, PackHeader, PackIndex};
use crate::error::{GraphError, Result};
use crate::stream::{EdgeStream, RestreamableStream};
use crate::types::Edge;
use std::collections::BTreeMap;
use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default bound on claimed-but-undelivered blocks.
pub const DEFAULT_PREFETCH_BLOCKS: usize = 4;

/// How pack-backed streams opened through [`crate::io::open_edge_stream`]
/// decode: serially in the consumer (threads = 0, the historical behavior)
/// or pipelined on dedicated worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Decode worker threads. `0` selects the serial in-consumer path;
    /// `≥ 1` selects [`PipelinedPackStream`] with that many workers.
    pub threads: usize,
    /// Bound on blocks claimed ahead of the consumer (clamped to ≥ 1).
    pub prefetch: usize,
    /// Read-side checksum verification policy.
    pub checksums: ChecksumPolicy,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            threads: 0,
            prefetch: DEFAULT_PREFETCH_BLOCKS,
            checksums: ChecksumPolicy::Full,
        }
    }
}

// Process-wide decode configuration, same pattern as
// `stream::chunk_edges`: binaries set it once from their CLI and every
// consumer that opens a pack through `open_edge_stream` inherits it.
static DECODE_THREADS: AtomicUsize = AtomicUsize::new(0);
static DECODE_PREFETCH: AtomicUsize = AtomicUsize::new(DEFAULT_PREFETCH_BLOCKS);
static DECODE_CHECKSUMS: AtomicU8 = AtomicU8::new(0);

/// The process-wide [`DecodeOptions`] honored by
/// [`crate::io::open_edge_stream`] for packed inputs.
pub fn decode_options() -> DecodeOptions {
    DecodeOptions {
        threads: DECODE_THREADS.load(Ordering::Relaxed),
        prefetch: DECODE_PREFETCH.load(Ordering::Relaxed).max(1),
        checksums: ChecksumPolicy::from_tag(DECODE_CHECKSUMS.load(Ordering::Relaxed))
            .unwrap_or_default(),
    }
}

/// Sets the process-wide [`DecodeOptions`] (prefetch clamped to ≥ 1).
pub fn set_decode_options(opts: DecodeOptions) {
    DECODE_THREADS.store(opts.threads, Ordering::Relaxed);
    DECODE_PREFETCH.store(opts.prefetch.max(1), Ordering::Relaxed);
    DECODE_CHECKSUMS.store(opts.checksums.tag(), Ordering::Relaxed);
}

/// One decoded block in flight, or the error that killed it.
type BlockResult = std::result::Result<Vec<Edge>, GraphError>;

struct PipeState {
    /// Bumped by the consumer on reset/cancel; workers publishing under a
    /// stale epoch discard their result into the free list.
    epoch: u64,
    /// Next block index a worker may claim.
    next_claim: usize,
    /// Next block index the consumer will deliver.
    next_deliver: usize,
    /// Bound on `next_claim - next_deliver`.
    capacity: usize,
    /// Out-of-order reassembly: finished blocks keyed by index.
    ready: BTreeMap<usize, BlockResult>,
    /// Recycled edge buffers (capacity retained across blocks).
    free: Vec<Vec<Edge>>,
    shutdown: bool,
}

struct PipeShared {
    path: PathBuf,
    index: Arc<PackIndex>,
    policy: ChecksumPolicy,
    range: Range<usize>,
    state: Mutex<PipeState>,
    /// Workers wait here for a claimable block (or shutdown).
    work_cv: Condvar,
    /// The consumer waits here for `next_deliver` to land in `ready`.
    ready_cv: Condvar,
}

impl PipeShared {
    /// Worker body: claim → decode outside the lock → publish (or discard
    /// on epoch mismatch).
    fn worker_loop(&self) {
        let mut file: Option<File> = None;
        let mut raw: Vec<u8> = Vec::new();
        loop {
            let (block, epoch, mut buf) = {
                let mut st = self.state.lock().expect("pipeline lock poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    let in_flight = st.next_claim - st.next_deliver;
                    if st.next_claim < self.range.end && in_flight < st.capacity {
                        let b = st.next_claim;
                        st.next_claim += 1;
                        let buf = st.free.pop().unwrap_or_default();
                        break (b, st.epoch, buf);
                    }
                    st = self.work_cv.wait(st).expect("pipeline lock poisoned");
                }
            };
            let result = self.decode_one(&mut file, &mut raw, block, &mut buf);
            let mut st = self.state.lock().expect("pipeline lock poisoned");
            if st.epoch == epoch {
                let payload = match result {
                    Ok(()) => Ok(std::mem::take(&mut buf)),
                    Err(e) => {
                        st.free.push(std::mem::take(&mut buf));
                        Err(e)
                    }
                };
                st.ready.insert(block, payload);
                self.ready_cv.notify_all();
            } else {
                // Stale epoch (reset or cancel happened mid-decode): the
                // result is for a run nobody is waiting on.
                st.free.push(std::mem::take(&mut buf));
            }
        }
    }

    fn decode_one(
        &self,
        file: &mut Option<File>,
        raw: &mut Vec<u8>,
        block: usize,
        buf: &mut Vec<Edge>,
    ) -> Result<()> {
        // Each worker opens its own handle lazily so shards decode without
        // seek contention; an open failure surfaces per claimed block.
        if file.is_none() {
            *file = Some(File::open(&self.path)?);
        }
        let f = file.as_mut().expect("just opened");
        load_block(f, raw, &self.index.entries()[block], self.policy, buf)
    }
}

/// A resettable edge stream over a `CLUGPZ` pack (or a block range of one)
/// whose blocks decode on dedicated worker threads ahead of the consumer.
///
/// Drop-in equivalent of [`super::PackedEdgeStream`]: same chunk sequence,
/// same hints, same park-error/reset contract — see the module docs for the
/// pipeline shape and guarantees.
#[derive(Debug)]
pub struct PipelinedPackStream {
    shared: Arc<PipeShared>,
    workers: Vec<JoinHandle<()>>,
    header: PackHeader,
    shard_edges: u64,
    decoded: Vec<Edge>,
    pos: usize,
    error: Option<GraphError>,
}

impl std::fmt::Debug for PipeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeShared")
            .field("path", &self.path)
            .field("range", &self.range)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl PipelinedPackStream {
    /// Opens `path` (validated under `opts.checksums`) and starts
    /// `opts.threads.max(1)` decode workers over all blocks.
    pub fn open(path: &Path, opts: DecodeOptions) -> Result<Self> {
        let (_, header, index) = open_validated(path, opts.checksums)?;
        let blocks = 0..index.num_blocks();
        Ok(Self::over_range(
            path.to_path_buf(),
            header,
            Arc::new(index),
            blocks,
            opts,
        ))
    }

    /// Starts a pipelined stream over an explicit block range of an
    /// already-validated pack — the shard/worker entry point used by
    /// [`super::ShardedPackReader`].
    pub(crate) fn over_range(
        path: PathBuf,
        header: PackHeader,
        index: Arc<PackIndex>,
        blocks: Range<usize>,
        opts: DecodeOptions,
    ) -> Self {
        let threads = opts.threads.max(1);
        let prefetch = opts.prefetch.max(1);
        let shard_edges = index.edges_in(blocks.clone());
        let shared = Arc::new(PipeShared {
            path,
            index,
            policy: opts.checksums,
            range: blocks.clone(),
            state: Mutex::new(PipeState {
                epoch: 0,
                next_claim: blocks.start,
                next_deliver: blocks.start,
                capacity: prefetch,
                ready: BTreeMap::new(),
                free: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            ready_cv: Condvar::new(),
        });
        // More workers than claimable blocks would only park on the
        // condvar; still spawn at least one so the stream always drains.
        let workers = (0..threads.min(blocks.len().max(1)))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clugp-decode-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn decode worker")
            })
            .collect();
        PipelinedPackStream {
            shared,
            workers,
            header,
            shard_edges,
            decoded: Vec::new(),
            pos: 0,
            error: None,
        }
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.shared.path
    }

    /// The validated header.
    pub fn header(&self) -> &PackHeader {
        &self.header
    }

    /// The error that ended the stream early, if any (also reported by the
    /// next [`RestreamableStream::reset`]) — mirrors
    /// [`super::PackedEdgeStream::error`].
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.decoded.len() - self.pos
    }

    /// Takes delivery of the next in-order block. Returns `false` at range
    /// end or once an error has parked.
    fn load_next_block(&mut self) -> bool {
        if self.error.is_some() {
            return false;
        }
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock().expect("pipeline lock poisoned");
        if st.next_deliver >= shared.range.end {
            return false;
        }
        let block = st.next_deliver;
        let result = loop {
            if let Some(r) = st.ready.remove(&block) {
                break r;
            }
            // Decode ran behind the consumer: this wait is the pipeline's
            // prefetch-stall time, credited to the calling thread so the
            // AMPC worker can report it per stage.
            let waited = std::time::Instant::now();
            st = shared.ready_cv.wait(st).expect("pipeline lock poisoned");
            clugp_obs::stall::add_decode_stall(waited.elapsed().as_nanos() as u64);
        };
        st.next_deliver += 1;
        // Recycle the buffer the consumer just finished draining.
        let consumed = std::mem::take(&mut self.decoded);
        if consumed.capacity() > 0 {
            st.free.push(consumed);
        }
        match result {
            Ok(buf) => {
                self.decoded = buf;
                self.pos = 0;
                drop(st);
                // A claim slot and a recycled buffer both opened up.
                shared.work_cv.notify_all();
                true
            }
            Err(e) => {
                // Deliveries stay in order, so everything before the damaged
                // block already streamed. Park the error, cancel the rest of
                // this epoch, and recycle whatever had finished.
                st.epoch += 1;
                st.next_claim = shared.range.end;
                st.next_deliver = shared.range.end;
                let leftovers = std::mem::take(&mut st.ready);
                for (_, r) in leftovers {
                    if let Ok(b) = r {
                        st.free.push(b);
                    }
                }
                drop(st);
                shared.work_cv.notify_all();
                self.pos = 0;
                self.error = Some(e);
                false
            }
        }
    }
}

impl EdgeStream for PipelinedPackStream {
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

impl RestreamableStream for PipelinedPackStream {
    /// Rewinds to the first block of this stream's range and restarts the
    /// workers on it.
    ///
    /// # Errors
    ///
    /// Reports (and clears) the decode/IO error that ended the previous
    /// pass early.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        {
            let mut st = self.shared.state.lock().expect("pipeline lock poisoned");
            st.epoch += 1;
            st.next_claim = self.shared.range.start;
            st.next_deliver = self.shared.range.start;
            let leftovers = std::mem::take(&mut st.ready);
            for (_, r) in leftovers {
                if let Ok(b) = r {
                    st.free.push(b);
                }
            }
            let consumed = std::mem::take(&mut self.decoded);
            if consumed.capacity() > 0 {
                st.free.push(consumed);
            }
        }
        self.pos = 0;
        self.shared.work_cv.notify_all();
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for PipelinedPackStream {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pipeline lock poisoned");
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.ready_cv.notify_all();
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}
