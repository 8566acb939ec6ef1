//! Decode-ahead: a pack stream whose blocks decode on one thread running
//! ahead of the consumer, so partitioning no longer waits on the codec.
//!
//! # Shape
//!
//! ```text
//!                seek + read + CRC + BlockDecoder
//! decode thread ──────────────────────────────────▶ ready blocks ──▶ consumer
//!       ▲                                                               │
//!       └──────────────── free buffers ◀── the buffer it drained ───────┘
//! ```
//!
//! One producer decodes strictly in block order, at most `prefetch` blocks
//! ahead; the consumer takes the oldest block by swapping in the buffer it
//! has drained. The thread that opens the stream allocates the `prefetch`
//! buffers (sized for the range's largest block), the raw-byte scratch and
//! the file handle, and the consumer sizes its own buffer at its first
//! take, so every pass after the first runs allocation-free
//! (`tests/steady_state_alloc.rs`). Memory stays O(prefetch × block) however
//! large the pack is (the Sanders/Schulz semi-external discipline).
//!
//! # Hand-off
//!
//! Both sides share one mutex-guarded state and one condvar. A wait looks
//! at the state a fixed number of times, yielding the CPU in between, and
//! only then sleeps: in steady state the other side publishes within the
//! spin, and a wake-up across vCPUs can stall for milliseconds — a pipeline
//! that sleeps on every hand-off loses to the serial reader on two vCPUs.
//! The yield lets the other side run when the scheduler has put both on
//! one CPU.
//!
//! # Ordering guarantee
//!
//! Blocks are published in index order, so the chunk sequence out of
//! [`EdgeStream::next_chunk`] is byte-identical to the serial
//! [`super::PackedEdgeStream`] at every ring depth — pinned by
//! `tests/pipelined_equivalence.rs`.
//!
//! # Failure contract
//!
//! A read, checksum or decode failure is published in place of the block
//! that failed, in order (blocks before it still stream), and ends the
//! decode thread's pass. The consumer parks the error, the stream ends
//! early, and the next [`RestreamableStream::reset`] reports it — the same
//! park-error/reset-reports contract as every other file-backed stream in
//! this crate, held across threads. A reset cancels the pass in flight: the
//! decode thread sees the new epoch at its next block boundary and restarts
//! at the range's first block.

use super::checksum::ChecksumPolicy;
use super::{load_block, open_validated, PackHeader, PackIndex};
use crate::error::{GraphError, Result};
use crate::stream::{EdgeStream, RestreamableStream};
use crate::types::Edge;
use std::collections::VecDeque;
use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default ring depth: blocks decoded ahead of the consumer.
pub const DEFAULT_PREFETCH_BLOCKS: usize = 4;

/// Looks a wait takes at the shared state, yielding in between, before it
/// sleeps on the condvar.
const SPINS: u32 = 200;

/// How pack-backed streams opened through [`crate::io::open_edge_stream`]
/// decode: in the consumer (the serial [`super::PackedEdgeStream`]) or ahead
/// of it on one more thread ([`PipelinedPackStream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOptions {
    /// `0` decodes in the consumer; any other value decodes ahead on one
    /// thread, as a stream never takes more than one spare core.
    /// [`DecodeOptions::AUTO`], the default, lets the CPU count choose.
    pub threads: usize,
    /// Ring depth: blocks decoded ahead of the consumer (clamped to ≥ 1).
    pub prefetch: usize,
    /// Read-side checksum verification policy.
    pub checksums: ChecksumPolicy,
}

impl DecodeOptions {
    /// The default `threads`: a stream decodes ahead iff the process may
    /// run on a second CPU ([`DecodeOptions::decodes_ahead`]). The block
    /// ranges of AMPC workers read serially under it: W workers would start
    /// W decode threads on CPUs counted for one stream.
    pub const AUTO: usize = usize::MAX;

    /// The options of a process that may run on `cpus` CPUs: decode ahead
    /// iff a second CPU is there to do it. On one CPU the decode thread
    /// would only take turns with the consumer, spinning in between.
    pub fn for_cpus(cpus: usize) -> Self {
        DecodeOptions {
            threads: usize::from(cpus >= 2),
            prefetch: DEFAULT_PREFETCH_BLOCKS,
            checksums: ChecksumPolicy::Full,
        }
    }

    /// Whether [`crate::io::open_edge_stream`] decodes ahead under these
    /// options. Under [`DecodeOptions::AUTO`] that is
    /// [`DecodeOptions::for_cpus`] of
    /// [`std::thread::available_parallelism`], which honours the affinity
    /// mask: a process confined by `taskset -c` to one CPU reads serially.
    pub fn decodes_ahead(&self) -> bool {
        static CPUS: OnceLock<usize> = OnceLock::new();
        if self.threads != Self::AUTO {
            return self.threads > 0;
        }
        let cpus =
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |cpus| cpus.get()));
        Self::for_cpus(cpus).threads > 0
    }
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            threads: Self::AUTO,
            prefetch: DEFAULT_PREFETCH_BLOCKS,
            checksums: ChecksumPolicy::Full,
        }
    }
}

// Process-wide decode configuration, same pattern as
// `stream::chunk_edges`: binaries set it once from their CLI and every
// consumer that opens a pack through `open_edge_stream` inherits it.
static DECODE_THREADS: AtomicUsize = AtomicUsize::new(DecodeOptions::AUTO);
static DECODE_PREFETCH: AtomicUsize = AtomicUsize::new(DEFAULT_PREFETCH_BLOCKS);
static DECODE_CHECKSUMS: AtomicU8 = AtomicU8::new(0);

/// The process-wide [`DecodeOptions`] honored by
/// [`crate::io::open_edge_stream`] for packed inputs.
pub fn decode_options() -> DecodeOptions {
    DecodeOptions {
        threads: DECODE_THREADS.load(Relaxed),
        prefetch: DECODE_PREFETCH.load(Relaxed).max(1),
        checksums: ChecksumPolicy::from_tag(DECODE_CHECKSUMS.load(Relaxed)).unwrap_or_default(),
    }
}

/// Sets the process-wide [`DecodeOptions`] (prefetch clamped to ≥ 1).
pub fn set_decode_options(opts: DecodeOptions) {
    DECODE_THREADS.store(opts.threads, Relaxed);
    DECODE_PREFETCH.store(opts.prefetch.max(1), Relaxed);
    DECODE_CHECKSUMS.store(opts.checksums.tag(), Relaxed);
}

/// A decoded block, or the error that ended its decode.
#[derive(Debug)]
struct Slot {
    edges: Vec<Edge>,
    error: Option<GraphError>,
}

/// What the decode thread and the consumer share.
#[derive(Debug)]
struct State {
    /// Decoded blocks of the pass the consumer wants, in block order.
    ready: VecDeque<Slot>,
    /// Buffers for the decode thread to fill.
    free: Vec<Vec<Edge>>,
    /// The pass the consumer wants: bumped by every reset.
    epoch: u64,
    shutdown: bool,
}

#[derive(Debug)]
struct Ring {
    state: Mutex<State>,
    /// Signalled after every change to `state`.
    changed: Condvar,
}

impl Ring {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("the decode ring was poisoned by a panicking thread")
    }

    /// Returns the state once `ready` holds: looks [`SPINS`] times,
    /// yielding in between, then sleeps until the other side changes it.
    fn wait(&self, ready: impl Fn(&State) -> bool) -> MutexGuard<'_, State> {
        for _ in 0..SPINS {
            let state = self.lock();
            if ready(&state) {
                return state;
            }
            drop(state);
            std::thread::yield_now();
        }
        let mut state = self.lock();
        while !ready(&state) {
            state = self
                .changed
                .wait(state)
                .expect("the decode ring was poisoned by a panicking thread");
        }
        state
    }

    /// Applies `change` to the state and wakes the other side.
    fn publish(&self, change: impl FnOnce(&mut State)) {
        change(&mut self.lock());
        self.changed.notify_all();
    }
}

/// The decode thread: decodes the next block of the consumer's epoch into
/// a free buffer, restarts on a new epoch, stops on shutdown. It reads
/// through the file handle and raw-byte scratch it is handed.
fn decode_ahead(
    ring: &Ring,
    mut file: File,
    mut raw: Vec<u8>,
    index: &PackIndex,
    policy: ChecksumPolicy,
    range: Range<usize>,
) {
    let (mut epoch, mut next) = (0u64, range.start);
    loop {
        let mut state = ring
            .wait(|s| s.shutdown || s.epoch != epoch || (next < range.end && !s.free.is_empty()));
        if state.shutdown {
            return;
        }
        if state.epoch != epoch {
            (epoch, next) = (state.epoch, range.start);
            continue;
        }
        let mut edges = state.free.pop().expect("waited for a free buffer");
        drop(state);
        let entry = &index.entries()[next];
        let error = load_block(&mut file, &mut raw, entry, policy, &mut edges).err();
        // A failed block ends the pass: the consumer parks its error.
        next = if error.is_some() { range.end } else { next + 1 };
        ring.publish(|s| {
            if s.epoch == epoch {
                s.ready.push_back(Slot { edges, error });
            } else {
                s.free.push(edges); // a reset overtook this block
            }
        });
    }
}

/// A resettable edge stream over a `CLUGPZ` pack (or a block range of one)
/// whose blocks decode on one thread ahead of the consumer.
///
/// Drop-in equivalent of [`super::PackedEdgeStream`]: same chunk sequence,
/// same hints, same park-error/reset contract — see the module docs for the
/// ring and the hand-off. Dropping the stream joins the decode thread.
#[derive(Debug)]
pub struct PipelinedPackStream {
    ring: Arc<Ring>,
    /// `None` over an empty range, which has nothing to decode.
    decoder: Option<JoinHandle<()>>,
    path: PathBuf,
    header: PackHeader,
    blocks: usize,
    /// Edges of the range's largest block.
    block_edges: usize,
    shard_edges: u64,
    /// Blocks taken this pass.
    taken: usize,
    decoded: Vec<Edge>,
    pos: usize,
    error: Option<GraphError>,
}

impl PipelinedPackStream {
    /// Opens `path` (validated under `opts.checksums`) and starts decoding
    /// all its blocks ahead, `opts.prefetch` deep. `opts.threads` is not
    /// consulted: this stream always decodes on one thread.
    pub fn open(path: &Path, opts: DecodeOptions) -> Result<Self> {
        let (file, header, index) = open_validated(path, opts.checksums)?;
        let blocks = 0..index.num_blocks();
        Ok(Self::over_range(
            path.to_path_buf(),
            file,
            header,
            Arc::new(index),
            blocks,
            opts,
        ))
    }

    /// Starts decode-ahead over an explicit block range of an
    /// already-validated pack, read through `file` — the shard/worker entry
    /// point used by [`super::ShardedPackReader`].
    pub(crate) fn over_range(
        path: PathBuf,
        file: File,
        header: PackHeader,
        index: Arc<PackIndex>,
        blocks: Range<usize>,
        opts: DecodeOptions,
    ) -> Self {
        let entries = &index.entries()[blocks.clone()];
        let block_edges = entries
            .iter()
            .map(|e| e.edge_count as usize)
            .max()
            .unwrap_or(0);
        let block_bytes = entries
            .iter()
            .map(|e| e.byte_len as usize)
            .max()
            .unwrap_or(0);
        let depth = opts.prefetch.max(1);
        let ring = Arc::new(Ring {
            state: Mutex::new(State {
                ready: VecDeque::with_capacity(depth),
                free: (0..depth)
                    .map(|_| Vec::with_capacity(block_edges))
                    .collect(),
                epoch: 0,
                shutdown: false,
            }),
            changed: Condvar::new(),
        });
        let shard_edges = index.edges_in(blocks.clone());
        let decoder = (!blocks.is_empty()).then(|| {
            let (ring, range) = (Arc::clone(&ring), blocks.clone());
            let raw = Vec::with_capacity(block_bytes);
            std::thread::Builder::new()
                .name("clugp-decode".into())
                .spawn(move || decode_ahead(&ring, file, raw, &index, opts.checksums, range))
                .expect("spawn the decode thread")
        });
        PipelinedPackStream {
            ring,
            decoder,
            path,
            header,
            blocks: blocks.len(),
            block_edges,
            shard_edges,
            taken: 0,
            decoded: Vec::new(),
            pos: 0,
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

    /// Takes the next decoded block, handing back the drained buffer.
    /// Returns `false` at range end or once an error has parked.
    fn load_next_block(&mut self) -> bool {
        if self.error.is_some() || self.taken == self.blocks {
            return false;
        }
        // The consumer's own buffer is sized at its first take, where the
        // serial reader sizes its one. Sized at open instead, it sat below
        // the partitioner's first tables, and in a process that had freed a
        // large buffer before (glibc then serves big requests from the
        // heap) CLUGP's later tables fragmented around it: web-clugp's
        // second pipeline peaked 3–5 MiB higher.
        self.decoded.clear();
        self.decoded.reserve(self.block_edges);
        let ring = &*self.ring;
        let mut state = ring.lock();
        if state.ready.is_empty() {
            drop(state);
            // Decode ran behind the consumer: this wait is the pipeline's
            // stall, credited to the calling thread so the AMPC worker can
            // report it per stage.
            let waited = Instant::now();
            state = ring.wait(|s| !s.ready.is_empty());
            clugp_obs::stall::add_decode_stall(waited.elapsed().as_nanos() as u64);
        }
        let Slot { edges, error } = state.ready.pop_front().expect("waited for a block");
        state.free.push(std::mem::replace(&mut self.decoded, edges));
        drop(state);
        ring.changed.notify_all();
        self.taken += 1;
        self.pos = 0;
        match error {
            None => true,
            Some(e) => {
                // A block that failed mid-decode leaves a partial buffer:
                // drop it, so pulls past the early end keep lending nothing.
                self.decoded.clear();
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
    /// Rewinds to the first block of this stream's range: the decode thread
    /// abandons the pass in flight and starts over.
    ///
    /// # Errors
    ///
    /// Reports (and clears) the decode/IO error that ended the previous
    /// pass early.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.taken = 0;
        self.decoded.clear();
        self.pos = 0;
        self.ring.publish(|s| {
            s.epoch += 1;
            let State { ready, free, .. } = s;
            free.extend(ready.drain(..).map(|slot| slot.edges));
        });
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for PipelinedPackStream {
    fn drop(&mut self) {
        // No panic here: a lock poisoned by a panicking decode thread still
        // takes the flag, which no half-done update can invalidate.
        let mut state = self
            .ring
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.shutdown = true;
        drop(state);
        self.ring.changed.notify_all();
        if let Some(decoder) = self.decoder.take() {
            // A decode thread that panicked has nothing left to report.
            let _ = decoder.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_ahead_needs_a_second_cpu() {
        assert_eq!(DecodeOptions::for_cpus(1).threads, 0);
        assert_eq!(DecodeOptions::for_cpus(2).threads, 1);
        assert_eq!(DecodeOptions::for_cpus(64).threads, 1);
        let serial = DecodeOptions::for_cpus(1);
        assert_eq!(serial.prefetch, DEFAULT_PREFETCH_BLOCKS);
        assert_eq!(serial.checksums, ChecksumPolicy::Full);
        assert!(!serial.decodes_ahead());
        assert!(DecodeOptions::for_cpus(2).decodes_ahead());
    }
}
