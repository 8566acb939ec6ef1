//! Decode-ahead: a pack stream whose blocks decode on one thread running
//! ahead of the consumer, and on the consumer too whenever it would
//! otherwise wait, so partitioning no longer waits on the codec.
//!
//! # Shape
//!
//! ```text
//!                 claim the next unclaimed block
//!                ╱                              ╲
//! decode thread ──▶ ready blocks, by index ──▶ consumer ──▶ chunks
//!       ▲                                       │  decodes an unclaimed
//!       └── free buffers ◀── the drained one ───┘  block when it would wait
//! ```
//!
//! Blocks are claimed in index order from one counter, by whichever side
//! gets there first; both decode through the serial reader's `load_block`
//! with [`ChecksumPolicy::Full`], reading one shared file handle
//! positionally.
//! - The decode thread claims the next block whenever a buffer is free, at
//!   most `prefetch` ahead.
//! - The consumer takes its next block if it is decoded, handing back the
//!   buffer it has drained. If nobody has claimed it, it decodes it itself
//!   into its own buffer. If the decode thread holds it, the consumer
//!   decodes the next unclaimed block into a free buffer and publishes it.
//!
//! A pass the consumer bounds (CLUGP's clustering and transform, HDRF)
//! always finds its block decoded and never decodes; a pass the decode
//! bounds (DBH, CLUGP's cluster graph, the placement replay) decodes on
//! both CPUs. The thread that opens the stream allocates the `prefetch`
//! buffers (sized for the pack's largest block), both raw-byte scratches
//! and the file handle, and the consumer sizes its own buffer at its first
//! take, so every pass after the first runs allocation-free
//! (`tests/steady_state_alloc.rs`). Memory stays O(prefetch × block) however
//! large the pack is (the Sanders/Schulz semi-external discipline).
//!
//! # Who decodes ahead
//!
//! [`crate::io::open_edge_stream`] opens this stream wherever the process
//! may run on a second CPU ([`decodes_ahead`]) and the serial
//! [`super::PackedEdgeStream`] everywhere else; nothing else picks a
//! reader, and both check every CRC. The block ranges of AMPC workers read
//! serially: W workers would start W decode threads on CPUs counted for
//! one stream.
//!
//! # Hand-off
//!
//! Both sides share one mutex-guarded state (decoded blocks by index, free
//! buffers, the claim counter, the epoch) and one condvar, and hold the
//! lock only to claim, publish or take, never to decode. A wait looks at
//! the state a fixed number of times, yielding the CPU in between, and
//! only then sleeps: in steady state the other side publishes within the
//! spin, and a wake-up across vCPUs can stall for milliseconds — a pipeline
//! that sleeps on every hand-off loses to the serial reader on two vCPUs.
//! The yield lets the other side run when the scheduler has put both on
//! one CPU; there the consumer finds most blocks unclaimed and the stream
//! reads like the serial reader.
//!
//! # Ordering guarantee
//!
//! Blocks may finish in any order, but the consumer takes them by block
//! index, so the chunk sequence out of [`EdgeStream::next_chunk`] is
//! byte-identical to the serial [`super::PackedEdgeStream`] at every ring
//! depth, whichever side decoded each block — pinned by
//! `tests/pipelined_equivalence.rs`.
//!
//! # Failure contract
//!
//! A read, checksum or decode failure, on either side, is published in
//! place of the block that failed and stops all further claims. Blocks
//! before it still stream in order; the consumer parks the error at that
//! block, the stream ends early, and the next [`RestreamableStream::reset`]
//! reports it — the same park-error/reset-reports contract as every other
//! file-backed stream in this crate, held across threads. A reset bumps the
//! epoch and sets the claim counter back to the pack's first block; a
//! block the decode thread finishes for an older epoch goes back to the
//! free buffers unread.

use super::checksum::ChecksumPolicy;
use super::{load_block, open_validated, PackHeader, PackIndex};
use crate::error::{GraphError, Result};
use crate::stream::{EdgeStream, RestreamableStream};
use crate::types::Edge;
use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Default ring depth: blocks decoded ahead of the consumer.
pub const DEFAULT_PREFETCH_BLOCKS: usize = 4;

/// Looks a wait takes at the shared state, yielding in between, before it
/// sleeps on the condvar.
const SPINS: u32 = 200;

/// How a [`PipelinedPackStream`] decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Not consulted: a stream decodes on one thread or none, and
    /// [`crate::io::open_edge_stream`] picks which from the CPU count
    /// ([`decodes_ahead`]). It stays for the callers that name it.
    pub threads: usize,
    /// Ring depth: blocks decoded ahead of the consumer (clamped to ≥ 1).
    pub prefetch: usize,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            threads: 1,
            prefetch: DEFAULT_PREFETCH_BLOCKS,
        }
    }
}

/// Whether a process that may run on `cpus` CPUs decodes its packs ahead:
/// iff a second CPU is there to do it. On one CPU the decode thread would
/// only take turns with the consumer, spinning in between.
pub fn decodes_ahead(cpus: usize) -> bool {
    cpus >= 2
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
    /// Decoded blocks of the pass the consumer wants, keyed by block index
    /// in the order they finished.
    ready: Vec<(usize, Slot)>,
    /// Buffers for the next claimed block.
    free: Vec<Vec<Edge>>,
    /// The pass's next unclaimed block: blocks are claimed in index order,
    /// and a failed block sets it past the last one.
    claim: usize,
    /// The pass the consumer wants: bumped by every reset.
    epoch: u64,
    shutdown: bool,
}

impl State {
    fn holds(&self, block: usize) -> bool {
        self.ready.iter().any(|&(b, _)| b == block)
    }

    fn can_claim(&self, blocks: usize) -> bool {
        self.claim < blocks && !self.free.is_empty()
    }

    /// Claims the next unclaimed block along with a free buffer to decode it
    /// into; the caller checked [`State::can_claim`].
    fn claim_next(&mut self) -> (usize, Vec<Edge>) {
        let block = self.claim;
        self.claim += 1;
        (block, self.free.pop().expect("checked for a free buffer"))
    }
}

/// The pack and the state both sides share.
#[derive(Debug)]
struct Ring {
    /// The stream's one file handle, read positionally by both sides.
    file: File,
    index: PackIndex,
    state: Mutex<State>,
    /// Signalled after every change to `state` that can unblock a wait.
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

    /// Reads, checks and decodes `block` into `edges` through the scratch
    /// `raw`: the serial reader's [`load_block`], every CRC checked.
    fn decode(&self, block: usize, raw: &mut Vec<u8>, edges: &mut Vec<Edge>) -> Option<GraphError> {
        let entry = &self.index.entries()[block];
        load_block(&self.file, raw, entry, ChecksumPolicy::Full, edges).err()
    }

    /// Publishes `block`, claimed in pass `epoch`, for the consumer. A failed
    /// block stops all further claims: the consumer parks its error.
    fn deliver(&self, epoch: u64, block: usize, edges: Vec<Edge>, error: Option<GraphError>) {
        self.publish(|s| {
            if s.epoch != epoch {
                s.free.push(edges); // a reset overtook this block
                return;
            }
            if error.is_some() {
                s.claim = self.index.num_blocks();
            }
            s.ready.push((block, Slot { edges, error }));
        });
    }
}

/// The decode thread: claims the next unclaimed block whenever a buffer is
/// free, decodes it through the raw-byte scratch it is handed, and
/// publishes it; stops on shutdown.
fn decode_ahead(ring: &Ring, mut raw: Vec<u8>) {
    let blocks = ring.index.num_blocks();
    loop {
        let mut state = ring.wait(|s| s.shutdown || s.can_claim(blocks));
        if state.shutdown {
            return;
        }
        let epoch = state.epoch;
        let (block, mut edges) = state.claim_next();
        drop(state);
        let error = ring.decode(block, &mut raw, &mut edges);
        ring.deliver(epoch, block, edges, error);
    }
}

/// A resettable edge stream over a `CLUGPZ` pack whose blocks decode on one
/// thread ahead of the consumer, and on the consumer whenever it would wait.
///
/// Drop-in equivalent of [`super::PackedEdgeStream`]: same chunk sequence,
/// same hints, same park-error/reset contract — see the module docs for the
/// ring and the hand-off. Dropping the stream joins the decode thread.
#[derive(Debug)]
pub struct PipelinedPackStream {
    ring: Arc<Ring>,
    /// `None` over an empty pack, which has nothing to decode.
    decoder: Option<JoinHandle<()>>,
    header: PackHeader,
    blocks: usize,
    /// Edges of the pack's largest block.
    block_edges: usize,
    /// Blocks taken this pass.
    taken: usize,
    decoded: Vec<Edge>,
    pos: usize,
    /// The consumer's raw-byte scratch, for the blocks it decodes itself.
    raw: Vec<u8>,
    error: Option<GraphError>,
}

impl PipelinedPackStream {
    /// Opens `path`, validated with every CRC checked, and starts decoding
    /// its blocks ahead, `opts.prefetch` deep.
    pub fn open(path: &Path, opts: DecodeOptions) -> Result<Self> {
        let (file, header, index) = open_validated(path, ChecksumPolicy::Full)?;
        let entries = index.entries();
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
        let blocks = entries.len();
        let depth = opts.prefetch.max(1);
        let ring = Arc::new(Ring {
            file,
            index,
            state: Mutex::new(State {
                ready: Vec::with_capacity(depth),
                free: (0..depth)
                    .map(|_| Vec::with_capacity(block_edges))
                    .collect(),
                claim: 0,
                epoch: 0,
                shutdown: false,
            }),
            changed: Condvar::new(),
        });
        let decoder = (blocks > 0).then(|| {
            let ring = Arc::clone(&ring);
            let raw = Vec::with_capacity(block_bytes);
            // Unnamed: a named thread copies its name as it starts, which
            // may fall in a later pass that must allocate nothing.
            std::thread::Builder::new()
                .spawn(move || decode_ahead(&ring, raw))
                .expect("spawn the decode thread")
        });
        Ok(PipelinedPackStream {
            ring,
            decoder,
            header,
            blocks,
            block_edges,
            taken: 0,
            decoded: Vec::new(),
            pos: 0,
            raw: Vec::with_capacity(block_bytes),
            error: None,
        })
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

    /// Loads the next block: takes it decoded, handing back the drained
    /// buffer, or decodes it here if nobody has claimed it. While the decode
    /// thread holds it, decodes the next unclaimed block for the ring.
    /// Returns `false` at the end of the pack or once an error has parked.
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
        let (ring, want, blocks) = (&*self.ring, self.taken, self.blocks);
        let error = loop {
            let mut state = ring.wait(|s| s.holds(want) || s.claim == want || s.can_claim(blocks));
            if let Some(at) = state.ready.iter().position(|&(b, _)| b == want) {
                let (_, Slot { edges, error }) = state.ready.swap_remove(at);
                state.free.push(std::mem::replace(&mut self.decoded, edges));
                drop(state);
                ring.changed.notify_all();
                break error;
            }
            if state.claim == want {
                // Nobody has claimed it: decode it here, into this buffer.
                state.claim += 1;
                drop(state);
                let error = ring.decode(want, &mut self.raw, &mut self.decoded);
                if error.is_some() {
                    ring.lock().claim = blocks;
                }
                break error;
            }
            // The decode thread holds it: decode the next unclaimed block
            // for the ring meanwhile, then look again.
            let epoch = state.epoch;
            let (block, mut edges) = state.claim_next();
            drop(state);
            let error = ring.decode(block, &mut self.raw, &mut edges);
            ring.deliver(epoch, block, edges, error);
        };
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
        Some(self.header.num_edges)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.header.num_vertices)
    }
}

impl RestreamableStream for PipelinedPackStream {
    /// Rewinds to the pack's first block: the block in flight on the decode
    /// thread is dropped, and claims start over at block 0.
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
            s.claim = 0;
            let State { ready, free, .. } = s;
            free.extend(ready.drain(..).map(|(_, slot)| slot.edges));
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
        assert!(!decodes_ahead(1));
        assert!(decodes_ahead(2));
        assert!(decodes_ahead(64));
    }
}
