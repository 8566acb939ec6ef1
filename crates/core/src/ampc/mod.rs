//! Coordinator/worker distributed partitioning (AMPC-style).
//!
//! This module shards the streaming placement pipeline across workers
//! behind a transport-agnostic state service (ROADMAP item 5):
//!
//! * [`table`] — the keyspace-sharded state tables ([`table::StateShard`]
//!   over [`crate::vertex_table::VertexTable`], routed by
//!   [`table::Layout`]) exposing get / upsert-batch / scan.
//! * [`worker`] — owns a contiguous range of the edge stream and drives
//!   the *same per-edge kernels as the monolith*: a one-pass baseline pages
//!   its O(nk/64) rows through the shards, fetching remote ones in one batch
//!   per admission window; a CLUGP stage is lent or cast its O(n) tables
//!   whole.
//! * [`coordinator`] — splits the stream, sequences passes as barriers,
//!   relays cross-worker state traffic (star topology), casts read-only
//!   tables, runs the coordinator-side CLUGP stages (compaction, cluster
//!   graph, game), and assembles the final
//!   [`crate::partition::Partitioning`].
//! * [`transport`] / [`proto`] / [`wire`] — the exchange: in-process
//!   bounded channels or length-prefixed Unix sockets carrying the same
//!   hand-rolled little-endian frames.
//!
//! Execution model: within each pass that writes shared state the workers
//! run **sequenced** by default — a streaming token travels worker 0‥N−1, so
//! exactly one worker streams edges at a time while the others answer state
//! requests (baselines) or wait for the state to come down the turns (CLUGP
//! pass 1). That is what makes every configuration (any worker count,
//! any chunk size, either transport) bit-identical to the monolithic
//! partitioner, which is the correctness anchor
//! `tests/distributed_equivalence.rs` pins. [`AmpcMode::Relaxed`] trades
//! that anchor for concurrency: workers stream their ranges
//! simultaneously against worker-local tables and reconcile at periodic
//! epoch barriers with commutative merges, so score reads may be stale
//! within an epoch but the output is still deterministic for a fixed
//! worker count. See DESIGN.md §7 for the sequenced contract and §11 for
//! the consistency dial.

pub mod algo;
pub mod checkpoint;
pub mod coordinator;
pub mod fault;
pub mod proto;
pub mod table;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{run_coordinator, DistOutcome, Respawner};
pub use fault::{FaultAction, FaultInjectingTransport, FaultPlan, FaultScript};
pub use table::{Layout, MergeOp, StateShard};
pub use transport::{channel_pair, NetStats, Transport, UnixTransport, MAX_FRAME_BYTES};
pub use worker::run_worker;

use crate::error::{PartitionError, Result};
use clugp_graph::pack::ShardedPackReader;
use clugp_graph::types::Edge;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How workers make progress within a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmpcMode {
    /// The streaming token travels worker 0‥N−1; exactly one worker
    /// streams at a time and every remote read sees the freshest state.
    /// Bit-identical to the monolith at any worker count.
    #[default]
    Sequenced,
    /// All workers stream concurrently against worker-local tables and
    /// exchange commutative deltas at epoch barriers. Scores may be read
    /// stale within an epoch; output is deterministic for a fixed worker
    /// count but drifts from the monolith (measured by `experiments
    /// ampc`).
    Relaxed,
}

impl AmpcMode {
    /// Wire tag for this mode.
    pub fn tag(self) -> u8 {
        match self {
            AmpcMode::Sequenced => 0,
            AmpcMode::Relaxed => 1,
        }
    }

    /// Decodes a wire tag; `None` for unknown tags.
    pub fn from_tag(t: u8) -> Option<AmpcMode> {
        Some(match t {
            0 => AmpcMode::Sequenced,
            1 => AmpcMode::Relaxed,
            _ => return None,
        })
    }

    /// Human-readable name as accepted by `--ampc-mode`.
    pub fn name(self) -> &'static str {
        match self {
            AmpcMode::Sequenced => "sequenced",
            AmpcMode::Relaxed => "relaxed",
        }
    }
}

/// Which transport a distributed run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process bounded channels (default).
    Channel,
    /// Unix stream sockets (exercises the multi-process framing; workers
    /// still run as threads here — `clugp-part --workers N` spawns real
    /// processes).
    Unix,
}

/// Worker supervision policy: how long a silent worker may stay silent,
/// and how many times the coordinator will replay a pass from the last
/// committed checkpoint before giving up.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Maximum silence from an active worker before the link is declared
    /// dead ([`crate::error::FaultKind::Timeout`]). `None` disables
    /// deadlines: a dead worker then only surfaces through EOF/hangup.
    pub worker_timeout: Option<Duration>,
    /// Recovery attempts per run (0 = supervision off: any fault is
    /// fatal, matching the pre-supervision engine exactly).
    pub max_retries: u32,
    /// Base back-off before the first retry; doubles per retry.
    pub backoff: Duration,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            worker_timeout: None,
            max_retries: 0,
            backoff: Duration::from_millis(200),
        }
    }
}

impl SuperviseConfig {
    /// Deadline used when supervision needs a bound even if the user gave
    /// none (probing a possibly-dead worker must not hang).
    pub fn effective_timeout(&self) -> Duration {
        self.worker_timeout.unwrap_or(Duration::from_secs(30))
    }

    /// Heartbeat interval workers are configured with: a quarter of the
    /// timeout, so a healthy-but-quiet worker ticks well inside it.
    pub(crate) fn heartbeat_ms(&self) -> u32 {
        match self.worker_timeout {
            Some(t) => ((t.as_millis() / 4).clamp(5, u128::from(u32::MAX))) as u32,
            None => 0,
        }
    }
}

/// Distributed run parameters.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker count (≥ 1).
    pub workers: u32,
    /// Exchange flavor.
    pub transport: TransportKind,
    /// Streaming chunk size in edges (0 = the stream default).
    pub chunk_edges: usize,
    /// Worker supervision / recovery policy.
    pub supervise: SuperviseConfig,
    /// Scripted transport faults (tests and the bench fault leg only).
    pub faults: FaultPlan,
    /// Where barrier checkpoints are persisted (`CLUGPCK1` files). With
    /// supervision enabled but no directory, checkpoints stay in memory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`
    /// instead of starting from the first pass.
    pub resume: bool,
    /// Progress model within a pass (sequenced token vs relaxed epochs).
    pub mode: AmpcMode,
    /// Relaxed mode only: chunks a worker streams between epoch barriers
    /// (0 = the default of 8). Smaller epochs mean fresher scores and
    /// more exchange; sequenced mode ignores this.
    pub epoch_chunks: u32,
    /// Record observability spans/instants on the coordinator and every
    /// worker and merge them into [`DistOutcome::trace`] (DESIGN.md §12).
    /// Off by default; placement decisions are unaffected either way.
    pub trace: bool,
}

/// Default number of chunks per relaxed-mode epoch.
pub const DEFAULT_EPOCH_CHUNKS: u32 = 8;

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 1,
            transport: TransportKind::Channel,
            chunk_edges: 0,
            supervise: SuperviseConfig::default(),
            faults: FaultPlan::default(),
            checkpoint_dir: None,
            resume: false,
            mode: AmpcMode::Sequenced,
            epoch_chunks: 0,
            trace: false,
        }
    }
}

/// The edge stream for a distributed run.
#[derive(Debug, Clone, Copy)]
pub enum DistInput<'a> {
    /// An in-memory edge list in stream order.
    Edges {
        /// Vertex-count hint.
        num_vertices: u64,
        /// The edges.
        edges: &'a [Edge],
    },
    /// An on-disk CLUGPZ pack; workers open their own block ranges. Note
    /// pack streams replay in canonical (pack) order, so compare against a
    /// monolith run over the same pack stream.
    Pack(&'a Path),
}

/// Runs `algo` over `input` with `cfg.workers` workers.
///
/// Channel transport hosts workers on plain threads with bounded-channel
/// pipes; Unix transport uses socketpairs with the same length-prefixed
/// framing as multi-process mode. Either way the coordinator runs on the
/// calling thread.
pub fn run_distributed(
    algo: &coordinator::DistAlgo,
    input: DistInput<'_>,
    k: u32,
    cfg: &DistConfig,
) -> Result<DistOutcome> {
    if cfg.workers == 0 {
        return Err(PartitionError::InvalidParam(
            "worker count must be at least 1".into(),
        ));
    }
    // Plain threads, not a rayon scope: worker serve loops block on recv,
    // which would starve the shared pool the solvers run waves on.
    std::thread::scope(|scope| {
        // One link = one worker thread. The same constructor serves both
        // the initial fleet and supervisor respawns: a respawned worker is
        // simply a fresh thread on a fresh pipe (the replaced thread sees
        // its coordinator end drop, errors out, and exits).
        let spawn_link = |i: u32| -> Result<Box<dyn Transport>> {
            match cfg.transport {
                TransportKind::Channel => {
                    let (c, w) = channel_pair(64);
                    scope.spawn(move || {
                        if let Err(e) = run_worker(Box::new(w)) {
                            // The coordinator sees the matching hangup/Err
                            // and surfaces its own error; this is just a
                            // trace aid.
                            eprintln!("ampc worker {i} failed: {e}");
                        }
                    });
                    Ok(Box::new(c))
                }
                TransportKind::Unix => {
                    let (c, w) = UnixTransport::pair()?;
                    scope.spawn(move || {
                        if let Err(e) = run_worker(Box::new(w)) {
                            eprintln!("ampc worker {i} failed: {e}");
                        }
                    });
                    Ok(Box::new(c))
                }
            }
        };
        let mut coord_ends: Vec<Box<dyn Transport>> = Vec::with_capacity(cfg.workers as usize);
        for i in 0..cfg.workers {
            coord_ends.push(spawn_link(i)?);
        }
        let mut respawn = |i: u32| spawn_link(i);
        run_coordinator(coord_ends, algo, input, k, cfg, Some(&mut respawn))
    })
}

/// Splits `total` edges into `workers` contiguous ranges (first `total %
/// workers` ranges get one extra edge). Returns half-open `(start, end)`
/// pairs covering `0..total` in order.
pub fn split_ranges(total: u64, workers: u32) -> Vec<(u64, u64)> {
    let w = u64::from(workers.max(1));
    let base = total / w;
    let extra = total % w;
    let mut out = Vec::with_capacity(workers.max(1) as usize);
    let mut start = 0;
    for i in 0..w {
        let len = base + u64::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Builds per-worker [`proto::InputSpec`]s for a pack file, handing each
/// worker a contiguous block range (padding with empty ranges when the
/// pack has fewer blocks than workers) and this process's
/// [`clugp_graph::pack::decode_options`], read here once.
pub fn pack_input_specs(path: &Path, workers: u32) -> Result<Vec<proto::InputSpec>> {
    let reader = ShardedPackReader::open(path)?;
    let shards = reader.shards(workers.max(1) as usize);
    let decode = clugp_graph::pack::decode_options();
    let spec = |blocks: std::ops::Range<usize>, edges| proto::InputSpec::Pack {
        path: path.to_string_lossy().into_owned(),
        block_start: blocks.start as u64,
        block_end: blocks.end as u64,
        edges,
        decode,
    };
    let mut specs: Vec<proto::InputSpec> = shards
        .iter()
        .map(|s| spec(s.blocks.clone(), s.edges))
        .collect();
    let blocks = reader.index().num_blocks();
    specs.resize_with(specs.len().max(workers as usize), || {
        spec(blocks..blocks, 0)
    });
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_and_balance() {
        assert_eq!(split_ranges(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(split_ranges(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(split_ranges(0, 2), vec![(0, 0), (0, 0)]);
    }
}
