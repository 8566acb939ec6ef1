//! Coordinator/worker distributed partitioning (AMPC-style).
//!
//! This module shards CLUGP's three passes across workers — the paper adapts
//! its own steps to a parallel mechanism, and the engine runs those and
//! nothing else: any other [`coordinator::DistAlgo`] is refused with
//! [`PartitionError::InvalidParam`] before a worker is spawned or
//! configured, and the one-pass baselines run as their monoliths.
//!
//! * [`worker`] — streams a contiguous range of the edges, opened once,
//!   through the *same per-edge steps as the monolith* against whole,
//!   dense tables: pass 1, which writes them, is lent them by the turn
//!   before; a stage that only reads them is cast them.
//! * [`coordinator`] — splits the stream (a pack by an edge-balanced cut of
//!   its block index), sequences passes as barriers,
//!   forwards each turn's state to the next turn, casts read-only tables,
//!   runs the coordinator-side CLUGP stages (compaction, cluster graph,
//!   game), and assembles the final [`crate::partition::Partitioning`].
//! * [`transport`] / [`proto`] / [`wire`] — the exchange: in-process
//!   bounded channels ([`run_distributed`]'s worker threads) or
//!   length-prefixed Unix sockets (`clugp-part --transport unix`'s worker
//!   processes) carrying the same hand-rolled little-endian frames.
//!
//! Execution model: within each pass that writes shared state the workers
//! run **sequenced** by default — a streaming token travels worker 0‥N−1, so
//! exactly one worker streams edges at a time while the others wait for the
//! state to come down the turns. That is what makes every configuration (any
//! worker count, any pack block size, either transport) bit-identical to the
//! monolithic CLUGP, which is the correctness anchor
//! `tests/distributed_equivalence.rs` pins. [`AmpcMode::Relaxed`] trades
//! that anchor for concurrency: pass 1 clusters every range at once and the
//! coordinator merges the frontiers, and the transform caps each worker at a
//! slice of the load cap. The output is still deterministic for a fixed
//! worker count. See DESIGN.md §7 for the sequenced contract and §11 for the
//! relaxed one.

pub mod algo;
pub mod checkpoint;
pub mod coordinator;
pub mod fault;
pub mod proto;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{run_coordinator, DistOutcome, Respawner};
pub use fault::{FaultAction, FaultInjectingTransport, FaultPlan, FaultScript};
pub use transport::{channel_pair, NetStats, Transport, UnixTransport, MAX_FRAME_BYTES};
pub use worker::run_worker;

use crate::error::{PartitionError, Result};
use clugp_graph::pack::{PackIndex, PackedEdgeStream};
use clugp_graph::types::Edge;
use std::ops::Range;
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
    /// Every worker runs pass 1 over its range at once against its own
    /// tables, the coordinator merges the frontiers, and the transform caps
    /// each worker at an even slice of the load cap. Output is deterministic
    /// for a fixed worker count but drifts from the monolith.
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
    /// Worker supervision / recovery policy.
    pub supervise: SuperviseConfig,
    /// Scripted transport faults (tests only).
    pub faults: FaultPlan,
    /// Where barrier checkpoints are persisted (`CLUGPCK1` files). With
    /// supervision enabled but no directory, checkpoints stay in memory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`
    /// instead of starting from the first pass.
    pub resume: bool,
    /// Progress model within a pass (sequenced token, or relaxed).
    pub mode: AmpcMode,
    /// Record observability spans/instants on the coordinator and every
    /// worker and merge them into [`DistOutcome::trace`] (DESIGN.md §12).
    /// Off by default; placement decisions are unaffected either way.
    pub trace: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 1,
            supervise: SuperviseConfig::default(),
            faults: FaultPlan::default(),
            checkpoint_dir: None,
            resume: false,
            mode: AmpcMode::Sequenced,
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

/// Runs `algo` — CLUGP; any other algorithm is refused before a worker is
/// spawned — over `input` with `cfg.workers` workers.
///
/// The workers run on plain threads, each linked to the coordinator, which
/// runs on the calling thread, by a [`channel_pair`]. Worker processes over
/// Unix sockets are `clugp-part --transport unix`'s, which drives
/// [`run_coordinator`] itself.
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
    coordinator::engine_config(algo)?;
    // One scoped thread per worker for the whole run: each serve loop
    // blocks on recv until the coordinator shuts it down.
    std::thread::scope(|scope| {
        // One link = one worker thread. The same constructor serves both
        // the initial fleet and supervisor respawns: a respawned worker is
        // simply a fresh thread on a fresh pipe (the replaced thread sees
        // its coordinator end drop, errors out, and exits).
        let spawn_link = |i: u32| -> Result<Box<dyn Transport>> {
            let (coord, worker) = channel_pair(64);
            scope.spawn(move || {
                if let Err(e) = run_worker(Box::new(worker)) {
                    // The coordinator sees the matching hangup/Err and
                    // surfaces its own error; this is just a trace aid.
                    eprintln!("ampc worker {i} failed: {e}");
                }
            });
            Ok(Box::new(coord))
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

/// Cuts a pack's blocks into at most `want` contiguous ranges balanced by
/// edge count, as `(blocks, edges)` covering `total` edges: never an empty
/// range, and fewer ranges when the pack has fewer blocks than `want`.
fn block_cut(index: &PackIndex, total: u64, want: usize) -> Vec<(Range<usize>, u64)> {
    let want = want.max(1);
    let num_blocks = index.num_blocks();
    let mut cut = Vec::new();
    let mut start = 0usize;
    let mut covered = 0u64;
    for s in 0..want {
        if start >= num_blocks {
            break;
        }
        // Edge-count boundary this range should reach (cumulative), so
        // imbalance never exceeds one block.
        let boundary = total * (s as u64 + 1) / want as u64;
        let mut end = start;
        let mut edges = 0u64;
        while end < num_blocks && (covered + edges < boundary || end == start) {
            edges += u64::from(index.entries()[end].edge_count);
            end += 1;
        }
        // The last range sweeps any remainder.
        if s == want - 1 {
            while end < num_blocks {
                edges += u64::from(index.entries()[end].edge_count);
                end += 1;
            }
        }
        covered += edges;
        cut.push((start..end, edges));
        start = end;
    }
    cut
}

/// Opens the pack at `path` once and builds from it per-worker
/// [`proto::InputSpec`]s, handing each worker a contiguous block range of
/// [`block_cut`] (padding with empty ranges when the pack has fewer blocks
/// than workers); returns them after the header's vertex and edge counts.
/// Each worker reads its range serially: the coordinator's CPU count says
/// nothing of a spare core per worker.
fn pack_input_specs(path: &Path, workers: u32) -> Result<(u64, u64, Vec<proto::InputSpec>)> {
    let pack = PackedEdgeStream::open(path)?;
    let header = pack.header();
    let spec = |blocks: Range<usize>, edges| proto::InputSpec::Pack {
        path: path.to_string_lossy().into_owned(),
        block_start: blocks.start as u64,
        block_end: blocks.end as u64,
        edges,
    };
    let mut specs: Vec<proto::InputSpec> =
        block_cut(pack.index(), header.num_edges, workers as usize)
            .into_iter()
            .map(|(blocks, edges)| spec(blocks, edges))
            .collect();
    let blocks = pack.index().num_blocks();
    specs.resize_with(specs.len().max(workers as usize), || {
        spec(blocks..blocks, 0)
    });
    Ok((header.num_vertices, header.num_edges, specs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clugp_graph::pack::{canonical_order, write_pack, PackOptions};
    use clugp_graph::stream::{collect_stream, EdgeStream, RestreamableStream};

    #[test]
    fn ranges_cover_and_balance() {
        assert_eq!(split_ranges(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(split_ranges(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(split_ranges(0, 2), vec![(0, 0), (0, 0)]);
    }

    /// Clustered dsts with duplicates and self-loops sprinkled in.
    fn web_like(m: u32) -> Vec<Edge> {
        (0..m)
            .map(|i| {
                let src = i / 7;
                let dst = (src + (i * 31) % 17) % (m / 7 + 1);
                Edge::new(src, dst)
            })
            .collect()
    }

    /// `edges` packed into blocks of `block_bytes`, at `name` under the
    /// temporary directory, opened whole.
    fn packed(edges: &[Edge], block_bytes: usize, name: &str) -> PackedEdgeStream {
        let dir = std::env::temp_dir().join("clugp_ampc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let opts = PackOptions {
            block_bytes,
            ..Default::default()
        };
        write_pack(&path, 0, edges, &opts).unwrap();
        PackedEdgeStream::open(&path).unwrap()
    }

    #[test]
    fn sharded_reader_covers_the_pack_exactly_once() {
        let edges = web_like(5_000);
        let pack = packed(&edges, 512, "shards.clugpz");
        let (path, blocks) = (pack.path(), pack.index().num_blocks());
        let want = canonical_order(&edges);
        for want_shards in [1usize, 2, 3, 8, 1000] {
            let cut = block_cut(pack.index(), pack.header().num_edges, want_shards);
            assert!(!cut.is_empty());
            assert!(cut.len() <= want_shards);
            assert!(cut.iter().all(|(b, _)| !b.is_empty()), "no empty shards");
            // Contiguous cover.
            assert_eq!(cut[0].0.start, 0);
            assert_eq!(cut.last().unwrap().0.end, blocks);
            for w in cut.windows(2) {
                assert_eq!(w[0].0.end, w[1].0.start);
            }
            let mut all = Vec::new();
            for (range, edges) in &cut {
                let mut s = PackedEdgeStream::open_blocks(path, range.clone()).unwrap();
                assert_eq!(s.len_hint(), Some(*edges));
                let part = collect_stream(&mut s);
                assert_eq!(part.len() as u64, *edges);
                all.extend(part);
            }
            assert_eq!(all, want, "want_shards={want_shards}");
        }
        // The padding ranges of a pack with fewer blocks than workers, and
        // a range past the end, open as empty streams.
        for range in [blocks..blocks, blocks..blocks + 3, blocks + 2..blocks + 1] {
            let mut s = PackedEdgeStream::open_blocks(path, range.clone()).unwrap();
            assert_eq!(s.len_hint(), Some(0), "{range:?}");
            assert!(collect_stream(&mut s).is_empty(), "{range:?}");
            s.reset().unwrap();
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shards_are_balanced_by_edges() {
        let edges = web_like(20_000);
        let pack = packed(&edges, 256, "balance.clugpz");
        let cut = block_cut(pack.index(), pack.header().num_edges, 4);
        assert_eq!(cut.len(), 4);
        let total: u64 = cut.iter().map(|(_, e)| e).sum();
        assert_eq!(total, edges.len() as u64);
        let target = total as f64 / 4.0;
        for s in &cut {
            // Imbalance bounded by one block (≤ ~128 edges at 256 B).
            assert!(
                (s.1 as f64 - target).abs() <= 300.0,
                "shard {s:?} vs target {target}"
            );
        }
        std::fs::remove_file(pack.path()).ok();
    }
}
