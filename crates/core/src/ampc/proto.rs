//! Coordinator ↔ worker message set.
//!
//! Every exchange is a [`Msg`] encoded with the [`super::wire`] codec and
//! shipped as one transport frame. Outside a stage the conversation is
//! request/reply from the coordinator's point of view; while a stage runs
//! the worker drives it:
//!
//! ```text
//! coordinator → worker:  Configure, RunStage, StateReqBatch, TableCast,
//!                        Pass1Frontier, EpochSync, RouteReply, ResetTables,
//!                        Shutdown
//! worker → coordinator:  Hello, ConfigureOk, StageDone, StateRespBatch,
//!                        ResetOk, Err, and — only while running a stage —
//!                        RouteBatch, EpochDone, Pass1Frontier, Heartbeat,
//!                        TraceEvents
//! ```
//!
//! [`Msg::RouteBatch`] is the star-topology relay (DESIGN.md §11): the
//! worker holding the sequenced token asks the coordinator to forward a
//! batch to the worker owning a remote key range, as [`Msg::StateReqBatch`],
//! and gets the owner's [`Msg::StateRespBatch`] back as [`Msg::RouteReply`].
//! One frame per owner carries the gets of an admission window's
//! first-touched keys, or a slice of the stage-end writeback, for every table
//! of the group, with delta-encoded keys (varint gaps over the sorted key
//! set) and varint value runs. Pure-writeback batches are unacknowledged —
//! frame ordering through the coordinator guarantees they are applied before
//! any later dependent read — which is what lets the worker keep several of
//! them in flight behind the transport's bounded window. Only the one-pass
//! baselines route: their O(nk/64) replica rows are what paging is for.
//! (Tags 5 to 9 — `StateReq` and `StateResp`, the coordinator's own one-table
//! `Upsert` and its ack, the one-op-per-frame `Route`, and `Scan`/`ScanResp`,
//! the whole-shard dump sequenced CLUGP pass 1 ended with — are retired and
//! stay reserved.)
//!
//! CLUGP's O(n) tables are never paged; they travel whole. Pass 1 hands its
//! state on as a [`Msg::Pass1Frontier`] — every touched vertex row plus the
//! raw-cluster volumes. Sequenced, the frame rides the turn: worker *w*
//! receives the one worker *w − 1* sent (nothing for worker 0) ahead of its
//! `RunStage`, clusters its range on top of it and sends its own ahead of
//! `StageDone`; the coordinator forwards each frame as received and imports
//! the last. Relaxed, every worker starts empty and the coordinator merges
//! the frontiers. Whoever indexes with a frontier holds it to the run first.
//! From the end of pass 1 the coordinator owns the tables, and a stage that
//! only *reads* one gets it whole, ahead of its `RunStage`, as a
//! [`Msg::TableCast`] — in both modes, encoded once from the coordinator's
//! copy, and kept by the worker until `ResetTables`, so the vertex rows
//! travel once for the pairs stage and the transform: keys as zigzag varint
//! deltas (the sign keeps a non-monotone key order legal), rows as varints.
//! A cast or a frontier is one frame, so a table is bounded by the
//! transport's frame cap (DESIGN.md §11). The `Epoch*` messages belong to the
//! relaxed concurrent mode, where every worker streams at once and state is
//! reconciled at epoch barriers instead of per window.
//!
//! [`Msg::StageDone`] is laid out as: tag `4`, the [`Token`], the
//! assignments as [`PartIds`] — a width byte (1, 2 or 4: the narrowest that
//! holds `k − 1`), a `u64` count, then `count × width` little-endian id
//! bytes — and a flag byte followed by the [`PairsPayload`] when set. The
//! decoder rejects any other width byte and holds the count against the rest
//! of the frame before it copies anything; what the ids *mean* — one per edge
//! of the range, all below `k` — is the coordinator's to check, against what
//! it handed out, as are the cluster ids of a pairs partial and of a
//! [`Msg::Pass1Frontier`].
//!
//! [`Msg::TraceEvents`] is the observability side-channel (DESIGN.md
//! §12): when the run is traced, workers flush their buffered
//! [`clugp_obs::Event`]s to the coordinator just before each `StageDone`,
//! as one frame carrying a per-frame name table (each distinct event name
//! once) plus varint-packed timestamps. The frame also stamps the
//! sender's monotonic clock so the coordinator can re-base multi-process
//! lanes onto its own timeline. The verb is fire-and-forget and carries
//! no partitioning state, so tracing cannot perturb placement decisions.

use super::table::{Layout, MergeOp};
use super::wire::{Rd, Wr};
use super::AmpcMode;
use crate::baselines::{HdrfConfig, MintConfig};
use crate::error::{PartitionError, Result};
use clugp_graph::pack::{ChecksumPolicy, DecodeOptions};
use clugp_graph::types::Edge;
use clugp_obs::{Event, EventKind};

fn bad(what: &str) -> PartitionError {
    PartitionError::InvalidParam(format!("malformed protocol frame: {what}"))
}

/// One operation inside a [`Msg::RouteBatch`] / [`Msg::StateReqBatch`],
/// applied against the batch's shared key set.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp {
    /// Fetch the batch keys' rows from `table`.
    Get {
        /// Table slot index.
        table: u8,
    },
    /// Merge one flattened row per batch key into `table`.
    Put {
        /// Table slot index.
        table: u8,
        /// Word-wise combine rule.
        merge: MergeOp,
        /// Flattened rows, `keys.len() * width` words.
        vals: Vec<u64>,
    },
}

/// One table's contribution to an epoch exchange (relaxed mode): the
/// keys a worker touched this epoch and either its local deltas
/// ([`Msg::EpochDone`], folded under `merge`) or the merged authoritative
/// rows ([`Msg::EpochSync`], always overwritten).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTable {
    /// Table slot index.
    pub table: u8,
    /// How the rows fold into the committed state (`Add` deltas for
    /// counters, `BitOr` for replica masks).
    pub merge: MergeOp,
    /// Touched keys, sorted ascending.
    pub keys: Vec<u64>,
    /// Flattened rows, `keys.len() * width` words.
    pub rows: Vec<u64>,
}

/// One barrier-delimited pass over a worker's edge range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// Single-pass baselines (hashing/grid/dbh/greedy/hdrf/mint).
    Baseline,
    /// CLUGP streaming clustering (pass 1).
    ClugpPass1 {
        /// Maximum cluster volume.
        vmax: u64,
    },
    /// CLUGP cluster-graph pair aggregation (between passes 1 and 2).
    ClugpPairs {
        /// Compacted cluster count, fixed by the coordinator.
        num_clusters: u64,
    },
    /// CLUGP partition transformation (pass 3).
    ClugpTransform {
        /// Per-partition load cap `Lmax`.
        lmax: u64,
    },
}

impl Stage {
    /// Whether the stage assigns the edges it streams; the others send an
    /// empty [`PartIds`] with `StageDone`.
    pub fn assigns(self) -> bool {
        matches!(self, Stage::Baseline | Stage::ClugpTransform { .. })
    }
}

/// Streaming state threaded through the sequenced workers within one
/// stage. Exactly the scalars the monolithic loops carry between chunks;
/// a worker receives the token, runs its edge range, and returns the
/// updated token with `StageDone`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Token {
    /// Per-partition edge loads.
    pub loads: Vec<u64>,
    /// Monotone rebalance cursor (CLUGP transform).
    pub cursor: u32,
    /// Raw cluster ids allocated so far (CLUGP pass 1).
    pub next_raw: u64,
    /// Split count (CLUGP pass 1).
    pub splits: u64,
    /// Migration count (CLUGP pass 1).
    pub migrations: u64,
    /// Balance reroute count (CLUGP transform).
    pub reroutes: u64,
    /// Vertex-table watermark: `max(seen id)+1` across sequenced workers.
    pub table_len: u64,
    /// Edges carried into the next worker's range (Mint partial waves).
    pub carry: Vec<Edge>,
}

/// Sharding descriptor for one named table slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableDef {
    /// Key → worker mapping.
    pub layout: Layout,
    /// Words per row.
    pub width: u32,
}

/// Where a worker's edge range comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSpec {
    /// Edges shipped inline with the setup (channel transport, tests).
    Inline {
        /// Edges of this worker's contiguous range.
        edges: Vec<Edge>,
    },
    /// A contiguous block range of an on-disk CLUGPZ pack the worker
    /// opens itself (multi-process mode).
    Pack {
        /// Pack file path.
        path: String,
        /// First block (inclusive).
        block_start: u64,
        /// Last block (exclusive).
        block_end: u64,
        /// Edge count of the range.
        edges: u64,
        /// How to decode it: the coordinator's process-wide options, so
        /// that worker processes need no flags of their own.
        decode: DecodeOptions,
    },
}

/// Which per-edge kernel the worker runs, plus the config it needs.
/// Coordinator-only parameters (the CLUGP game, tau) stay out.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoSpec {
    /// Stateless edge hashing.
    Hashing {
        /// Hash seed.
        seed: u64,
    },
    /// Grid / constrained hashing.
    Grid {
        /// Hash seed.
        seed: u64,
    },
    /// Degree-based hashing.
    Dbh {
        /// Hash seed.
        seed: u64,
        /// Vertex-id cap.
        max_vertices: u64,
    },
    /// PowerGraph greedy.
    Greedy {
        /// Vertex-id cap.
        max_vertices: u64,
    },
    /// HDRF (on the wire: λ, ε, vertex-id cap).
    Hdrf(HdrfConfig),
    /// Mint game-theoretic batches (on the wire: batch size, wave width,
    /// threads, round cap — as `u64` — then balance weight and seed).
    Mint(MintConfig),
    /// CLUGP passes 1 and 3 (pass 2 runs at the coordinator).
    Clugp {
        /// Splitting enabled.
        splitting: bool,
        /// `MigrationPolicy` as a wire tag (0 Anchored, 1 Headroom, 2 Paper).
        migration: u8,
        /// Vertex-id cap.
        max_vertices: u64,
    },
}

/// Everything a worker needs before the first stage.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSetup {
    /// This worker's index.
    pub worker: u32,
    /// Total workers.
    pub workers: u32,
    /// Partition count.
    pub k: u32,
    /// Streaming chunk size in edges.
    pub chunk: u32,
    /// Minimum interval between keep-alive [`Msg::Heartbeat`] frames the
    /// worker emits at chunk boundaries while running a stage (0 = no
    /// heartbeats). Set by the coordinator from its supervision policy.
    pub heartbeat_ms: u32,
    /// Kernel selection.
    pub algo: AlgoSpec,
    /// Edge range source.
    pub input: InputSpec,
    /// Table slots, referenced by index in [`BatchOp`]s and casts.
    pub tables: Vec<TableDef>,
    /// Record spans/instants and flush them as [`Msg::TraceEvents`]
    /// frames before every `StageDone`. Off by default; carried in the
    /// handshake (not a CLI flag on respawned processes) so every
    /// incarnation of a worker agrees with the coordinator.
    pub trace: bool,
}

/// The partition ids a stage assigned to a worker's edge range, in stream
/// order, as `StageDone` carries them: little-endian at the narrowest of 1, 2
/// or 4 bytes per id that holds `k - 1` (1 byte up to k = 256). The in-memory
/// [`crate::partition::Partitioning`] stays `Vec<u32>`; only the frame is
/// narrow, and the coordinator widens it straight into its own vector
/// ([`PartIds::append_to`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PartIds {
    /// Bytes per id: 1, 2 or 4.
    width: u8,
    /// `len * width` id bytes.
    bytes: Vec<u8>,
}

impl PartIds {
    /// An empty run at the id width of a `k`-way partition.
    pub fn for_k(k: u32) -> PartIds {
        let width = match k.saturating_sub(1) {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            _ => 4,
        };
        PartIds {
            width,
            bytes: Vec::new(),
        }
    }

    /// `ids` at the width of a `k`-way partition.
    pub fn from_ids(k: u32, ids: &[u32]) -> PartIds {
        let mut part = PartIds::for_k(k);
        part.extend_from_slice(ids);
        part
    }

    /// Ids held.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.width as usize
    }

    /// Whether no id is held.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Appends `ids`, each of which must fit the width.
    pub fn extend_from_slice(&mut self, ids: &[u32]) {
        let width = self.width as usize;
        debug_assert!(ids.iter().all(|&p| u64::from(p) >> (8 * width) == 0));
        if width == 1 {
            self.bytes.extend(ids.iter().map(|&p| p as u8));
        } else {
            self.bytes.reserve(ids.len() * width);
            for &p in ids {
                self.bytes.extend_from_slice(&p.to_le_bytes()[..width]);
            }
        }
    }

    /// Widens the ids onto the end of `out`. An id that is not below `k`
    /// is an error and leaves `out` as it was.
    pub fn append_to(&self, k: u32, out: &mut Vec<u32>) -> Result<()> {
        let start = out.len();
        let mut max = 0u32;
        let mut note = |p: u32| {
            max = max.max(p);
            p
        };
        if self.width == 1 {
            out.extend(self.bytes.iter().map(|&b| note(u32::from(b))));
        } else {
            out.extend(self.bytes.chunks_exact(self.width as usize).map(|c| {
                let mut le = [0u8; 4];
                le[..c.len()].copy_from_slice(c);
                note(u32::from_le_bytes(le))
            }));
        }
        if max >= k {
            out.truncate(start);
            return Err(PartitionError::InvalidParam(format!(
                "partition id {max} is not below k = {k}"
            )));
        }
        Ok(())
    }

    fn put(&self, w: &mut Wr) {
        w.u8(self.width);
        w.u64(self.len() as u64);
        w.bytes(&self.bytes);
    }

    fn get(r: &mut Rd<'_>) -> Result<PartIds> {
        let width = r.u8()?;
        if !matches!(width, 1 | 2 | 4) {
            return Err(bad("partition id width"));
        }
        // `len` holds the count against what is left of the frame, so the
        // copy below is never larger than the frame itself.
        let n = r.len(width as usize)?;
        let bytes = r.take(n * width as usize)?.to_vec();
        Ok(PartIds { width, bytes })
    }
}

/// A worker's partial cluster-graph aggregation (CLUGP pairs stage).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairsPayload {
    /// Sparse intra-cluster edge counts `(cluster, count)`.
    pub intra: Vec<(u64, u64)>,
    /// Sorted, deduplicated packed pair keys `(lo<<32|hi, weight)`.
    pub agg: Vec<(u64, u32)>,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker greeting (multi-process mode identifies the socket).
    Hello {
        /// Worker index.
        worker: u32,
    },
    /// Coordinator → worker setup.
    Configure(Box<WorkerSetup>),
    /// Worker ack for `Configure`.
    ConfigureOk,
    /// Run one stage over the worker's edge range.
    RunStage {
        /// Stage selector.
        stage: Stage,
        /// Streaming state from the previous worker (sequenced mode) or
        /// the stage-start state (relaxed mode).
        token: Token,
        /// Consistency mode for this stage.
        mode: AmpcMode,
        /// Relaxed mode: chunks streamed between epoch barriers (unread in
        /// sequenced mode and by stages that do not epoch-sync).
        epoch: u32,
    },
    /// Stage finished.
    StageDone {
        /// Updated streaming state.
        token: Token,
        /// Assignments produced for this worker's edges, in stream order
        /// (empty for the stages that assign nothing).
        assignments: PartIds,
        /// Cluster-graph partials (CLUGP pairs stage only).
        pairs: Option<PairsPayload>,
    },
    /// Tear down the worker.
    Shutdown,
    /// Fatal worker-side error.
    Err {
        /// Description.
        msg: String,
    },
    /// Worker → coordinator keep-alive while a long stage chunk makes no
    /// other traffic; the coordinator's recv deadline treats it as proof
    /// of life and keeps waiting.
    Heartbeat,
    /// Coordinator → worker: drop all table shards and rebuild them
    /// empty from the configured [`TableDef`]s (recovery restores rows
    /// afterwards from a checkpoint). Doubles as the supervisor's
    /// liveness probe.
    ResetTables,
    /// Worker ack for `ResetTables`.
    ResetOk,
    /// Active worker → coordinator: forward every op in the batch to
    /// worker `to`, against the shared (delta-encoded) key set. Batches
    /// containing a `Get` are answered with one [`Msg::RouteReply`];
    /// pure-writeback batches are unacknowledged.
    RouteBatch {
        /// Target worker.
        to: u32,
        /// Shared key set, sorted ascending.
        keys: Vec<u64>,
        /// Operations against those keys.
        ops: Vec<BatchOp>,
    },
    /// Coordinator → owning worker: the relayed body of a
    /// [`Msg::RouteBatch`].
    StateReqBatch {
        /// Shared key set.
        keys: Vec<u64>,
        /// Operations against those keys.
        ops: Vec<BatchOp>,
    },
    /// Owning worker → coordinator: rows for each `Get` in the batch,
    /// concatenated in op order. Only sent when the batch held a `Get`.
    StateRespBatch {
        /// Flattened row words.
        rows: Vec<u64>,
    },
    /// Coordinator → active worker: the relayed [`Msg::StateRespBatch`].
    RouteReply {
        /// Flattened row words.
        rows: Vec<u64>,
    },
    /// Relaxed mode, worker → coordinator: this worker reached an epoch
    /// barrier; here are its per-partition load deltas and per-table
    /// local contributions since the last barrier.
    EpochDone {
        /// No more chunks after this barrier.
        last: bool,
        /// Per-partition load deltas.
        loads: Vec<u64>,
        /// Per-table touched keys + local deltas.
        tables: Vec<EpochTable>,
    },
    /// Relaxed mode, coordinator → worker: the merged global state after
    /// an epoch barrier (authoritative loads, merged rows for every key
    /// any worker touched this epoch).
    EpochSync {
        /// Every worker is done; send `StageDone` next.
        done: bool,
        /// Merged per-partition loads.
        loads: Vec<u64>,
        /// Merged rows (applied as overwrites).
        tables: Vec<EpochTable>,
    },
    /// CLUGP pass 1's state, worker → coordinator just before `StageDone`:
    /// per touched vertex a width-3 row (raw cluster id + 1 or 0, degree,
    /// divided flag) plus the raw-cluster volume table. Relaxed, it is the
    /// worker's locally-clustered frontier, for the coordinator to merge.
    /// Sequenced, it is the whole state so far, and also travels
    /// coordinator → worker: the next turn's seed, ahead of its `RunStage`.
    Pass1Frontier {
        /// Touched vertex ids, ascending.
        keys: Vec<u64>,
        /// Flattened width-3 rows.
        rows: Vec<u64>,
        /// Volume per raw cluster id.
        vol: Vec<u64>,
    },
    /// Coordinator → worker, either mode: a read-only mirror of one whole
    /// table for the next stage (the vertex rows for the CLUGP pairs stage,
    /// those and the cluster → partition map for the transform), which
    /// therefore never routes.
    TableCast {
        /// Table slot index.
        table: u8,
        /// Row keys, in the coordinator's order (ascending today).
        keys: Vec<u64>,
        /// Flattened row words.
        rows: Vec<u64>,
    },
    /// Worker → coordinator (traced runs only): the worker's buffered
    /// observability events, flushed just before `StageDone`. Carries no
    /// partitioning state; the coordinator absorbs it on any receive
    /// path and keeps waiting for the frame it actually asked for.
    TraceEvents {
        /// The sender's monotonic clock at flush time, for re-basing
        /// event timestamps onto the coordinator's clock.
        now_us: u64,
        /// Events the sender lost to its buffer cap.
        dropped: u64,
        /// The buffered events, oldest first.
        events: Vec<Event>,
    },
}

fn put_edges(w: &mut Wr, edges: &[Edge]) {
    w.u64(edges.len() as u64);
    for e in edges {
        w.u32(e.src);
        w.u32(e.dst);
    }
}

fn get_edges(r: &mut Rd<'_>) -> Result<Vec<Edge>> {
    let n = r.len(8)?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        let src = r.u32()?;
        let dst = r.u32()?;
        edges.push(Edge::new(src, dst));
    }
    Ok(edges)
}

pub(crate) fn put_token(w: &mut Wr, t: &Token) {
    w.u64s(&t.loads);
    w.u32(t.cursor);
    w.u64(t.next_raw);
    w.u64(t.splits);
    w.u64(t.migrations);
    w.u64(t.reroutes);
    w.u64(t.table_len);
    put_edges(w, &t.carry);
}

pub(crate) fn get_token(r: &mut Rd<'_>) -> Result<Token> {
    Ok(Token {
        loads: r.u64s()?,
        cursor: r.u32()?,
        next_raw: r.u64()?,
        splits: r.u64()?,
        migrations: r.u64()?,
        reroutes: r.u64()?,
        table_len: r.u64()?,
        carry: get_edges(r)?,
    })
}

pub(crate) fn put_stage(w: &mut Wr, stage: Stage) {
    match stage {
        Stage::Baseline => w.u8(0),
        Stage::ClugpPass1 { vmax } => {
            w.u8(1);
            w.u64(vmax);
        }
        Stage::ClugpPairs { num_clusters } => {
            w.u8(2);
            w.u64(num_clusters);
        }
        Stage::ClugpTransform { lmax } => {
            w.u8(3);
            w.u64(lmax);
        }
    }
}

pub(crate) fn get_stage(r: &mut Rd<'_>) -> Result<Stage> {
    Ok(match r.u8()? {
        0 => Stage::Baseline,
        1 => Stage::ClugpPass1 { vmax: r.u64()? },
        2 => Stage::ClugpPairs {
            num_clusters: r.u64()?,
        },
        3 => Stage::ClugpTransform { lmax: r.u64()? },
        _ => return Err(bad("stage tag")),
    })
}

fn put_layout(w: &mut Wr, l: Layout) {
    match l {
        Layout::Range { span } => {
            w.u8(0);
            w.u64(span);
        }
        Layout::Striped { stripe } => {
            w.u8(1);
            w.u64(stripe);
        }
    }
}

fn get_layout(r: &mut Rd<'_>) -> Result<Layout> {
    Ok(match r.u8()? {
        0 => Layout::Range { span: r.u64()? },
        1 => Layout::Striped { stripe: r.u64()? },
        _ => return Err(bad("layout tag")),
    })
}

fn put_setup(w: &mut Wr, s: &WorkerSetup) {
    w.u32(s.worker);
    w.u32(s.workers);
    w.u32(s.k);
    w.u32(s.chunk);
    w.u32(s.heartbeat_ms);
    match &s.algo {
        AlgoSpec::Hashing { seed } => {
            w.u8(0);
            w.u64(*seed);
        }
        AlgoSpec::Grid { seed } => {
            w.u8(1);
            w.u64(*seed);
        }
        AlgoSpec::Dbh { seed, max_vertices } => {
            w.u8(2);
            w.u64(*seed);
            w.u64(*max_vertices);
        }
        AlgoSpec::Greedy { max_vertices } => {
            w.u8(3);
            w.u64(*max_vertices);
        }
        AlgoSpec::Hdrf(cfg) => {
            w.u8(4);
            w.f64(cfg.lambda);
            w.f64(cfg.epsilon);
            w.u64(cfg.max_vertices);
        }
        AlgoSpec::Mint(cfg) => {
            w.u8(5);
            w.u64(cfg.batch_size as u64);
            w.u64(cfg.wave_width as u64);
            w.u64(cfg.threads as u64);
            w.u64(cfg.max_rounds as u64);
            w.f64(cfg.balance_weight);
            w.u64(cfg.seed);
        }
        AlgoSpec::Clugp {
            splitting,
            migration,
            max_vertices,
        } => {
            w.u8(6);
            w.bool(*splitting);
            w.u8(*migration);
            w.u64(*max_vertices);
        }
    }
    match &s.input {
        InputSpec::Inline { edges } => {
            w.u8(0);
            put_edges(w, edges);
        }
        InputSpec::Pack {
            path,
            block_start,
            block_end,
            edges,
            decode,
        } => {
            w.u8(1);
            w.str(path);
            w.u64(*block_start);
            w.u64(*block_end);
            w.u64(*edges);
            w.u64(decode.threads as u64);
            w.u64(decode.prefetch as u64);
            w.u8(decode.checksums.tag());
        }
    }
    w.u64(s.tables.len() as u64);
    for t in &s.tables {
        put_layout(w, t.layout);
        w.u32(t.width);
    }
    w.bool(s.trace);
}

fn get_setup(r: &mut Rd<'_>) -> Result<WorkerSetup> {
    let worker = r.u32()?;
    let workers = r.u32()?;
    let k = r.u32()?;
    let chunk = r.u32()?;
    let heartbeat_ms = r.u32()?;
    let algo = match r.u8()? {
        0 => AlgoSpec::Hashing { seed: r.u64()? },
        1 => AlgoSpec::Grid { seed: r.u64()? },
        2 => AlgoSpec::Dbh {
            seed: r.u64()?,
            max_vertices: r.u64()?,
        },
        3 => AlgoSpec::Greedy {
            max_vertices: r.u64()?,
        },
        4 => AlgoSpec::Hdrf(HdrfConfig {
            lambda: r.f64()?,
            epsilon: r.f64()?,
            max_vertices: r.u64()?,
        }),
        5 => AlgoSpec::Mint(MintConfig {
            batch_size: r.u64()? as usize,
            wave_width: r.u64()? as usize,
            threads: r.u64()? as usize,
            max_rounds: r.u64()? as usize,
            balance_weight: r.f64()?,
            seed: r.u64()?,
        }),
        6 => AlgoSpec::Clugp {
            splitting: r.bool()?,
            migration: r.u8()?,
            max_vertices: r.u64()?,
        },
        _ => return Err(bad("algo tag")),
    };
    let input = match r.u8()? {
        0 => InputSpec::Inline {
            edges: get_edges(r)?,
        },
        1 => InputSpec::Pack {
            path: r.str()?,
            block_start: r.u64()?,
            block_end: r.u64()?,
            edges: r.u64()?,
            decode: DecodeOptions {
                threads: r.u64()? as usize,
                prefetch: match r.u64()? {
                    0 => return Err(bad("prefetch of 0 blocks")),
                    d => d as usize,
                },
                checksums: ChecksumPolicy::from_tag(r.u8()?)
                    .ok_or_else(|| bad("checksum policy tag"))?,
            },
        },
        _ => return Err(bad("input tag")),
    };
    let n_tables = r.len(9)?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let layout = get_layout(r)?;
        tables.push(TableDef {
            layout,
            width: r.u32()?,
        });
    }
    let trace = r.bool()?;
    Ok(WorkerSetup {
        worker,
        workers,
        k,
        chunk,
        heartbeat_ms,
        algo,
        input,
        tables,
        trace,
    })
}

fn put_trace_events(w: &mut Wr, now_us: u64, dropped: u64, events: &[Event]) {
    w.vu64(now_us);
    w.vu64(dropped);
    // Per-frame name table: each distinct name shipped once, in
    // first-seen order; events refer to names by index. A worker emits a
    // handful of distinct names per stage, so linear lookup beats a map.
    let mut names: Vec<&str> = Vec::new();
    for e in events {
        if !names.contains(&e.name.as_str()) {
            names.push(&e.name);
        }
    }
    w.vu64(names.len() as u64);
    for name in &names {
        w.str(name);
    }
    w.vu64(events.len() as u64);
    for e in events {
        let idx = names.iter().position(|n| *n == e.name).unwrap();
        w.vu64(idx as u64);
        w.u8(e.kind.tag());
        w.vu64(e.ts_us);
        w.vu64(e.dur_us);
        w.vu64(e.arg);
    }
}

fn get_trace_events(r: &mut Rd<'_>) -> Result<(u64, u64, Vec<Event>)> {
    let now_us = r.vu64()?;
    let dropped = r.vu64()?;
    let n_names = r.vu64()?;
    if n_names > 4096 {
        return Err(bad("trace name count"));
    }
    let mut names = Vec::with_capacity(n_names as usize);
    for _ in 0..n_names {
        names.push(r.str()?);
    }
    let n_events = r.vu64()?;
    if n_events > clugp_obs::EVENT_CAP as u64 {
        return Err(bad("trace event count"));
    }
    // No capacity from the untrusted count: a lying count runs out of
    // frame bytes long before it runs out of memory.
    let mut events = Vec::new();
    for _ in 0..n_events {
        let idx = r.vu64()? as usize;
        let name = names.get(idx).ok_or_else(|| bad("trace name index"))?;
        let kind = EventKind::from_tag(r.u8()?).ok_or_else(|| bad("trace event kind"))?;
        events.push(Event {
            name: name.clone(),
            kind,
            ts_us: r.vu64()?,
            dur_us: r.vu64()?,
            arg: r.vu64()?,
        });
    }
    Ok((now_us, dropped, events))
}

fn put_batch_ops(w: &mut Wr, ops: &[BatchOp]) {
    w.vu64(ops.len() as u64);
    for op in ops {
        match op {
            BatchOp::Get { table } => {
                w.u8(0);
                w.u8(*table);
            }
            BatchOp::Put { table, merge, vals } => {
                w.u8(1);
                w.u8(*table);
                w.u8(merge.tag());
                w.vu64s(vals);
            }
        }
    }
}

fn get_batch_ops(r: &mut Rd<'_>) -> Result<Vec<BatchOp>> {
    let n = r.vu64()?;
    if n > 512 {
        // A batch touches at most a handful of tables; a larger count can
        // only be a corrupt frame.
        return Err(bad("batch op count"));
    }
    let mut ops = Vec::with_capacity(n as usize);
    for _ in 0..n {
        ops.push(match r.u8()? {
            0 => BatchOp::Get { table: r.u8()? },
            1 => {
                let table = r.u8()?;
                let merge = MergeOp::from_tag(r.u8()?).ok_or_else(|| bad("merge op"))?;
                BatchOp::Put {
                    table,
                    merge,
                    vals: r.vu64s()?,
                }
            }
            _ => return Err(bad("batch op tag")),
        });
    }
    Ok(ops)
}

fn put_epoch_tables(w: &mut Wr, tables: &[EpochTable]) {
    w.vu64(tables.len() as u64);
    for t in tables {
        w.u8(t.table);
        w.u8(t.merge.tag());
        w.delta_u64s(&t.keys);
        w.vu64s(&t.rows);
    }
}

fn get_epoch_tables(r: &mut Rd<'_>) -> Result<Vec<EpochTable>> {
    let n = r.vu64()?;
    if n > 512 {
        return Err(bad("epoch table count"));
    }
    let mut tables = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let table = r.u8()?;
        let merge = MergeOp::from_tag(r.u8()?).ok_or_else(|| bad("merge op"))?;
        tables.push(EpochTable {
            table,
            merge,
            keys: r.delta_u64s()?,
            rows: r.vu64s()?,
        });
    }
    Ok(tables)
}

fn put_pairs(w: &mut Wr, p: &PairsPayload) {
    w.u64(p.intra.len() as u64);
    for &(c, n) in &p.intra {
        w.u64(c);
        w.u64(n);
    }
    w.u64(p.agg.len() as u64);
    for &(key, weight) in &p.agg {
        w.u64(key);
        w.u32(weight);
    }
}

fn get_pairs(r: &mut Rd<'_>) -> Result<PairsPayload> {
    let n = r.len(16)?;
    let mut intra = Vec::with_capacity(n);
    for _ in 0..n {
        let c = r.u64()?;
        let cnt = r.u64()?;
        intra.push((c, cnt));
    }
    let n = r.len(12)?;
    let mut agg = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.u64()?;
        let weight = r.u32()?;
        agg.push((key, weight));
    }
    Ok(PairsPayload { intra, agg })
}

impl Msg {
    /// The message's wire name, for protocol-error reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "Hello",
            Msg::Configure(_) => "Configure",
            Msg::ConfigureOk => "ConfigureOk",
            Msg::RunStage { .. } => "RunStage",
            Msg::StageDone { .. } => "StageDone",
            Msg::Shutdown => "Shutdown",
            Msg::Err { .. } => "Err",
            Msg::Heartbeat => "Heartbeat",
            Msg::ResetTables => "ResetTables",
            Msg::ResetOk => "ResetOk",
            Msg::RouteBatch { .. } => "RouteBatch",
            Msg::StateReqBatch { .. } => "StateReqBatch",
            Msg::StateRespBatch { .. } => "StateRespBatch",
            Msg::RouteReply { .. } => "RouteReply",
            Msg::EpochDone { .. } => "EpochDone",
            Msg::EpochSync { .. } => "EpochSync",
            Msg::Pass1Frontier { .. } => "Pass1Frontier",
            Msg::TableCast { .. } => "TableCast",
            Msg::TraceEvents { .. } => "TraceEvents",
        }
    }

    /// The wire name of tag byte `tag` (the [`NetStats`] per-verb
    /// histogram slot), or `"unknown"` for out-of-protocol tags.
    ///
    /// [`NetStats`]: super::transport::NetStats
    pub fn verb_name(tag: usize) -> &'static str {
        const NAMES: [&str; 24] = [
            "Hello",
            "Configure",
            "ConfigureOk",
            "RunStage",
            "StageDone",
            "StateReq",
            "StateResp",
            "Route",
            "Scan",
            "ScanResp",
            "Shutdown",
            "Err",
            "Heartbeat",
            "ResetTables",
            "ResetOk",
            "RouteBatch",
            "StateReqBatch",
            "StateRespBatch",
            "RouteReply",
            "EpochDone",
            "EpochSync",
            "Pass1Frontier",
            "TableCast",
            "TraceEvents",
        ];
        NAMES.get(tag).copied().unwrap_or("unknown")
    }

    /// Encodes the message as one transport frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Wr::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Encodes into `buf`, reusing its allocation (per-link scratch on
    /// the relay hot path).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = Wr::from_vec(std::mem::take(buf));
        self.put(&mut w);
        *buf = w.into_bytes();
    }

    fn put(&self, w: &mut Wr) {
        match self {
            Msg::Hello { worker } => {
                w.u8(0);
                w.u32(*worker);
            }
            Msg::Configure(setup) => {
                w.u8(1);
                put_setup(w, setup);
            }
            Msg::ConfigureOk => w.u8(2),
            Msg::RunStage {
                stage,
                token,
                mode,
                epoch,
            } => {
                w.u8(3);
                put_stage(w, *stage);
                put_token(w, token);
                w.u8(mode.tag());
                w.u32(*epoch);
            }
            Msg::StageDone {
                token,
                assignments,
                pairs,
            } => {
                w.u8(4);
                put_token(w, token);
                assignments.put(w);
                match pairs {
                    Some(p) => {
                        w.bool(true);
                        put_pairs(w, p);
                    }
                    None => w.bool(false),
                }
            }
            Msg::Shutdown => w.u8(10),
            Msg::Err { msg } => {
                w.u8(11);
                w.str(msg);
            }
            Msg::Heartbeat => w.u8(12),
            Msg::ResetTables => w.u8(13),
            Msg::ResetOk => w.u8(14),
            Msg::RouteBatch { to, keys, ops } => {
                w.u8(15);
                w.u32(*to);
                w.delta_u64s(keys);
                put_batch_ops(w, ops);
            }
            Msg::StateReqBatch { keys, ops } => {
                w.u8(16);
                w.delta_u64s(keys);
                put_batch_ops(w, ops);
            }
            Msg::StateRespBatch { rows } => {
                w.u8(17);
                w.vu64s(rows);
            }
            Msg::RouteReply { rows } => {
                w.u8(18);
                w.vu64s(rows);
            }
            Msg::EpochDone {
                last,
                loads,
                tables,
            } => {
                w.u8(19);
                w.bool(*last);
                w.vu64s(loads);
                put_epoch_tables(w, tables);
            }
            Msg::EpochSync {
                done,
                loads,
                tables,
            } => {
                w.u8(20);
                w.bool(*done);
                w.vu64s(loads);
                put_epoch_tables(w, tables);
            }
            Msg::Pass1Frontier { keys, rows, vol } => {
                w.u8(21);
                w.delta_u64s(keys);
                w.vu64s(rows);
                w.vu64s(vol);
            }
            Msg::TableCast { table, keys, rows } => {
                w.u8(22);
                w.u8(*table);
                w.delta_u64s(keys);
                w.vu64s(rows);
            }
            Msg::TraceEvents {
                now_us,
                dropped,
                events,
            } => {
                w.u8(23);
                put_trace_events(w, *now_us, *dropped, events);
            }
        }
    }

    /// Whether `frame` is a [`Msg::Pass1Frontier`], by its tag byte alone:
    /// the coordinator forwards a sequenced turn's state without decoding it.
    pub fn is_pass1_frontier(frame: &[u8]) -> bool {
        frame.first() == Some(&21)
    }

    /// Decodes one frame.
    pub fn decode(buf: &[u8]) -> Result<Msg> {
        let mut r = Rd::new(buf);
        let msg = match r.u8()? {
            0 => Msg::Hello { worker: r.u32()? },
            1 => Msg::Configure(Box::new(get_setup(&mut r)?)),
            2 => Msg::ConfigureOk,
            3 => {
                let stage = get_stage(&mut r)?;
                let token = get_token(&mut r)?;
                let mode = AmpcMode::from_tag(r.u8()?).ok_or_else(|| bad("mode tag"))?;
                Msg::RunStage {
                    stage,
                    token,
                    mode,
                    epoch: r.u32()?,
                }
            }
            4 => {
                let token = get_token(&mut r)?;
                let assignments = PartIds::get(&mut r)?;
                let pairs = if r.bool()? {
                    Some(get_pairs(&mut r)?)
                } else {
                    None
                };
                Msg::StageDone {
                    token,
                    assignments,
                    pairs,
                }
            }
            10 => Msg::Shutdown,
            11 => Msg::Err { msg: r.str()? },
            12 => Msg::Heartbeat,
            13 => Msg::ResetTables,
            14 => Msg::ResetOk,
            15 => Msg::RouteBatch {
                to: r.u32()?,
                keys: r.delta_u64s()?,
                ops: get_batch_ops(&mut r)?,
            },
            16 => Msg::StateReqBatch {
                keys: r.delta_u64s()?,
                ops: get_batch_ops(&mut r)?,
            },
            17 => Msg::StateRespBatch { rows: r.vu64s()? },
            18 => Msg::RouteReply { rows: r.vu64s()? },
            19 => Msg::EpochDone {
                last: r.bool()?,
                loads: r.vu64s()?,
                tables: get_epoch_tables(&mut r)?,
            },
            20 => Msg::EpochSync {
                done: r.bool()?,
                loads: r.vu64s()?,
                tables: get_epoch_tables(&mut r)?,
            },
            21 => Msg::Pass1Frontier {
                keys: r.delta_u64s()?,
                rows: r.vu64s()?,
                vol: r.vu64s()?,
            },
            // Both counts of a table are held against what is left of the
            // frame before anything is allocated.
            22 => Msg::TableCast {
                table: r.u8()?,
                keys: r.delta_u64s()?,
                rows: r.vu64s()?,
            },
            23 => {
                let (now_us, dropped, events) = get_trace_events(&mut r)?;
                Msg::TraceEvents {
                    now_us,
                    dropped,
                    events,
                }
            }
            _ => return Err(bad("message tag")),
        };
        if !r.done() {
            return Err(bad("trailing bytes"));
        }
        Ok(msg)
    }
}

/// A `StageDone` frame written field by field, so that a test can make it
/// lie about its ids: any width byte, any count, any id bytes.
#[cfg(test)]
pub(crate) fn forged_stage_done(token: &Token, width: u8, count: u64, ids: &[u8]) -> Vec<u8> {
    let mut w = Wr::new();
    w.u8(4);
    put_token(&mut w, token);
    w.u8(width);
    w.u64(count);
    w.bytes(ids);
    w.bool(false);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let bytes = msg.encode();
        assert_eq!(Msg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Msg::Hello { worker: 3 });
        round_trip(Msg::Configure(Box::new(WorkerSetup {
            worker: 1,
            workers: 4,
            k: 8,
            chunk: 4096,
            heartbeat_ms: 250,
            algo: AlgoSpec::Hdrf(HdrfConfig {
                lambda: 1.0,
                epsilon: 1.5,
                max_vertices: 1 << 20,
            }),
            input: InputSpec::Inline {
                edges: vec![Edge::new(0, 1), Edge::new(2, 2)],
            },
            tables: vec![
                TableDef {
                    layout: Layout::Range { span: 100 },
                    width: 2,
                },
                TableDef {
                    layout: Layout::Striped { stripe: 512 },
                    width: 1,
                },
            ],
            trace: true,
        })));
        round_trip(Msg::ConfigureOk);
        round_trip(Msg::RunStage {
            stage: Stage::ClugpPass1 { vmax: 77 },
            token: Token {
                loads: vec![1, 2, 3],
                cursor: 1,
                next_raw: 9,
                splits: 2,
                migrations: 5,
                reroutes: 0,
                table_len: 44,
                carry: vec![Edge::new(7, 9)],
            },
            mode: AmpcMode::Relaxed,
            epoch: 16,
        });
        round_trip(Msg::StageDone {
            token: Token::default(),
            assignments: PartIds::from_ids(3, &[0, 1, 0, 2]),
            pairs: Some(PairsPayload {
                intra: vec![(0, 3), (5, 1)],
                agg: vec![(1 << 32 | 2, 4)],
            }),
        });
        round_trip(Msg::Shutdown);
        round_trip(Msg::Err { msg: "boom".into() });
        round_trip(Msg::Heartbeat);
        round_trip(Msg::ResetTables);
        round_trip(Msg::ResetOk);
    }

    #[test]
    fn stage_done_ids_are_as_narrow_as_k_allows_and_round_trip() {
        let frame = |assignments: PartIds| {
            Msg::StageDone {
                token: Token::default(),
                assignments,
                pairs: None,
            }
            .encode()
        };
        for (k, width) in [(1u32, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)] {
            let ids = [0, k - 1, (k - 1) / 2, 0, k - 1];
            let bytes = frame(PartIds::from_ids(k, &ids));
            assert_eq!(
                bytes.len() - frame(PartIds::for_k(k)).len(),
                ids.len() * width,
                "k = {k}"
            );
            let Msg::StageDone { assignments, .. } = Msg::decode(&bytes).unwrap() else {
                panic!("k = {k}: not a StageDone");
            };
            assert_eq!(assignments.len(), ids.len());
            // Widened onto the end of what the coordinator already holds.
            let mut out = vec![7];
            assignments.append_to(k, &mut out).unwrap();
            assert_eq!(out[0], 7);
            assert_eq!(out[1..], ids, "k = {k}");
            // An id that is not below k is refused and nothing is appended.
            let forged = PartIds::from_ids(k + 1, &[0, k]);
            let err = forged.append_to(k, &mut out).unwrap_err().to_string();
            assert!(err.contains(&format!("partition id {k}")), "{err}");
            assert_eq!(out.len(), 1 + ids.len());
        }
    }

    #[test]
    fn stage_done_rejects_foreign_widths_and_lengths_past_the_frame() {
        let forged =
            |width, count, ids: &[u8]| forged_stage_done(&Token::default(), width, count, ids);
        assert!(Msg::decode(&forged(1, 3, &[0, 1, 2])).is_ok());
        assert!(Msg::decode(&forged(2, 1, &[0, 1])).is_ok());
        for width in [0u8, 3, 5, 8, 255] {
            let err = Msg::decode(&forged(width, 1, &[0; 8])).unwrap_err();
            assert!(err.to_string().contains("partition id width"), "{err}");
        }
        // A count the frame cannot back is refused before anything is
        // copied: by the length bound when it is absurd, by the slice when
        // it is off by one.
        for count in [u64::MAX, u64::MAX / 4, 1 << 40, 5, 4] {
            assert!(
                Msg::decode(&forged(1, count, &[0, 1, 2])).is_err(),
                "{count}"
            );
            assert!(Msg::decode(&forged(4, count, &[0; 12])).is_err(), "{count}");
        }
        let good = forged(2, 3, &[0; 6]);
        for cut in 1..good.len() {
            assert!(Msg::decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn batched_relay_messages_round_trip() {
        let ops = vec![
            BatchOp::Get { table: 0 },
            BatchOp::Get { table: 1 },
            BatchOp::Put {
                table: 0,
                merge: MergeOp::Put,
                vals: vec![3, 0, u64::MAX, 17],
            },
        ];
        round_trip(Msg::RouteBatch {
            to: 2,
            keys: vec![4, 9, 10, 4000],
            ops: ops.clone(),
        });
        round_trip(Msg::StateReqBatch {
            keys: vec![0, 1],
            ops,
        });
        round_trip(Msg::StateRespBatch {
            rows: vec![1, 2, 3],
        });
        round_trip(Msg::RouteReply { rows: Vec::new() });
    }

    #[test]
    fn relaxed_mode_messages_round_trip() {
        let tables = vec![
            EpochTable {
                table: 1,
                merge: MergeOp::Add,
                keys: vec![2, 5, 6],
                rows: vec![1, 1, 4],
            },
            EpochTable {
                table: 0,
                merge: MergeOp::BitOr,
                keys: vec![9],
                rows: vec![0b1010],
            },
        ];
        round_trip(Msg::EpochDone {
            last: false,
            loads: vec![1, 0, 7],
            tables: tables.clone(),
        });
        round_trip(Msg::EpochSync {
            done: true,
            loads: vec![9, 9, 9],
            tables,
        });
        round_trip(Msg::Pass1Frontier {
            keys: vec![0, 3, 4],
            rows: vec![1, 2, 0, 0, 1, 1, 2, 4, 0],
            vol: vec![6, 4],
        });
        round_trip(Msg::TableCast {
            table: 2,
            keys: vec![0, 1, 2],
            rows: vec![3, 1, 0],
        });
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_the_buffer() {
        let msg = Msg::RouteBatch {
            to: 1,
            keys: vec![10, 11, 12],
            ops: vec![BatchOp::Get { table: 0 }],
        };
        let mut buf = Msg::Heartbeat.encode();
        msg.encode_into(&mut buf);
        assert_eq!(buf, msg.encode());
        // A second encode into the same scratch must not accumulate.
        msg.encode_into(&mut buf);
        assert_eq!(buf, msg.encode());
    }

    #[test]
    fn verb_names_cover_every_tag() {
        // One histogram slot per tag, retired ones included, and the bucket
        // for everything else behind them.
        use super::super::transport::VERB_SLOTS;
        for tag in 0..VERB_SLOTS - 1 {
            assert_ne!(Msg::verb_name(tag), "unknown", "tag {tag}");
        }
        assert_eq!(Msg::verb_name(VERB_SLOTS - 1), "unknown");
        assert_eq!(Msg::verb_name(7), "Route");
        assert_eq!(Msg::verb_name(15), "RouteBatch");
        assert_eq!(Msg::verb_name(23), "TraceEvents");
    }

    #[test]
    fn pack_input_round_trips() {
        let setup = Msg::Configure(Box::new(WorkerSetup {
            worker: 0,
            workers: 2,
            k: 4,
            chunk: 1024,
            heartbeat_ms: 0,
            algo: AlgoSpec::Clugp {
                splitting: true,
                migration: 0,
                max_vertices: 1 << 30,
            },
            input: InputSpec::Pack {
                path: "/tmp/g.clugpz".into(),
                block_start: 3,
                block_end: 9,
                edges: 5000,
                decode: DecodeOptions {
                    threads: 3,
                    prefetch: 7,
                    checksums: ChecksumPolicy::HeaderAndIndex,
                },
            },
            tables: Vec::new(),
            trace: false,
        }));
        round_trip(setup.clone());

        // The frame ends: prefetch u64, policy tag u8, table count u64,
        // trace u8. Neither a pipeline of no blocks nor an unknown policy
        // is a default in disguise.
        let good = setup.encode();
        let (prefetch, policy) = (good.len() - 18, good.len() - 10);
        assert_eq!((good[prefetch], good[policy]), (7, 1));
        for (at, value, what) in [(prefetch, 0, "prefetch"), (policy, 3, "checksum policy")] {
            let mut frame = good.clone();
            frame[at] = value;
            let err = Msg::decode(&frame).unwrap_err().to_string();
            assert!(err.contains("malformed protocol frame"), "{err}");
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(Msg::decode(&[250]).is_err());
        assert!(Msg::decode(&[]).is_err());
        // Tag 7 was `Route`: retired, reserved, and no longer a message.
        let err = Msg::decode(&[7, 1, 0, 0, 0, 0]).unwrap_err();
        assert!(err.to_string().contains("message tag"), "{err}");
        // So are tags 5 and 6, `StateReq` and `StateResp`: an `Upsert` of no
        // keys into table 0, and its empty ack.
        let upsert = [&[5u8, 0, 1, 0][..], &[0; 16]].concat();
        // And 8 and 9, `Scan` and `ScanResp`: a dump of table 0, and the
        // empty shard it read back.
        for frame in [
            &upsert[..],
            &[6, 0, 0, 0, 0, 0, 0, 0, 0],
            &[8, 0],
            &[9, 0, 0],
        ] {
            let err = Msg::decode(frame).unwrap_err();
            assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
            assert!(err.to_string().contains("message tag"), "{err}");
        }
        // The names stay in the histogram, slot for slot with the tags.
        assert_eq!(Msg::verb_name(8), "Scan");
        assert_eq!(Msg::verb_name(9), "ScanResp");
        assert_eq!(Msg::verb_name(21), "Pass1Frontier");
    }

    #[test]
    fn a_cast_round_trips_any_key_order_and_refuses_counts_past_the_frame() {
        // Keys that step back (a checkpoint an older build wrote lists the
        // cluster map in shard order); a last row of full words.
        let cast = Msg::TableCast {
            table: 4,
            keys: vec![512, 513, 1536, 0, 1, 1024, 700, 3],
            rows: vec![1, 0, u64::MAX, 7],
        };
        round_trip(cast.clone());
        let cast = cast.encode();
        for cut in 1..cast.len() {
            assert!(Msg::decode(&cast[..cut]).is_err(), "cut {cut}");
        }
        // A count the frame cannot back is refused before it sizes a vector.
        for claimed in [9u64, 1 << 40, u64::MAX] {
            let mut w = Wr::new();
            w.u8(22);
            w.u8(4);
            w.vu64(claimed);
            w.bytes(&[2; 8]);
            assert!(Msg::decode(&w.into_bytes()).is_err(), "{claimed} keys");
        }
    }

    #[test]
    fn trace_events_round_trip() {
        round_trip(Msg::TraceEvents {
            now_us: 0,
            dropped: 0,
            events: Vec::new(),
        });
        // Repeated names exercise the per-frame name table.
        round_trip(Msg::TraceEvents {
            now_us: 123_456_789,
            dropped: 7,
            events: vec![
                Event {
                    name: "chunk".into(),
                    kind: EventKind::Span,
                    ts_us: 1_000,
                    dur_us: 250,
                    arg: 4096,
                },
                Event {
                    name: "route_batch".into(),
                    kind: EventKind::Span,
                    ts_us: 1_100,
                    dur_us: 40,
                    arg: 128,
                },
                Event {
                    name: "chunk".into(),
                    kind: EventKind::Span,
                    ts_us: 1_300,
                    dur_us: u64::MAX,
                    arg: 0,
                },
                Event {
                    name: "decode_stall".into(),
                    kind: EventKind::Instant,
                    ts_us: 1_350,
                    dur_us: 0,
                    arg: 999,
                },
            ],
        });
    }

    #[test]
    fn trace_events_rejects_bad_frames() {
        let good = Msg::TraceEvents {
            now_us: 5,
            dropped: 0,
            events: vec![Event {
                name: "x".into(),
                kind: EventKind::Span,
                ts_us: 1,
                dur_us: 2,
                arg: 3,
            }],
        }
        .encode();
        // Truncation anywhere inside the frame must error, never panic.
        for cut in 1..good.len() {
            assert!(Msg::decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }
}
