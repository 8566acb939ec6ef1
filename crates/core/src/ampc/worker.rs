//! The worker half of the coordinator/worker engine.
//!
//! A worker owns one contiguous range of the edge stream. After `Configure`
//! it waits for stages, and on `RunStage` it streams its edge range through
//! *the same per-edge kernels the monolithic partitioners use*, which is what
//! keeps every distributed configuration bit-identical to the monolith.
//!
//! No stage pages a row. Every table a stage indexes is held whole, full-size
//! and dense — same types, same indexing as the monolith — while the edges
//! stream by (the semi-external pass), and each chunk is stepped as the
//! source lends it. A sequenced stage that writes its tables is *lent* them:
//! it starts from the state the coordinator forwarded ahead of `RunStage` (the
//! previous turn's; none for worker 0, and none in relaxed mode), steps its
//! range and ships the state on ahead of `StageDone` — CLUGP pass 1 as a
//! [`Msg::Pass1Frontier`] (`Pass1::step` over the vertex rows and volumes),
//! a one-pass baseline as a [`Msg::TurnState`] (its kernel's non-zero rows;
//! the last turn of a stage sends none, nothing reads it). While a worker
//! holds the token nobody else writes, so what it was lent is the whole truth
//! for its turn. The CLUGP pairs and transform stages only read: the
//! coordinator broadcasts the tables they index as [`Msg::TableCast`] mirrors
//! ahead of `RunStage`. A mirror is built once, when its frame arrives, and
//! kept until `ResetTables` (`Casts`): the vertex rows cast for the pairs
//! stage serve the transform too.
//!
//! In [`AmpcMode::Relaxed`] no turn hands anything on: every worker streams
//! its whole range against worker-local tables and reconciles with the fleet at
//! epoch barriers ([`Msg::EpochDone`] / [`Msg::EpochSync`]); CLUGP pass 1
//! runs unseeded on every worker at once and the coordinator merges the
//! frontiers, and the transform enforces a growing per-worker slice of the
//! load cap where the sequenced token enforces the hard one. Those two are
//! all that the mode changes about a CLUGP stage.

use super::proto::{
    AlgoSpec, EpochTable, InputSpec, Msg, PairsPayload, PartIds, Stage, Token, WorkerSetup,
};
use super::transport::Transport;
use super::{AmpcMode, DEFAULT_EPOCH_CHUNKS};
use crate::baselines::kernel::{EdgeKernel, MergeOp, SharedTable};
use crate::baselines::mint::{MintConfig, Waves};
use crate::clugp::cluster_graph::PairSink;
use crate::clugp::clustering::NO_CLUSTER;
use crate::clugp::config::MigrationPolicy;
use crate::clugp::stage::{Balancer, Pass1, VertexState, ROW_WIDTH};
use crate::error::{PartitionError, Result};
use crate::state::PartitionLoads;
use crate::vertex_table::cap_error;
use clugp_graph::pack::ShardedPackReader;
use clugp_graph::stream::{chunk_edges, EdgeStream};
use clugp_graph::types::Edge;
use clugp_obs::{self as obs, Event, EventBuf};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::path::Path;
use std::time::{Duration, Instant};

/// Table slot 0 for CLUGP, in a cast and in a checkpoint: the
/// [`VertexState`] rows. (A baseline's slots are the indices of its
/// [`EdgeKernel`] tables.)
pub(crate) const T_MAIN: u8 = 0;
/// Table slot 2 for CLUGP: dense cluster → partition. (Slot 1 held the raw
/// cluster volumes while pass 1 paged them; `CLUGPCK1` keeps it, empty.)
pub(crate) const T_CPART: u8 = 2;

/// The baseline registry: binds `$kernel` to the [`EdgeKernel`] the wire
/// spec names — tables empty, as a worker's scratch starts — and
/// evaluates `$body` once, monomorphised for that kernel. `None` for the
/// algorithms that are not edge kernels (Mint, CLUGP). A new baseline is
/// its kernel plus one arm here.
macro_rules! with_edge_kernel {
    ($spec:expr, $k:expr, |$kernel:ident| $body:expr) => {{
        use $crate::baselines::{dbh, greedy, hashing, hdrf};
        match *$spec {
            AlgoSpec::Hashing { seed } => {
                let $kernel = hashing::HashingKernel { seed, k: $k };
                Some($body)
            }
            AlgoSpec::Dbh { seed, max_vertices } => {
                let $kernel = dbh::DbhKernel::new(seed, $k, 0, max_vertices)?;
                Some($body)
            }
            AlgoSpec::Greedy { max_vertices } => {
                let $kernel = greedy::GreedyKernel::new($k, 0, max_vertices)?;
                Some($body)
            }
            AlgoSpec::Hdrf(ref config) => {
                let $kernel = hdrf::HdrfKernel::new(config, $k, 0)?;
                Some($body)
            }
            AlgoSpec::Mint(_) | AlgoSpec::Clugp { .. } => None,
        }
    }};
}
pub(crate) use with_edge_kernel;

pub(crate) fn unexpected(m: &Msg) -> PartitionError {
    PartitionError::InvalidParam(format!("unexpected protocol message: {}", m.kind()))
}

pub(crate) fn migration_from_tag(tag: u8) -> Result<MigrationPolicy> {
    // Migration tag 1 is retired (it was Headroom): do not reuse it.
    Ok(match tag {
        0 => MigrationPolicy::Anchored,
        2 => MigrationPolicy::Paper,
        other => {
            return Err(PartitionError::InvalidParam(format!(
                "unknown migration policy tag {other}"
            )))
        }
    })
}

pub(crate) fn migration_tag(policy: MigrationPolicy) -> u8 {
    // Migration tag 1 is retired (it was Headroom): do not reuse it.
    match policy {
        MigrationPolicy::Anchored => 0,
        MigrationPolicy::Paper => 2,
    }
}

/// Worker-lane span name for a stage (coordinator-lane pass spans use the
/// `pass:` prefix; the worker's view of the same work uses `stage:`).
fn stage_name(stage: &Stage) -> &'static str {
    match stage {
        Stage::Baseline => "stage:baseline",
        Stage::ClugpPass1 { .. } => "stage:pass1",
        Stage::ClugpPairs { .. } => "stage:pairs",
        Stage::ClugpTransform { .. } => "stage:transform",
    }
}

fn recv(conn: &mut dyn Transport) -> Result<Msg> {
    Msg::decode(&conn.recv()?)
}

/// Runs a worker over `conn` until `Shutdown`.
///
/// The worker expects `Configure` first, acks it, then runs stages on
/// demand. A fatal stage error is reported to the coordinator as
/// [`Msg::Err`] before the function returns it.
pub fn run_worker(mut conn: Box<dyn Transport>) -> Result<()> {
    let setup = match recv(conn.as_mut())? {
        Msg::Configure(setup) => *setup,
        Msg::Shutdown => return Ok(()),
        other => return Err(unexpected(&other)),
    };
    let hb_interval =
        (setup.heartbeat_ms > 0).then(|| Duration::from_millis(u64::from(setup.heartbeat_ms)));
    let mut wk = Wk {
        conn,
        setup,
        hb_interval,
        hb_last: Instant::now(),
        scratch: Vec::new(),
        casts: Casts::default(),
        seed: None,
        obs: EventBuf::new(),
        chunk_ts: 0,
        chunk_edges: 0,
    };
    wk.send_msg(&Msg::ConfigureOk)?;
    loop {
        match recv(wk.conn.as_mut())? {
            // The previous sequenced turn's state, for the `RunStage` behind
            // it to hold to the run and start from.
            seed @ (Msg::Pass1Frontier { .. } | Msg::TurnState { .. }) => wk.seed = Some(seed),
            Msg::TableCast { table, keys, rows } => {
                // Read-only mirror for the stages that read it; no ack
                // (ordered links deliver it before the RunStage behind it).
                let built = wk.import_cast(table, &keys, &rows);
                wk.reported(built)?;
            }
            Msg::ResetTables => {
                // Recovery: drop every mirror and seed; the coordinator sends
                // again what the replayed stages start from.
                wk.casts = Casts::default();
                wk.seed = None;
                wk.send_msg(&Msg::ResetOk)?;
            }
            Msg::RunStage {
                stage,
                token,
                mode,
                epoch,
            } => {
                let out = wk.run_stage(stage, token, mode, epoch);
                let (token, assignments, pairs) = wk.reported(out)?;
                wk.send_msg(&Msg::StageDone {
                    token,
                    assignments,
                    pairs,
                })?;
            }
            Msg::Shutdown => return Ok(()),
            other => return Err(unexpected(&other)),
        }
    }
}

/// Output of one stage run: updated token, assignments in stream order,
/// and the CLUGP pairs partial (pairs stage only).
type StageOut = (Token, PartIds, Option<PairsPayload>);

/// The worker's edge range, reopened for every stage.
enum Source {
    Inline { edges: Vec<Edge>, pos: usize },
    Pack(clugp_graph::pack::PackedEdgeStream),
}

impl Source {
    /// Lends the next chunk of up to `cap` edges; empty at the end of the
    /// range. A pack lends from its decoded block, so a chunk never spans
    /// two blocks.
    fn next_slice(&mut self, cap: usize) -> &[Edge] {
        match self {
            Source::Inline { edges, pos } => {
                let take = cap.max(1).min(edges.len() - *pos);
                *pos += take;
                &edges[*pos - take..*pos]
            }
            Source::Pack(stream) => stream.next_chunk(cap),
        }
    }

    /// Edges in the range.
    fn len(&self) -> u64 {
        match self {
            Source::Inline { edges, .. } => edges.len() as u64,
            Source::Pack(stream) => stream.len_hint().unwrap_or(0),
        }
    }

    /// A decode/IO error parked by a pack-backed stream, if any. Inline
    /// sources cannot fail.
    fn pack_error(&self) -> Option<&clugp_graph::error::GraphError> {
        match self {
            Source::Inline { .. } => None,
            Source::Pack(stream) => stream.error(),
        }
    }
}

/// The read-only table mirrors received via [`Msg::TableCast`], as the
/// tables the CLUGP pairs and transform stages index. Built when the frame
/// arrives and kept until `ResetTables`, so each is cast once per worker
/// incarnation.
#[derive(Default)]
struct Casts {
    /// [`T_MAIN`]: the compacted vertex rows.
    vertices: Option<VertexState>,
    /// [`T_CPART`]: dense cluster → partition.
    cluster_partition: Option<Vec<u32>>,
}

/// The mirror of `table` a stage reads.
fn cast<T>(mirror: &Option<T>, table: u8) -> Result<&T> {
    mirror.as_ref().ok_or_else(|| {
        PartitionError::InvalidParam(format!(
            "stage started without the cast of table slot {table}"
        ))
    })
}

/// The dense cluster → partition map that `(keys, rows)` carry in a cast or
/// a checkpoint: one partition below `k` for each of `keys.len()` clusters,
/// in any key order. Anything else would index out of a table.
pub(crate) fn cluster_partition_map(keys: &[u64], rows: &[u64], k: u32) -> Result<Vec<u32>> {
    let mut map = vec![u32::MAX; keys.len()];
    let mut pairs = keys.iter().zip(rows);
    let fits = pairs.all(|(&c, &part)| match map.get_mut(c as usize) {
        Some(slot) if *slot == u32::MAX && part < u64::from(k) => {
            *slot = part as u32;
            true
        }
        _ => false,
    });
    if !fits || rows.len() != keys.len() {
        return Err(PartitionError::InvalidParam(format!(
            "cluster-partition rows do not give each of {} clusters one of {k} partitions",
            keys.len()
        )));
    }
    Ok(map)
}

struct Wk {
    conn: Box<dyn Transport>,
    setup: WorkerSetup,
    /// Keep-alive interval (None = heartbeats off).
    hb_interval: Option<Duration>,
    /// When the last heartbeat (or any stage start) was sent.
    hb_last: Instant,
    /// Reused encode buffer for every outgoing frame.
    scratch: Vec<u8>,
    /// What the coordinator cast to this incarnation.
    casts: Casts,
    /// The [`Msg::Pass1Frontier`] or [`Msg::TurnState`] the coordinator
    /// forwarded: where this worker's sequenced turn starts from.
    seed: Option<Msg>,
    /// Trace events recorded during the current stage, shipped to the
    /// coordinator as one [`Msg::TraceEvents`] frame right before
    /// `StageDone` (empty unless [`WorkerSetup::trace`]).
    obs: EventBuf,
    /// Start timestamp of the chunk currently being processed (µs on this
    /// worker's clock); 0 = no chunk open.
    chunk_ts: u64,
    /// Edge count of the chunk currently being processed.
    chunk_edges: u64,
}

impl Wk {
    /// Encodes and sends `msg`, reusing the worker's scratch buffer so
    /// repeated sends (heartbeats, epoch frames) do not allocate.
    fn send_msg(&mut self, msg: &Msg) -> Result<()> {
        let mut buf = std::mem::take(&mut self.scratch);
        msg.encode_into(&mut buf);
        let res = self.conn.send(&buf);
        self.scratch = buf;
        res
    }

    /// Tells the coordinator about a failure (as [`Msg::Err`], best effort)
    /// before the worker returns it: a request this worker cannot serve is a
    /// deterministic error for the run, not a dead link to respawn.
    fn reported<T>(&mut self, res: Result<T>) -> Result<T> {
        if let Err(e) = &res {
            let _ = self.send_msg(&Msg::Err { msg: e.to_string() });
        }
        res
    }

    /// Closes the `chunk` span of the unit just processed. Called before
    /// the next decode, which is not charged to processing.
    fn end_chunk_span(&mut self) {
        if self.setup.trace && self.chunk_ts != 0 {
            self.obs
                .push(Event::span_since("chunk", self.chunk_ts, self.chunk_edges));
            self.chunk_ts = 0;
        }
    }

    /// Opens the `chunk` span of a unit of `edges` edges (none for 0).
    fn begin_chunk_span(&mut self, edges: usize) {
        if self.setup.trace && edges != 0 {
            self.chunk_ts = obs::now_us();
            self.chunk_edges = edges as u64;
        }
    }

    /// Emits a keep-alive [`Msg::Heartbeat`] when the configured interval
    /// has elapsed. Called ahead of every chunk pulled — without it, a stage
    /// that routes nothing sends nothing until `StageDone` and the
    /// coordinator's deadline could not tell "working" from "dead".
    fn heartbeat(&mut self) -> Result<()> {
        if let Some(interval) = self.hb_interval {
            if self.hb_last.elapsed() >= interval {
                self.send_msg(&Msg::Heartbeat)?;
                self.hb_last = Instant::now();
            }
        }
        Ok(())
    }

    /// The next chunk of the stage's edge range as the source lends it, up to
    /// [`Wk::chunk_cap`] edges; `None` at the end of the range. The unit of
    /// every driver: one heartbeat check, one `chunk` span.
    fn lend_chunk<'s>(&mut self, source: &'s mut Source) -> Result<Option<&'s [Edge]>> {
        self.end_chunk_span();
        self.heartbeat()?;
        let chunk = source.next_slice(self.chunk_cap());
        self.begin_chunk_span(chunk.len());
        Ok(Some(chunk).filter(|chunk| !chunk.is_empty()))
    }

    fn chunk_cap(&self) -> usize {
        if self.setup.chunk == 0 {
            chunk_edges()
        } else {
            self.setup.chunk as usize
        }
    }

    fn open_source(&mut self) -> Result<Source> {
        let input = std::mem::replace(
            &mut self.setup.input,
            InputSpec::Inline { edges: Vec::new() },
        );
        match input {
            InputSpec::Inline { edges } => Ok(Source::Inline { edges, pos: 0 }),
            InputSpec::Pack {
                path,
                block_start,
                block_end,
                edges,
            } => {
                let reader = ShardedPackReader::open(Path::new(&path))?;
                let range = block_start as usize..block_end as usize;
                let source = Source::Pack(reader.open_block_range(range)?);
                self.setup.input = InputSpec::Pack {
                    path,
                    block_start,
                    block_end,
                    edges,
                };
                Ok(source)
            }
        }
    }

    fn restore_source(&mut self, source: Source) {
        if let Source::Inline { edges, .. } = source {
            self.setup.input = InputSpec::Inline { edges };
        }
    }

    fn run_stage(
        &mut self,
        stage: Stage,
        token: Token,
        mode: AmpcMode,
        epoch: u32,
    ) -> Result<StageOut> {
        let relaxed = mode == AmpcMode::Relaxed;
        let epoch = if epoch == 0 {
            DEFAULT_EPOCH_CHUNKS
        } else {
            epoch
        } as usize;
        self.chunk_ts = 0;
        self.chunk_edges = 0;
        let t_stage = if self.setup.trace { obs::now_us() } else { 0 };
        let mut source = self.open_source()?;
        // The mirrors are lent to the stage, which sends through `self`.
        let casts = std::mem::take(&mut self.casts);
        let mut out = match stage {
            Stage::Baseline => self.stage_baseline(token, &mut source, relaxed, epoch),
            Stage::ClugpPass1 { vmax } => self.stage_clugp_pass1(vmax, token, &mut source),
            Stage::ClugpPairs { num_clusters } => {
                self.stage_clugp_pairs(num_clusters, token, &mut source, &casts)
            }
            Stage::ClugpTransform { lmax } => {
                self.stage_clugp_transform(lmax, token, &mut source, relaxed, &casts)
            }
        };
        self.casts = casts;
        if out.is_ok() {
            if let Some(e) = source.pack_error() {
                out = Err(PartitionError::InvalidParam(format!("pack stream: {e}")));
            }
        }
        self.restore_source(source);
        if self.setup.trace && out.is_ok() {
            self.obs
                .push(Event::span_since(stage_name(&stage), t_stage, 0));
            self.flush_trace()?;
        }
        out
    }

    /// Ships every event buffered during the stage as one
    /// [`Msg::TraceEvents`] frame. Sent right before `StageDone`, so the
    /// coordinator absorbs it while waiting on the stage result.
    fn flush_trace(&mut self) -> Result<()> {
        let dropped = self.obs.take_dropped();
        if self.obs.is_empty() && dropped == 0 {
            return Ok(());
        }
        let events = self.obs.drain();
        self.send_msg(&Msg::TraceEvents {
            now_us: obs::now_us(),
            dropped,
            events,
        })
    }

    fn stage_baseline(
        &mut self,
        token: Token,
        source: &mut Source,
        relaxed: bool,
        epoch: usize,
    ) -> Result<StageOut> {
        let algo = self.setup.algo.clone();
        let (token, assignments) = if let AlgoSpec::Mint(cfg) = &algo {
            let (token, wide) = self.run_mint(cfg, token, source, relaxed)?;
            (token, PartIds::from_ids(self.setup.k, &wide))
        } else {
            with_edge_kernel!(&algo, self.setup.k, |kernel| {
                if relaxed {
                    self.run_relaxed(kernel, token, source, epoch)?
                } else {
                    self.run_sequenced(kernel, token, source)?
                }
            })
            .ok_or_else(|| {
                PartitionError::InvalidParam("CLUGP algo cannot run the baseline stage".into())
            })?
        };
        Ok((token, assignments, None))
    }

    /// The sequenced driver, shaped as CLUGP pass 1: the kernel starts from
    /// the [`Msg::TurnState`] the coordinator forwarded (every turn but
    /// worker 0's has one), held to the run first, steps each chunk the
    /// source lends against its whole tables, and hands them on — every
    /// non-zero row, keys ascending — ahead of `StageDone`. The stage's last
    /// turn hands nothing on: a baseline has no barrier after its one stage.
    /// The loads travel in the token.
    fn run_sequenced<K: EdgeKernel>(
        &mut self,
        mut kernel: K,
        mut token: Token,
        source: &mut Source,
    ) -> Result<(Token, PartIds)> {
        let (me, workers) = (self.setup.worker, self.setup.workers);
        if K::TABLES > 0 {
            match (self.seed.take(), me) {
                (None, 0) => {}
                (Some(Msg::TurnState { tables }), 1..) => {
                    import_kernel_state(me as usize, &mut kernel, &tables, &token.loads)?;
                }
                (None, _) => {
                    return Err(PartitionError::InvalidParam(format!(
                        "worker {me}: turn started without the previous turn's state"
                    )))
                }
                (Some(other), _) => return Err(unexpected(&other)),
            }
        }
        let mut assignments = PartIds::for_k(self.setup.k);
        let mut wide = Vec::new();
        let mut loads = PartitionLoads::from_vec(std::mem::take(&mut token.loads));
        while let Some(chunk) = self.lend_chunk(source)? {
            wide.clear();
            kernel.step_chunk(chunk, &mut loads, &mut wide)?;
            assignments.extend_from_slice(&wide);
        }
        if K::TABLES > 0 && me + 1 < workers {
            let tables = (0..K::TABLES)
                .map(|slot| nonzero_rows(kernel.table(slot), slot))
                .collect();
            self.send_msg(&Msg::TurnState { tables })?;
        }
        token.loads = loads.into_vec();
        token.table_len = token.table_len.max(table_len(&mut kernel));
        Ok((token, assignments))
    }

    /// Mint: waves are global — `wave_width × batch_size` edges each — so
    /// every worker solves the full waves its range completes and carries
    /// the remainder to the next worker in the token. The last worker
    /// drains the tail (partial wave / partial batch), exactly where the
    /// monolith's end-of-stream wave lands. In relaxed mode there is no
    /// token to carry a remainder on, so every worker waves over its own
    /// range and drains its own tail.
    fn run_mint(
        &mut self,
        cfg: &MintConfig,
        mut token: Token,
        source: &mut Source,
        relaxed: bool,
    ) -> Result<(Token, Vec<u32>)> {
        let loads = PartitionLoads::from_vec(std::mem::take(&mut token.loads));
        let carry = std::mem::take(&mut token.carry);
        let mut waves = Waves::new(cfg, self.setup.k, loads, carry)?;
        while let Some(chunk) = self.lend_chunk(source)? {
            waves.push(chunk);
        }
        if relaxed || self.setup.worker + 1 == self.setup.workers {
            waves.drain();
        }
        token.carry = waves.pending;
        token.loads = waves.loads.into_vec();
        Ok((token, waves.assignments))
    }

    /// One relaxed-mode epoch barrier: ship this worker's deltas, block
    /// until the coordinator broadcasts the merged committed state for the
    /// round. Every worker contributes exactly one [`Msg::EpochDone`] per
    /// round, so the committed state after round `r` is independent of
    /// thread scheduling — that is what keeps relaxed runs deterministic.
    fn epoch_exchange(
        &mut self,
        last: bool,
        loads: Vec<u64>,
        tables: Vec<EpochTable>,
    ) -> Result<(bool, Vec<u64>, Vec<EpochTable>)> {
        let t_barrier = if self.setup.trace { obs::now_us() } else { 0 };
        self.send_msg(&Msg::EpochDone {
            last,
            loads,
            tables,
        })?;
        match recv(self.conn.as_mut())? {
            Msg::EpochSync {
                done,
                loads,
                tables,
            } => {
                if self.setup.trace {
                    self.obs
                        .push(Event::span_since("epoch:barrier", t_barrier, 0));
                }
                Ok((done, loads, tables))
            }
            Msg::Err { msg } => Err(PartitionError::InvalidParam(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Final relaxed-mode barrier sequence: ship the last deltas, then
    /// keep answering rounds with empty deltas until every worker has
    /// reported `last`. Returns the final committed loads.
    fn epoch_drain(
        &mut self,
        loads: Vec<u64>,
        tables: Vec<EpochTable>,
        mut apply: impl FnMut(&EpochTable) -> Result<()>,
    ) -> Result<Vec<u64>> {
        let k = loads.len();
        let (mut done, mut committed, merged) = self.epoch_exchange(true, loads, tables)?;
        for t in &merged {
            apply(t)?;
        }
        while !done {
            let (d, l, merged) = self.epoch_exchange(true, vec![0; k], Vec::new())?;
            done = d;
            committed = l;
            for t in &merged {
                apply(t)?;
            }
        }
        Ok(committed)
    }

    /// The relaxed driver: step the whole range against worker-local
    /// tables, and every `epoch` chunks ship what changed — load deltas,
    /// plus each shared table's rows for the keys touched since the last
    /// barrier, merged fleet-wide under the table's [`MergeOp`] — and adopt
    /// the committed state the coordinator broadcasts back.
    fn run_relaxed<K: EdgeKernel>(
        &mut self,
        mut kernel: K,
        mut token: Token,
        source: &mut Source,
        epoch: usize,
    ) -> Result<(Token, PartIds)> {
        if !K::EPOCH_SYNCED {
            // A kernel that shares nothing (Hashing) has nothing to relax:
            // it streams to `StageDone` and the coordinator sums the loads.
            return self.run_sequenced(kernel, token, source);
        }
        let mut assignments = Vec::new();
        let mut loads = PartitionLoads::from_vec(std::mem::take(&mut token.loads));
        let mut base = loads.as_slice().to_vec();
        let mut touched = Touched::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut since = 0usize;
        while let Some(chunk) = self.lend_chunk(source)? {
            if K::TABLES > 0 {
                distinct_endpoints(chunk, &mut keys);
                touched.note(&mut kernel, &keys)?;
            }
            kernel.step_chunk(chunk, &mut loads, &mut assignments)?;
            since += 1;
            if since >= epoch {
                since = 0;
                let tables = touched.flush(&mut kernel);
                let delta = loads_delta(loads.as_slice(), &base);
                let (_, merged, synced) = self.epoch_exchange(false, delta, tables)?;
                base.clone_from(&merged);
                loads = PartitionLoads::from_vec(merged);
                for t in &synced {
                    apply_sync(&mut kernel, t)?;
                }
            }
        }
        let tables = touched.flush(&mut kernel);
        let delta = loads_delta(loads.as_slice(), &base);
        token.loads = self.epoch_drain(delta, tables, |t| apply_sync(&mut kernel, t))?;
        token.table_len = token.table_len.max(table_len(&mut kernel));
        Ok((token, PartIds::from_ids(self.setup.k, &assignments)))
    }

    /// The CLUGP parameters of this worker's `Configure`: `(splitting,
    /// migration, max_vertices)`.
    fn clugp_spec(&self) -> Result<(bool, MigrationPolicy, u64)> {
        match self.setup.algo {
            AlgoSpec::Clugp {
                splitting,
                migration,
                max_vertices,
            } => Ok((splitting, migration_from_tag(migration)?, max_vertices)),
            _ => Err(PartitionError::InvalidParam(
                "a CLUGP stage requires the CLUGP algo".into(),
            )),
        }
    }

    /// Builds the mirror a [`Msg::TableCast`] of `table` carries, replacing
    /// any earlier one.
    fn import_cast(&mut self, table: u8, keys: &[u64], rows: &[u64]) -> Result<()> {
        let (_, _, max_vertices) = self.clugp_spec()?;
        match table {
            T_MAIN => {
                let mut vertices = VertexState::new(0, max_vertices)?;
                vertices.import(keys, rows)?;
                self.casts.vertices = Some(vertices);
            }
            T_CPART => {
                let map = cluster_partition_map(keys, rows, self.setup.k)?;
                self.casts.cluster_partition = Some(map);
            }
            _ => {
                return Err(PartitionError::InvalidParam(format!(
                    "no stage reads a cast of table slot {table}"
                )))
            }
        }
        Ok(())
    }

    /// CLUGP pass 1, the one stage that writes: the monolith's loop over this
    /// worker's range, against its own full tables. It starts from the seed
    /// the coordinator sent ahead of `RunStage` — the state as the previous
    /// sequenced turn left it, so a minted cluster gets the monolith's raw id;
    /// nothing for worker 0, and nothing in relaxed mode, where raw ids are
    /// worker-local and volumes start from zero — and the whole state — every
    /// touched vertex row plus the volumes — leaves as one
    /// [`Msg::Pass1Frontier`], for the coordinator to hand to the next turn
    /// or keep (sequenced: there is one writer at a time), or to merge
    /// deterministically across workers (relaxed).
    fn stage_clugp_pass1(
        &mut self,
        vmax: u64,
        mut token: Token,
        source: &mut Source,
    ) -> Result<StageOut> {
        let (splitting, migration, max_vertices) = self.clugp_spec()?;
        let mut vertices = VertexState::new(0, max_vertices)?;
        let (keys, rows, vol) = match self.seed.take() {
            Some(Msg::Pass1Frontier { keys, rows, vol }) => (keys, rows, vol),
            None => Default::default(),
            Some(other) => return Err(unexpected(&other)),
        };
        let me = self.setup.worker as usize;
        import_turn_state(me, &mut vertices, (&keys, &rows, &vol), token.next_raw)?;
        // The tables hold them now; the range streams without the wire copy.
        drop((keys, rows));
        let mut pass = Pass1 {
            vertices,
            vol,
            splits: token.splits,
            migrations: token.migrations,
            vmax,
            splitting,
            migration,
        };
        while let Some(chunk) = self.lend_chunk(source)? {
            for &e in chunk {
                pass.step(e)?;
            }
        }
        token.next_raw = pass.vol.len() as u64;
        token.splits = pass.splits;
        token.migrations = pass.migrations;
        token.table_len = token.table_len.max(pass.vertices.len());
        // Every vertex the pass touched, on any turn so far, has a cluster.
        let keys: Vec<u64> = (0..pass.vertices.len())
            .filter(|&v| pass.vertices.cluster_of[v as u32] != NO_CLUSTER)
            .collect();
        let rows = pass.vertices.export(&keys);
        let vol = pass.vol;
        self.send_msg(&Msg::Pass1Frontier { keys, rows, vol })?;
        Ok((token, PartIds::for_k(self.setup.k), None))
    }

    /// CLUGP pairs: stream the range once against the cast of the (now
    /// dense) cluster ids and aggregate the worker's partial cluster graph —
    /// a pure function of the range and the table, so the workers run it at
    /// once in either mode.
    fn stage_clugp_pairs(
        &mut self,
        num_clusters: u64,
        token: Token,
        source: &mut Source,
        casts: &Casts,
    ) -> Result<StageOut> {
        let vertices = cast(&casts.vertices, T_MAIN)?;
        let mut sink = PairSink::new(num_clusters as usize, source.len());
        while let Some(chunk) = self.lend_chunk(source)? {
            for &e in chunk {
                sink.push(vertices.cluster_of[e.src], vertices.cluster_of[e.dst]);
            }
        }
        let (intra, agg) = sink.finish();
        let pairs = PairsPayload {
            intra: intra
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i as u64, c))
                .collect(),
            agg,
        };
        Ok((token, PartIds::for_k(self.setup.k), Some(pairs)))
    }

    /// CLUGP pass 3: run the transformation step over the range against the
    /// casts of the vertex rows and the cluster → partition map. The mode
    /// selects the cap policy and nothing else. Sequenced, the loads travel
    /// in the token and the global cap is hard. Relaxed, each worker gets an
    /// even slice of it; the slice can be infeasible for this worker's share
    /// of the stream (contiguous edge ranges are not perfectly even), so it
    /// grows one slot per partition whenever every local partition is
    /// saturated — the edge always has somewhere to go, and the global cap
    /// drifts by at most one slot per overflow.
    fn stage_clugp_transform(
        &mut self,
        lmax: u64,
        mut token: Token,
        source: &mut Source,
        relaxed: bool,
        casts: &Casts,
    ) -> Result<StageOut> {
        let k = self.setup.k;
        let vertices = cast(&casts.vertices, T_MAIN)?;
        let cpart = cast(&casts.cluster_partition, T_CPART)?;
        let mut balancer = Balancer {
            lmax: if relaxed {
                lmax.div_ceil(u64::from(self.setup.workers)).max(1)
            } else {
                lmax
            },
            loads: std::mem::take(&mut token.loads),
            cursor: token.cursor,
            reroutes: token.reroutes,
        };
        let mut placed: u64 = balancer.loads.iter().sum();
        let mut assignments = PartIds::for_k(k);
        let mut wide = Vec::new();
        while let Some(chunk) = self.lend_chunk(source)? {
            wide.clear();
            for &e in chunk {
                if relaxed && placed == u64::from(k) * balancer.lmax {
                    // Every partition just regained a slot, including the
                    // ones the monotone reroute cursor already passed.
                    balancer.lmax += 1;
                    balancer.cursor = 0;
                }
                placed += 1;
                wide.push(balancer.step(e, vertices, cpart)?);
            }
            assignments.extend_from_slice(&wide);
        }
        token.loads = balancer.loads;
        token.cursor = balancer.cursor;
        token.reroutes = balancer.reroutes;
        token.table_len = token.table_len.max(vertices.len());
        Ok((token, assignments, None))
    }
}

/// Builds onto `vertices` (fresh tables) the pass-1 state a sequenced turn
/// hands on — a [`Msg::Pass1Frontier`], whichever way it travels — holding it
/// to the run before anything is indexed with it: one row per key, at least
/// the `next_raw` volumes handed out before it was written, every row's raw
/// cluster among them, every key below the vertex cap, every volume the sum
/// of its members' degrees (what [`Pass1::step`] subtracts from it), and at
/// most four raw clusters per edge the degrees count (two allocations, two
/// splits). An error names `worker`, at whose end of the link the state was
/// read.
pub(crate) fn import_turn_state(
    worker: usize,
    vertices: &mut VertexState,
    (keys, rows, vol): (&[u64], &[u64], &[u64]),
    next_raw: u64,
) -> Result<()> {
    let named = |what: String| {
        PartitionError::InvalidParam(format!("worker {worker}: pass-1 state {what}"))
    };
    if rows.len() != keys.len() * ROW_WIDTH {
        return Err(named("does not match its key count".into()));
    }
    let raw = vol.len() as u64;
    if raw < next_raw {
        return Err(named(format!(
            "holds {raw} volumes, {next_raw} raw clusters were handed out"
        )));
    }
    // Word 0 is `cluster + 1` and word 1 the degree, which the next edge
    // bumps: both are read before `unpack` narrows them.
    for row in rows.chunks_exact(ROW_WIDTH) {
        if row[0] > raw {
            return Err(named(format!(
                "names raw cluster {}, it holds {raw} volumes",
                row[0] - 1
            )));
        }
        if row[1] >= u64::from(u32::MAX) {
            return Err(named(format!("carries the degree {}", row[1])));
        }
    }
    vertices
        .import(keys, rows)
        .map_err(|e| named(e.to_string()))?;
    let mut members = vec![0u64; vol.len()];
    for v in (0..vertices.len()).map(|v| v as u32) {
        let d = u64::from(vertices.degree[v]);
        match vertices.cluster_of[v] {
            NO_CLUSTER if d == 0 => {}
            NO_CLUSTER => return Err(named(format!("gives vertex {v} a degree and no cluster"))),
            c => members[c as usize] += d,
        }
    }
    if let Some(c) = (0..vol.len()).find(|&c| vol[c] != members[c]) {
        return Err(named(format!(
            "gives raw cluster {c} the volume {}, its members' degrees add up to {}",
            vol[c], members[c]
        )));
    }
    let edges = members.iter().sum::<u64>() / 2;
    if raw > edges.saturating_mul(4) {
        return Err(named(format!("holds {raw} raw clusters for {edges} edges")));
    }
    Ok(())
}

/// Builds onto `kernel`'s fresh tables the state a sequenced baseline turn
/// hands on — the `tables` of a [`Msg::TurnState`] — holding it to the run
/// before the kernel steps an edge with it: one table per kernel slot, in slot
/// order; every row the table's width and every key below its cap
/// ([`import_rows`]); and every `Add`-merged table — the partial degrees of
/// DBH and HDRF, which each edge bumps at both ends — summing to twice the
/// edges the token's `loads` count. An error names `worker`.
pub(crate) fn import_kernel_state<K: EdgeKernel>(
    worker: usize,
    kernel: &mut K,
    tables: &[EpochTable],
    loads: &[u64],
) -> Result<()> {
    let named =
        |what: String| PartitionError::InvalidParam(format!("worker {worker}: turn state {what}"));
    let slots = tables.iter().map(|t| usize::from(t.table));
    if !slots.eq(0..K::TABLES) {
        return Err(named(format!(
            "does not list the kernel's {} tables in slot order",
            K::TABLES
        )));
    }
    // Summed wide: a forged row cannot wrap its way to the expected total.
    let sum = |words: &[u64]| words.iter().map(|&w| u128::from(w)).sum::<u128>();
    let edges = sum(loads);
    for t in tables {
        let table = kernel.table(usize::from(t.table));
        import_rows(table, &t.keys, &t.rows).map_err(|e| named(e.to_string()))?;
        if table.merge() == MergeOp::Add && sum(&t.rows) != 2 * edges {
            return Err(named(format!(
                "has degrees in table slot {} summing to {}, \
                 not twice the {edges} edges the loads count",
                t.table,
                sum(&t.rows)
            )));
        }
    }
    Ok(())
}

/// Collects the distinct endpoint ids of a chunk, sorted ascending.
fn distinct_endpoints(buf: &[Edge], keys: &mut Vec<u64>) {
    keys.clear();
    keys.extend(
        buf.iter()
            .flat_map(|e| [u64::from(e.src), u64::from(e.dst)]),
    );
    keys.sort_unstable();
    keys.dedup();
}

/// Element-wise wrapping difference `cur - base`: the per-epoch load
/// delta a relaxed worker ships at a barrier.
fn loads_delta(cur: &[u64], base: &[u64]) -> Vec<u64> {
    cur.iter()
        .zip(base)
        .map(|(&c, &b)| c.wrapping_sub(b))
        .collect()
}

/// Vertex-table watermark of a kernel: one past the highest id any of its
/// tables covers (0 for a kernel without tables).
fn table_len<K: EdgeKernel>(kernel: &mut K) -> u64 {
    (0..K::TABLES)
        .map(|slot| kernel.table(slot).len())
        .max()
        .unwrap_or(0)
}

/// Overwrites `table`'s rows for `keys` with `rows` (flattened, key order):
/// the one way rows off the wire — a turn state, an epoch sync — reach a
/// kernel's tables. A key at or past the table's cap is refused before it is
/// narrowed to a vertex id.
fn import_rows(table: &mut dyn SharedTable, keys: &[u64], rows: &[u64]) -> Result<()> {
    let width = table.width();
    if rows.len() != keys.len() * width {
        return Err(PartitionError::InvalidParam(format!(
            "rows of {} words do not match {} keys of width {width}",
            rows.len(),
            keys.len()
        )));
    }
    for (&key, row) in keys.iter().zip(rows.chunks_exact(width)) {
        if key >= table.limit() {
            return Err(cap_error("vertex id", key, table.limit()));
        }
        table.ensure(key as u32)?;
        table.import(key as u32, row);
    }
    Ok(())
}

/// Every non-zero row of `table`, keys ascending, as slot `slot` of a
/// [`Msg::TurnState`]: a vertex the turns have not touched reads as zeros.
fn nonzero_rows(table: &dyn SharedTable, slot: usize) -> EpochTable {
    let width = table.width();
    let (mut keys, mut rows) = (Vec::new(), Vec::new());
    let mut row = vec![0u64; width];
    for key in 0..table.len() {
        table.export(key as u32, &mut row);
        if row.iter().any(|&word| word != 0) {
            keys.push(key);
            rows.extend_from_slice(&row);
        }
    }
    EpochTable {
        table: slot as u8,
        keys,
        rows,
    }
}

/// `table`'s current rows for `keys`, flattened in key order.
fn export_rows(table: &dyn SharedTable, keys: &[u64]) -> Vec<u64> {
    let width = table.width();
    let mut rows = vec![0u64; keys.len() * width];
    for (i, &key) in keys.iter().enumerate() {
        table.export(key as u32, &mut rows[i * width..(i + 1) * width]);
    }
    rows
}

/// Adopts the committed rows of one epoch-sync table. For an OR-merged
/// table the committed row is a superset of the local one (this worker
/// contributed to it), so overwriting never loses local bits.
fn apply_sync<K: EdgeKernel>(kernel: &mut K, t: &EpochTable) -> Result<()> {
    if t.table as usize >= K::TABLES {
        return Err(PartitionError::InvalidParam(format!(
            "epoch sync for unknown table slot {}",
            t.table
        )));
    }
    import_rows(kernel.table(t.table as usize), &t.keys, &t.rows)
}

/// The keys a relaxed worker touched since the last epoch barrier, each
/// with the rows its `Add`-merged tables held at first touch (slot order):
/// sums ship `current − first`, the idempotent merges ship the current row.
#[derive(Default)]
struct Touched {
    first: FxHashMap<u64, Vec<u64>>,
}

impl Touched {
    fn note<K: EdgeKernel>(&mut self, kernel: &mut K, keys: &[u64]) -> Result<()> {
        for &key in keys {
            if let Entry::Vacant(first) = self.first.entry(key) {
                let mut rows = Vec::new();
                for slot in 0..K::TABLES {
                    let table = kernel.table(slot);
                    table.ensure(key as u32)?;
                    if table.merge() == MergeOp::Add {
                        let at = rows.len();
                        rows.resize(at + table.width(), 0);
                        table.export(key as u32, &mut rows[at..]);
                    }
                }
                first.insert(rows);
            }
        }
        Ok(())
    }

    /// Drains the touched set into one [`EpochTable`] per slot (keys
    /// ascending) and starts the next epoch's set.
    fn flush<K: EdgeKernel>(&mut self, kernel: &mut K) -> Vec<EpochTable> {
        let mut keys: Vec<u64> = self.first.keys().copied().collect();
        keys.sort_unstable();
        // Offset of the current `Add` table within a first-touch record.
        let mut at = 0;
        let mut tables = Vec::with_capacity(K::TABLES);
        for slot in 0..K::TABLES {
            let table = kernel.table(slot);
            let (width, merge) = (table.width(), table.merge());
            let mut rows = export_rows(table, &keys);
            if merge == MergeOp::Add {
                for (row, key) in rows.chunks_mut(width).zip(&keys) {
                    for (word, was) in row.iter_mut().zip(&self.first[key][at..]) {
                        *word = word.wrapping_sub(*was);
                    }
                }
                at += width;
            }
            tables.push(EpochTable {
                table: slot as u8,
                keys: keys.clone(),
                rows,
            });
        }
        self.first.clear();
        tables
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ampc::transport::channel_pair;
    use crate::baselines::hdrf::HdrfKernel;
    use crate::baselines::HdrfConfig;

    /// Worker 1 of 2 over `edges`, k = 4, 64-edge chunks.
    fn setup(algo: AlgoSpec, edges: Vec<Edge>) -> WorkerSetup {
        WorkerSetup {
            worker: 1,
            workers: 2,
            k: 4,
            chunk: 64,
            heartbeat_ms: 0,
            algo,
            input: InputSpec::Inline { edges },
            trace: false,
        }
    }

    /// Plays the coordinator to a worker configured with `setup`: sends it
    /// `frames` and returns the error it reports — a `Msg::Err`, and a typed
    /// error out of `run_worker`, never a panic.
    fn reported_error(setup: WorkerSetup, frames: Vec<Msg>) -> String {
        let (mut coord, worker) = channel_pair(8);
        let handle = std::thread::spawn(move || run_worker(Box::new(worker)));
        coord
            .send(&Msg::Configure(Box::new(setup)).encode())
            .unwrap();
        assert_eq!(recv(&mut coord).unwrap(), Msg::ConfigureOk);
        for frame in frames {
            coord.send(&frame.encode()).unwrap();
        }
        let reply = recv(&mut coord).unwrap();
        let err = handle.join().expect("worker thread").unwrap_err();
        assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
        match reply {
            Msg::Err { msg } => msg,
            other => panic!("expected Err, got {}", other.kind()),
        }
    }

    fn run_stage(stage: Stage, token: Token) -> Msg {
        Msg::RunStage {
            stage,
            token,
            mode: AmpcMode::Sequenced,
            epoch: 0,
        }
    }

    #[test]
    fn retired_migration_tag_is_a_typed_error() {
        for policy in [MigrationPolicy::Anchored, MigrationPolicy::Paper] {
            assert_eq!(migration_from_tag(migration_tag(policy)).unwrap(), policy);
        }
        // Tag 1 (Headroom) maps to no policy, and neither does any unused tag.
        for tag in [1u8, 3, 255] {
            let err = migration_from_tag(tag).unwrap_err();
            assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
            assert!(err.to_string().contains("migration policy tag"), "{err}");
        }
    }

    #[test]
    fn a_worker_handed_a_nan_hdrf_spec_reports_a_typed_error() {
        // `Configure` carries lambda and epsilon as two raw f64s, so a
        // corrupt frame reaches the worker unvalidated; the kernel's
        // constructor is where it stops.
        for (lambda, epsilon) in [(f64::NAN, 1.0), (-2.0, 1.0), (1.0, 0.0)] {
            let algo = AlgoSpec::Hdrf(HdrfConfig {
                lambda,
                epsilon,
                ..Default::default()
            });
            let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
            let token = Token {
                loads: vec![0; 4],
                ..Default::default()
            };
            let run = run_stage(Stage::Baseline, token);
            let msg = reported_error(setup(algo, edges), vec![run]);
            assert!(msg.contains("HDRF"), "{msg}");
        }
    }

    /// Vertices 0, 1, 2 at degree 2, one raw cluster each: the pass-1 state
    /// after a triangle, as `(keys, rows, vol)`.
    pub(crate) fn triangle_frontier() -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        (
            vec![0, 1, 2],
            vec![1, 2, 0, 2, 2, 0, 3, 2, 0],
            vec![2, 2, 2],
        )
    }

    /// An HDRF turn's state after the triangle 0-1-2, k = 4, all on
    /// partition 0: replica masks in slot 0, degrees in slot 1, as the
    /// `tables` of a [`Msg::TurnState`] and the token's loads.
    fn triangle_turn_state() -> (Vec<EpochTable>, Vec<u64>) {
        let table = |table, rows| EpochTable {
            table,
            keys: vec![0, 1, 2],
            rows,
        };
        let tables = vec![table(0, vec![1, 1, 1]), table(1, vec![2, 2, 2])];
        (tables, vec![3, 0, 0, 0])
    }

    fn hdrf_kernel() -> HdrfKernel {
        let config = HdrfConfig {
            max_vertices: 64,
            ..Default::default()
        };
        HdrfKernel::new(&config, 4, 0).unwrap()
    }

    #[test]
    fn a_forged_state_frame_is_a_typed_error_not_a_worker_panic() {
        // A baseline turn after the first starts from the state the previous
        // one handed on, held to the run where it is imported: a key that
        // would narrow onto vertex 5, no state at all, and the wrong verb.
        let hdrf = AlgoSpec::Hdrf(HdrfConfig {
            max_vertices: 64,
            ..Default::default()
        });
        let (mut tables, loads) = triangle_turn_state();
        tables[0].keys[2] = (1 << 32) + 5;
        let (keys, rows, vol) = triangle_frontier();
        for (seed, needle) in [
            (
                Some(Msg::TurnState { tables }),
                "vertex id 4294967301 exceeds the max_vertices cap 64",
            ),
            (
                None,
                "worker 1: turn started without the previous turn's state",
            ),
            (
                Some(Msg::Pass1Frontier { keys, rows, vol }),
                "unexpected protocol message: Pass1Frontier",
            ),
        ] {
            let token = Token {
                loads: loads.clone(),
                ..Default::default()
            };
            let frames = seed.into_iter().chain([run_stage(Stage::Baseline, token)]);
            let setup = setup(hdrf.clone(), vec![Edge::new(2, 3)]);
            let msg = reported_error(setup, frames.collect());
            assert!(msg.contains(needle), "{needle}: {msg}");
            let named = msg.contains("worker 1: turn");
            assert!(named || needle.starts_with("unexpected"), "{msg}");
        }
        // The pass-1 state the coordinator forwards unread is held to the run
        // where it is imported: a seed one volume short of the token's three
        // raw clusters, and no seed at all.
        let clugp = AlgoSpec::Clugp {
            splitting: true,
            migration: 0,
            max_vertices: 64,
        };
        let (keys, rows, mut vol) = triangle_frontier();
        vol.pop();
        for (seed, needle) in [
            (
                Some(Msg::Pass1Frontier { keys, rows, vol }),
                "holds 2 volumes",
            ),
            (None, "holds 0 volumes, 3 raw clusters were handed out"),
        ] {
            let token = Token {
                next_raw: 3,
                ..Default::default()
            };
            let run = run_stage(Stage::ClugpPass1 { vmax: 100 }, token);
            let frames = seed.into_iter().chain([run]).collect();
            let setup = setup(clugp.clone(), vec![Edge::new(2, 3)]);
            let msg = reported_error(setup, frames);
            assert!(msg.contains("worker 1: pass-1 state"), "{msg}");
            assert!(msg.contains(needle), "{needle}: {msg}");
        }
    }

    #[test]
    fn pass1_state_is_held_to_the_run_before_it_is_indexed_with() {
        type Forge = fn(&mut Vec<u64>, &mut Vec<u64>, &mut Vec<u64>);
        let cases: [(Forge, u64, &str); 12] = [
            (|_, _, _| {}, 3, ""),
            (
                |_, _, _| {},
                4,
                "holds 3 volumes, 4 raw clusters were handed",
            ),
            (|_, rows, _| rows.truncate(8), 3, "does not match its key"),
            (
                |keys, _, _| keys[2] = 1 << 40,
                3,
                "exceeds the max_vertices",
            ),
            (
                |_, rows, _| rows[3] = 4,
                3,
                "names raw cluster 3, it holds 3",
            ),
            // Read before `unpack` would narrow it onto cluster 0.
            (
                |_, rows, _| rows[3] = (1 << 32) + 1,
                3,
                "cluster 4294967296",
            ),
            (
                |_, _, vol| vol.resize(13, 0),
                3,
                "13 raw clusters for 3 edges",
            ),
            // `Pass1::step` subtracts a mover's degree from its cluster's
            // volume and adds one to the degree of every endpoint.
            (
                |_, rows, _| rows[4] = 7,
                3,
                "raw cluster 1 the volume 2, its members' degrees add up to 7",
            ),
            (|_, _, vol| vol[2] = u64::MAX, 3, "raw cluster 2 the volume"),
            (
                |_, rows, _| rows[7] = u64::from(u32::MAX),
                3,
                "carries the degree 4294967295",
            ),
            (
                |_, rows, _| rows[7] = (1 << 32) + 2,
                3,
                "carries the degree 4294967298",
            ),
            (
                |_, rows, vol| (rows[6], vol[2]) = (0, 0),
                3,
                "gives vertex 2 a degree and no cluster",
            ),
        ];
        for (forge, next_raw, needle) in cases {
            let (mut keys, mut rows, mut vol) = triangle_frontier();
            forge(&mut keys, &mut rows, &mut vol);
            let mut vertices = VertexState::new(0, 64).unwrap();
            match import_turn_state(7, &mut vertices, (&keys, &rows, &vol), next_raw) {
                Ok(()) => assert!(needle.is_empty(), "{needle}: accepted"),
                Err(e) => {
                    assert!(matches!(e, PartitionError::InvalidParam(_)), "{e}");
                    let msg = e.to_string();
                    assert!(msg.contains("worker 7: pass-1 state"), "{msg}");
                    assert!(
                        !needle.is_empty() && msg.contains(needle),
                        "{needle}: {msg}"
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_turn_state_is_held_to_the_run_before_it_is_indexed_with() {
        type Forge = fn(&mut Vec<EpochTable>, &mut Vec<u64>);
        let cases: [(Forge, &str); 7] = [
            (|_, _| {}, ""),
            (
                |tables, _| tables[0].rows.truncate(2),
                "rows of 2 words do not match 3 keys of width 1",
            ),
            (
                |tables, _| tables[1].keys[2] = 1 << 32,
                "vertex id 4294967296 exceeds the max_vertices cap 64",
            ),
            (
                |tables, _| tables[0].keys[2] = 64,
                "vertex id 64 exceeds the max_vertices cap 64",
            ),
            (
                |tables, _| tables[1].rows[2] = 3,
                "degrees in table slot 1 summing to 7, not twice the 3 edges",
            ),
            (
                |_, loads| loads[3] = u64::MAX,
                "summing to 6, not twice the 18446744073709551618 edges",
            ),
            (
                |tables, _| tables.swap(0, 1),
                "does not list the kernel's 2 tables in slot order",
            ),
        ];
        for (forge, needle) in cases {
            let (mut tables, mut loads) = triangle_turn_state();
            forge(&mut tables, &mut loads);
            let mut kernel = hdrf_kernel();
            match import_kernel_state(7, &mut kernel, &tables, &loads) {
                Ok(()) => assert!(needle.is_empty(), "{needle}: accepted"),
                Err(e) => {
                    assert!(matches!(e, PartitionError::InvalidParam(_)), "{e}");
                    let msg = e.to_string();
                    assert!(msg.contains("worker 7: turn state"), "{msg}");
                    assert!(
                        !needle.is_empty() && msg.contains(needle),
                        "{needle}: {msg}"
                    );
                }
            }
        }
        // What an honest turn state imports is what the next turn reads back.
        let (tables, loads) = triangle_turn_state();
        let mut kernel = hdrf_kernel();
        import_kernel_state(7, &mut kernel, &tables, &loads).unwrap();
        let handed_on: Vec<EpochTable> = (0..HdrfKernel::TABLES)
            .map(|slot| nonzero_rows(kernel.table(slot), slot))
            .collect();
        assert_eq!(handed_on, tables);
    }
}
