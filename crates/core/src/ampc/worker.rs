//! The worker half of the coordinator/worker engine.
//!
//! A worker owns one contiguous range of the edge stream and a
//! [`StateShard`] per paged table. After `Configure` it sits in a serve loop:
//! it answers `StateReqBatch` against its local shards, and on
//! `RunStage` it streams its edge range through *the same per-edge
//! kernels the monolithic partitioners use*, which is what keeps every
//! distributed configuration bit-identical to the monolith.
//!
//! A one-pass baseline pages its tables — O(nk/64) replica rows, more than
//! one worker should hold — through the keyspace-sharded state service, and
//! under the sequenced token keeps its dense scratch resident for the stage.
//! While this worker holds the token nobody else writes any table, so a row
//! it has fetched stays authoritative until it sends `StageDone`. The unit
//! of exchange is the **admission window**, a run of `WINDOW_CHUNKS` (64)
//! streaming chunks pulled into one reused buffer: the window's endpoints
//! are probed against the seen set (a source once per run of equal
//! sources), the owning shards are asked — in one round — only for the keys
//! the worker touches for the first time this stage (one delta-encoded
//! [`Msg::RouteBatch`] per remote owner, relayed through the coordinator;
//! no frame when nothing is new), and then the kernel is stepped over the
//! window. Admitting ahead of stepping changes nothing a kernel can see:
//! the token holder is the only writer. Every touched row is written back once,
//! after the last window, in bounded fire-and-forget `Put` batches — frame
//! ordering through the coordinator's star links lands them before the next
//! token holder's first read — and the assignments leave with `StageDone`
//! as [`PartIds`], narrowed window by window. `Resident`, `Wk::admit` and
//! `Wk::flush` are that bookkeeping, and the baseline driver is their one
//! caller. Scratch entries outside the seen set are never read, so the
//! scratch tables can stay full-size and dense — same types, same indexing
//! as the monolith.
//!
//! CLUGP pages nothing. Its tables are O(n), every stage holds them whole
//! while the edges stream by — the semi-external pass — and steps each chunk
//! the source lends, as the monolith does. Pass 1, the one stage that writes
//! them, is *lent* the state: it starts from the [`Msg::Pass1Frontier`] the
//! coordinator sent ahead of `RunStage` (the previous sequenced turn's; none
//! for worker 0, and none in relaxed mode), runs [`Pass1::step`] over its
//! range and ships its own frontier ahead of `StageDone`. The pairs and
//! transform stages only read: the coordinator broadcasts the tables they
//! index as [`Msg::TableCast`] mirrors ahead of `RunStage`. A mirror is built
//! once, when its frame arrives, and kept until `ResetTables` ([`Casts`]): the
//! vertex rows cast for the pairs stage serve the transform too.
//!
//! In [`AmpcMode::Relaxed`] nothing routes at all: every worker streams its
//! whole range against worker-local tables and reconciles with the fleet at
//! epoch barriers ([`Msg::EpochDone`] / [`Msg::EpochSync`]); CLUGP pass 1
//! runs unseeded on every worker at once and the coordinator merges the
//! frontiers, and the transform enforces a growing per-worker slice of the
//! load cap where the sequenced token enforces the hard one. Those two are
//! all that the mode changes about a CLUGP stage.

use super::proto::{
    AlgoSpec, BatchOp, EpochTable, InputSpec, Msg, PairsPayload, PartIds, Stage, Token, WorkerSetup,
};
use super::table::{Layout, MergeOp, StateShard};
use super::transport::Transport;
use super::{AmpcMode, DEFAULT_EPOCH_CHUNKS};
use crate::baselines::kernel::{EdgeKernel, SharedTable};
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

/// Keys per stage-end write-back slice ([`Wk::flush`]): no `Put` frame
/// carries more, however many keys the stage touched.
const FLUSH_KEYS: usize = 4096;

/// Streaming chunks per sequenced admission window. The chunk (32 KiB at the
/// default) is sized for the decoder; a fetch round costs a relay through the
/// coordinator, so the sequenced baseline driver admits a run of chunks at a
/// time — 2 MiB of edges at the default chunk, and `--chunk-size` scales it.
const WINDOW_CHUNKS: usize = 64;

/// One stage's residency record for a group of sharded tables that share a
/// layout and a key space.
///
/// While this worker holds the sequenced token nobody else writes any
/// table, so a row it has fetched into its dense scratch stays
/// authoritative until it sends `StageDone`. `seen` says for which keys
/// that holds: a window fetches only the keys it touches first
/// ([`Wk::admit`]) and the stage writes every seen key back once, at its
/// end ([`Wk::flush`]).
struct Resident {
    /// The group's table slots.
    tables: Vec<u8>,
    /// The key space's cap: a key at or past it is refused, so the bitmap
    /// never outgrows what the dense scratch itself may hold.
    limit: u64,
    /// Bit `key` is set once `key`'s scratch rows are authoritative.
    seen: Vec<u64>,
    /// The current window's first-touched keys (reused buffer).
    fresh: Vec<u64>,
}

impl Resident {
    fn new(tables: Vec<u8>, limit: u64) -> Resident {
        Resident {
            tables,
            limit,
            seen: Vec::new(),
            fresh: Vec::new(),
        }
    }

    fn has(&self, key: u64) -> bool {
        self.seen
            .get((key >> 6) as usize)
            .is_some_and(|word| word >> (key & 63) & 1 != 0)
    }

    /// Marks an unseen `key` and queues it in `fresh`. Out of line: the
    /// per-endpoint loop of [`Resident::touch_endpoints`] takes this path
    /// once per key and stage, and is a third faster without it inlined.
    #[cold]
    fn first_touch(&mut self, key: u64) -> Result<()> {
        if key >= self.limit {
            return Err(cap_error("vertex id", key, self.limit));
        }
        let word = (key >> 6) as usize;
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        self.seen[word] |= 1 << (key & 63);
        self.fresh.push(key);
        Ok(())
    }

    /// Declares that the window reads `key`: unless it is resident already,
    /// the next [`Wk::admit`] fetches it.
    #[inline]
    fn touch(&mut self, key: u64) -> Result<()> {
        if self.has(key) {
            Ok(())
        } else {
            self.first_touch(key)
        }
    }

    /// [`Resident::touch`] for every endpoint of a window — a source once
    /// per run of equal sources (a canonical pack repeats each some 36
    /// times), which halves the probes. No order is assumed: an unsorted
    /// stream just has short runs, and a run the previous window ended in
    /// starts over here, where its source is resident already.
    fn touch_endpoints(&mut self, edges: &[Edge]) -> Result<()> {
        let mut run = None;
        for e in edges {
            if run != Some(e.src) {
                run = Some(e.src);
                self.touch(u64::from(e.src))?;
            }
            self.touch(u64::from(e.dst))?;
        }
        Ok(())
    }

    /// Every resident key, ascending.
    fn keys(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        for (i, &word) in self.seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                keys.push((i as u64) << 6 | u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        keys
    }
}

/// The baseline registry: binds `$kernel` to the [`EdgeKernel`] the wire
/// spec names — tables empty, as a worker's scratch starts — and
/// evaluates `$body` once, monomorphised for that kernel. `None` for the
/// algorithms that are not edge kernels (Mint, CLUGP). A new baseline is
/// its kernel plus one arm here.
macro_rules! with_edge_kernel {
    ($spec:expr, $k:expr, |$kernel:ident| $body:expr) => {{
        use $crate::baselines::{dbh, greedy, grid, hashing, hdrf};
        match *$spec {
            AlgoSpec::Hashing { seed } => {
                let $kernel = hashing::HashingKernel { seed, k: $k };
                Some($body)
            }
            AlgoSpec::Grid { seed } => {
                let $kernel = grid::GridKernel::new(seed, $k);
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
    Ok(match tag {
        0 => MigrationPolicy::Anchored,
        1 => MigrationPolicy::Headroom,
        2 => MigrationPolicy::Paper,
        other => {
            return Err(PartitionError::InvalidParam(format!(
                "unknown migration policy tag {other}"
            )))
        }
    })
}

pub(crate) fn migration_tag(policy: MigrationPolicy) -> u8 {
    match policy {
        MigrationPolicy::Anchored => 0,
        MigrationPolicy::Headroom => 1,
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
/// The worker expects `Configure` first, acks it, then serves state
/// requests and stages on demand. A fatal stage error is reported to the
/// coordinator as [`Msg::Err`] before the function returns it.
pub fn run_worker(mut conn: Box<dyn Transport>) -> Result<()> {
    let setup = match recv(conn.as_mut())? {
        Msg::Configure(setup) => *setup,
        Msg::Shutdown => return Ok(()),
        other => return Err(unexpected(&other)),
    };
    let shards = build_shards(&setup);
    let hb_interval =
        (setup.heartbeat_ms > 0).then(|| Duration::from_millis(u64::from(setup.heartbeat_ms)));
    let mut wk = Wk {
        conn,
        setup,
        shards,
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
            Msg::StateReqBatch { keys, ops } => {
                let served = wk.serve_batch(&keys, &ops);
                if let Some(rows) = wk.reported(served)? {
                    wk.send_msg(&Msg::StateRespBatch { rows })?;
                }
            }
            // The previous sequenced turn's pass-1 state, for the `RunStage`
            // behind it to hold to the run and start from.
            Msg::Pass1Frontier { keys, rows, vol } => wk.seed = Some((keys, rows, vol)),
            Msg::TableCast { table, keys, rows } => {
                // Read-only mirror for the stages that read it; no ack
                // (ordered links deliver it before the RunStage behind it).
                let built = wk.import_cast(table, &keys, &rows);
                wk.reported(built)?;
            }
            Msg::ResetTables => {
                // Recovery: drop every shard, mirror and seed; the coordinator
                // sends again what the replayed stages start from.
                wk.shards = build_shards(&wk.setup);
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

/// Builds the (empty) per-table shards `setup` describes.
fn build_shards(setup: &WorkerSetup) -> Vec<StateShard> {
    setup
        .tables
        .iter()
        .map(|t| match t.layout {
            Layout::Range { .. } => {
                StateShard::range(t.layout.base(setup.worker), t.width as usize)
            }
            Layout::Striped { .. } => StateShard::striped(t.width as usize),
        })
        .collect()
}

/// Output of one stage run: updated token, assignments in stream order,
/// and the CLUGP pairs partial (pairs stage only).
type StageOut = (Token, PartIds, Option<PairsPayload>);

/// The worker's edge range, reopened for every stage.
enum Source {
    Inline {
        edges: Vec<Edge>,
        pos: usize,
    },
    Pack(clugp_graph::pack::PackedEdgeStream),
    /// Same block range as `Pack`, decoded ahead of the stage on pipeline
    /// workers (selected by the process-wide
    /// [`clugp_graph::pack::decode_options`]). Chunk-for-chunk identical
    /// to the serial variant, so stages cannot tell them apart.
    PipelinedPack(clugp_graph::pack::PipelinedPackStream),
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
            Source::PipelinedPack(stream) => stream.next_chunk(cap),
        }
    }

    /// Edges in the range.
    fn len(&self) -> u64 {
        match self {
            Source::Inline { edges, .. } => edges.len() as u64,
            Source::Pack(stream) => stream.len_hint().unwrap_or(0),
            Source::PipelinedPack(stream) => stream.len_hint().unwrap_or(0),
        }
    }

    /// A decode/IO error parked by a pack-backed stream, if any. Inline
    /// sources cannot fail.
    fn pack_error(&self) -> Option<&clugp_graph::error::GraphError> {
        match self {
            Source::Inline { .. } => None,
            Source::Pack(stream) => stream.error(),
            Source::PipelinedPack(stream) => stream.error(),
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
    shards: Vec<StateShard>,
    /// Keep-alive interval (None = heartbeats off).
    hb_interval: Option<Duration>,
    /// When the last heartbeat (or any stage start) was sent.
    hb_last: Instant,
    /// Reused encode buffer for every outgoing frame.
    scratch: Vec<u8>,
    /// What the coordinator cast to this incarnation.
    casts: Casts,
    /// The `(keys, rows, vol)` of a [`Msg::Pass1Frontier`] the coordinator
    /// sent: where this worker's sequenced pass-1 turn starts from.
    seed: Option<(Vec<u64>, Vec<u64>, Vec<u64>)>,
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
    /// hot-path sends (routing, heartbeats, epoch frames) do not allocate.
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
    /// blocking on the next decode — stall time is attributed separately.
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
    /// every driver that admits nothing: one heartbeat check, one `chunk` span.
    fn lend_chunk<'s>(&mut self, source: &'s mut Source) -> Result<Option<&'s [Edge]>> {
        self.end_chunk_span();
        self.heartbeat()?;
        let chunk = source.next_slice(self.chunk_cap());
        self.begin_chunk_span(chunk.len());
        Ok(Some(chunk).filter(|chunk| !chunk.is_empty()))
    }

    /// Copies the next [`WINDOW_CHUNKS`] chunks of the stage's edge range
    /// into `buf` and returns how many edges that is, 0 at the end of the
    /// range: the sequenced baseline driver's admission window, one `chunk`
    /// span for the whole of it.
    fn next_window(&mut self, source: &mut Source, buf: &mut Vec<Edge>) -> Result<usize> {
        self.end_chunk_span();
        buf.clear();
        let cap = self.chunk_cap();
        for _ in 0..WINDOW_CHUNKS {
            self.heartbeat()?;
            let chunk = source.next_slice(cap);
            if chunk.is_empty() {
                break;
            }
            buf.extend_from_slice(chunk);
        }
        self.begin_chunk_span(buf.len());
        Ok(buf.len())
    }

    fn slot(&self, table: u8) -> Result<usize> {
        let i = table as usize;
        if i >= self.shards.len() {
            return Err(PartitionError::InvalidParam(format!(
                "unknown table slot {table}"
            )));
        }
        Ok(i)
    }

    /// Executes a batch of ops (each over the same `keys`) against the
    /// local shards. Returns the concatenated `Get` results, or `None`
    /// when the batch was pure `Put`s and there is nothing to reply.
    fn serve_batch(&mut self, keys: &[u64], ops: &[BatchOp]) -> Result<Option<Vec<u64>>> {
        let mut reply: Option<Vec<u64>> = None;
        for op in ops {
            match op {
                BatchOp::Get { table } => {
                    let i = self.slot(*table)?;
                    let shard = &mut self.shards[i];
                    let out = reply.get_or_insert_with(Vec::new);
                    out.reserve(keys.len() * shard.width());
                    for &key in keys {
                        shard.get_into(key, out)?;
                    }
                }
                BatchOp::Put { table, merge, vals } => {
                    let i = self.slot(*table)?;
                    let shard = &mut self.shards[i];
                    if vals.len() != keys.len() * shard.width() {
                        return Err(PartitionError::InvalidParam(
                            "batched put payload does not match key count".into(),
                        ));
                    }
                    shard.upsert_batch(*merge, keys, vals)?;
                }
            }
        }
        Ok(reply)
    }

    /// Fetches `keys` from every table in `tables` (all sharing one
    /// layout), returning one flattened row vector per table, in key
    /// order. Remote owners are serviced with a single delta-encoded
    /// [`Msg::RouteBatch`] each; all requests go out before the first
    /// reply is awaited, so the relay legs overlap.
    fn fetch_group(&mut self, tables: &[u8], keys: &[u64]) -> Result<Vec<Vec<u64>>> {
        let t_route = if self.setup.trace { obs::now_us() } else { 0 };
        let defs: Vec<_> = tables
            .iter()
            .map(|&t| self.slot(t).map(|i| self.setup.tables[i]))
            .collect::<Result<_>>()?;
        let layout = defs[0].layout;
        debug_assert!(defs.iter().all(|d| d.layout == layout));
        let workers = self.setup.workers;
        let mut outs: Vec<Vec<u64>> = defs
            .iter()
            .map(|d| vec![0u64; keys.len() * d.width as usize])
            .collect();
        let mut by_owner: Vec<(Vec<u64>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); workers as usize];
        for (i, &key) in keys.iter().enumerate() {
            let owner = layout.owner(key, workers) as usize;
            by_owner[owner].0.push(key);
            by_owner[owner].1.push(i);
        }
        let me = self.setup.worker as usize;
        // Fire every remote request first, then collect replies in the
        // same order — the coordinator answers per-owner in send order.
        let mut pending: Vec<usize> = Vec::new();
        for (owner, (okeys, _)) in by_owner.iter().enumerate() {
            if owner == me || okeys.is_empty() {
                continue;
            }
            let ops: Vec<BatchOp> = tables.iter().map(|&t| BatchOp::Get { table: t }).collect();
            self.send_msg(&Msg::RouteBatch {
                to: owner as u32,
                keys: okeys.clone(),
                ops,
            })?;
            pending.push(owner);
        }
        let scatter = |owner: usize, rows: &[u64], outs: &mut [Vec<u64>]| -> Result<()> {
            let (okeys, opos) = &by_owner[owner];
            let total: usize = defs.iter().map(|d| okeys.len() * d.width as usize).sum();
            if rows.len() != total {
                return Err(PartitionError::InvalidParam(
                    "batched fetch reply does not match request".into(),
                ));
            }
            let mut off = 0;
            for (t, d) in defs.iter().enumerate() {
                let width = d.width as usize;
                for (j, &pos) in opos.iter().enumerate() {
                    outs[t][pos * width..(pos + 1) * width]
                        .copy_from_slice(&rows[off + j * width..off + (j + 1) * width]);
                }
                off += okeys.len() * width;
            }
            Ok(())
        };
        if !by_owner[me].0.is_empty() {
            let okeys = by_owner[me].0.clone();
            let ops: Vec<BatchOp> = tables.iter().map(|&t| BatchOp::Get { table: t }).collect();
            let rows = self
                .serve_batch(&okeys, &ops)?
                .expect("get batch always yields rows");
            scatter(me, &rows, &mut outs)?;
        }
        let had_remote = !pending.is_empty();
        for owner in pending {
            match recv(self.conn.as_mut())? {
                Msg::RouteReply { rows } => scatter(owner, &rows, &mut outs)?,
                Msg::Err { msg } => return Err(PartitionError::InvalidParam(msg)),
                other => return Err(unexpected(&other)),
            }
        }
        if self.setup.trace && had_remote {
            // One span per window fetch that actually crossed the wire.
            self.obs
                .push(Event::span_since("route_batch", t_route, keys.len() as u64));
        }
        Ok(outs)
    }

    /// Makes the keys the window touched first resident for the rest of
    /// the stage: one fetch round to their owners — sorted first, and no
    /// frame at all when nothing is new — handed to `import`, one flattened
    /// row vector per table of the group.
    fn admit(
        &mut self,
        res: &mut Resident,
        import: impl FnOnce(&[u64], &[Vec<u64>]) -> Result<()>,
    ) -> Result<()> {
        if !res.fresh.is_empty() {
            res.fresh.sort_unstable();
            let rows = self.fetch_group(&res.tables, &res.fresh)?;
            import(&res.fresh, &rows)?;
            res.fresh.clear();
        }
        Ok(())
    }

    /// Stage end: writes every resident key's rows back to the owning
    /// shards, [`FLUSH_KEYS`] keys at a time; `export(i, keys)` flattens the
    /// scratch rows of the group's `i`-th table. The frames leave ahead of
    /// `StageDone`, so on the ordered star links they reach their owners
    /// before anything the next token holder (or a barrier scan) asks.
    fn flush(
        &mut self,
        res: &Resident,
        mut export: impl FnMut(usize, &[u64]) -> Vec<u64>,
    ) -> Result<()> {
        for keys in res.keys().chunks(FLUSH_KEYS) {
            let rows: Vec<Vec<u64>> = (0..res.tables.len()).map(|i| export(i, keys)).collect();
            let puts: Vec<(u8, MergeOp, &[u64])> = res
                .tables
                .iter()
                .zip(&rows)
                .map(|(&table, rows)| (table, MergeOp::Put, rows.as_slice()))
                .collect();
            self.publish_group(keys, &puts)?;
        }
        Ok(())
    }

    /// Writes rows for `keys` back to one or more tables (all sharing one
    /// layout) with a single fire-and-forget [`Msg::RouteBatch`] per
    /// remote owner. No acks: the frames traverse the coordinator's
    /// ordered star links, so each Put is applied at its owner before any
    /// later dependent read from this worker can arrive there.
    fn publish_group(&mut self, keys: &[u64], puts: &[(u8, MergeOp, &[u64])]) -> Result<()> {
        let defs: Vec<_> = puts
            .iter()
            .map(|&(t, _, _)| self.slot(t).map(|i| self.setup.tables[i]))
            .collect::<Result<_>>()?;
        let layout = defs[0].layout;
        debug_assert!(defs.iter().all(|d| d.layout == layout));
        let workers = self.setup.workers;
        let mut by_owner: Vec<(Vec<u64>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); workers as usize];
        for (i, &key) in keys.iter().enumerate() {
            let owner = layout.owner(key, workers) as usize;
            by_owner[owner].0.push(key);
            by_owner[owner].1.push(i);
        }
        let me = self.setup.worker as usize;
        for (owner, (okeys, opos)) in by_owner.into_iter().enumerate() {
            if okeys.is_empty() {
                continue;
            }
            let ops: Vec<BatchOp> = puts
                .iter()
                .zip(&defs)
                .map(|(&(table, merge, rows), d)| {
                    let width = d.width as usize;
                    let mut vals = Vec::with_capacity(okeys.len() * width);
                    for &pos in &opos {
                        vals.extend_from_slice(&rows[pos * width..(pos + 1) * width]);
                    }
                    BatchOp::Put { table, merge, vals }
                })
                .collect();
            if owner == me {
                self.serve_batch(&okeys, &ops)?;
            } else {
                self.send_msg(&Msg::RouteBatch {
                    to: owner as u32,
                    keys: okeys,
                    ops,
                })?;
            }
        }
        Ok(())
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
                decode,
            } => {
                let reader = ShardedPackReader::open_with(Path::new(&path), decode.checksums)?;
                let range = block_start as usize..block_end as usize;
                let source = if decode.threads > 0 {
                    Source::PipelinedPack(reader.open_pipelined_block_range(range, decode)?)
                } else {
                    Source::Pack(reader.open_block_range(range)?)
                };
                self.setup.input = InputSpec::Pack {
                    path,
                    block_start,
                    block_end,
                    edges,
                    decode,
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
        // Discard decode-stall time accrued outside any stage (pipeline
        // warm-up from a previous incarnation of the source).
        let _ = obs::stall::take_thread_ns();
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
            // The condvar wait in the pipelined pack stream runs on this
            // thread, so the thread-local stall counter is exactly this
            // stage's decode wait.
            let stall_ns = obs::stall::take_thread_ns();
            if stall_ns > 0 {
                self.obs
                    .push(Event::instant_now("decode_stall", stall_ns / 1_000));
            }
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

    /// The sequenced driver: the kernel's tables are resident for the stage
    /// — a window fetches only the endpoints this worker has not touched
    /// yet, in one round, the window is stepped against the scratch, and
    /// every touched row goes back to its owner once, after the last window.
    /// The loads travel in the token.
    fn run_sequenced<K: EdgeKernel>(
        &mut self,
        mut kernel: K,
        mut token: Token,
        source: &mut Source,
    ) -> Result<(Token, PartIds)> {
        let mut buf = Vec::new();
        let mut assignments = PartIds::for_k(self.setup.k);
        let mut wide = Vec::new();
        let mut loads = PartitionLoads::from_vec(std::mem::take(&mut token.loads));
        let limit = (0..K::TABLES)
            .map(|slot| kernel.table(slot).limit())
            .min()
            .unwrap_or(0);
        let mut resident = Resident::new((0..K::TABLES as u8).collect(), limit);
        while self.next_window(source, &mut buf)? != 0 {
            if K::TABLES > 0 {
                resident.touch_endpoints(&buf)?;
                self.admit(&mut resident, |keys, rows| {
                    for (slot, rows) in rows.iter().enumerate() {
                        import_rows(kernel.table(slot), keys, rows)?;
                    }
                    Ok(())
                })?;
            }
            wide.clear();
            kernel.step_chunk(&buf, &mut loads, &mut wide)?;
            assignments.extend_from_slice(&wide);
        }
        if K::TABLES > 0 {
            self.flush(&resident, |slot, keys| {
                export_rows(kernel.table(slot), keys)
            })?;
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
        let (keys, rows, vol) = self.seed.take().unwrap_or_default();
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

/// Overwrites `table`'s rows for `keys` with `rows` (flattened, key order).
fn import_rows(table: &mut dyn SharedTable, keys: &[u64], rows: &[u64]) -> Result<()> {
    let width = table.width();
    if rows.len() != keys.len() * width {
        return Err(PartitionError::InvalidParam(
            "table row payload does not match key count".into(),
        ));
    }
    for (i, &key) in keys.iter().enumerate() {
        table.ensure(key as u32)?;
        table.import(key as u32, &rows[i * width..(i + 1) * width]);
    }
    Ok(())
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
                merge,
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
    use crate::ampc::proto::TableDef;
    use crate::ampc::transport::channel_pair;
    use crate::baselines::HdrfConfig;

    /// Worker 1 of 2 over `edges`, k = 4, 64-edge chunks.
    fn setup(algo: AlgoSpec, edges: Vec<Edge>, tables: Vec<TableDef>) -> WorkerSetup {
        WorkerSetup {
            worker: 1,
            workers: 2,
            k: 4,
            chunk: 64,
            heartbeat_ms: 0,
            algo,
            input: InputSpec::Inline { edges },
            tables,
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
            let msg = reported_error(setup(algo, edges, Vec::new()), vec![run]);
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

    #[test]
    fn a_forged_state_frame_is_a_typed_error_not_a_worker_panic() {
        // Worker 1 of 2 owns keys >= 100 of a width-3 range table. A key
        // below that base, or a row past the vertex-table limit, used to
        // reach unchecked arithmetic / an `expect` in the shard.
        let below_base = Msg::StateReqBatch {
            keys: vec![5],
            ops: vec![BatchOp::Get { table: 0 }],
        };
        let past_limit = Msg::StateReqBatch {
            keys: vec![u64::MAX],
            ops: vec![BatchOp::Put {
                table: 0,
                merge: MergeOp::Put,
                vals: vec![1, 2, 3],
            }],
        };
        for (frame, needle) in [
            (below_base, "below the shard base"),
            (past_limit, "vertex-table limit"),
        ] {
            let tables = vec![TableDef {
                layout: Layout::Range { span: 100 },
                width: 3,
            }];
            let setup = setup(AlgoSpec::Hashing { seed: 0 }, Vec::new(), tables);
            let msg = reported_error(setup, vec![frame]);
            assert!(msg.contains(needle), "{msg}");
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
            let setup = setup(clugp.clone(), vec![Edge::new(2, 3)], Vec::new());
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
}
