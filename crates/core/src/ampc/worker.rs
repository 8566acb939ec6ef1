//! The worker half of the coordinator/worker engine.
//!
//! A worker owns one contiguous range of the edge stream. After `Configure`
//! it waits for stages, and on `RunStage` it streams its edge range through
//! *the same per-edge steps the monolithic CLUGP uses* — pass 1's clustering,
//! the pairs count and the transform's balancer — which is what keeps every
//! sequenced configuration bit-identical to the monolith. The engine runs
//! CLUGP only: a `Configure` naming a one-pass baseline does not decode, and
//! the worker answers it with an `Err`.
//!
//! No stage pages a row. Every table a stage indexes is held whole, full-size
//! and dense — same types, same indexing as the monolith — while the edges
//! stream by (the semi-external pass), and each chunk is stepped as the
//! source lends it. Pass 1, the one stage that writes its tables, is *lent*
//! them: it starts from the [`Msg::Pass1Frontier`] the coordinator forwarded
//! ahead of `RunStage` (the previous turn's; none for worker 0, and none in
//! relaxed mode), steps its range (`Pass1::step` over the vertex rows and
//! volumes) and ships the whole state on ahead of `StageDone`. While a worker
//! holds the token nobody else writes, so what it was lent is the whole truth
//! for its turn. The pairs and transform stages only read: the coordinator
//! broadcasts the tables they index as [`Msg::TableCast`] mirrors ahead of
//! `RunStage`. A mirror is built once, when its frame arrives, and kept until
//! `ResetTables` (`Casts`): the vertex rows cast for the pairs stage serve the
//! transform too.
//!
//! In [`AmpcMode::Relaxed`] no turn hands anything on: pass 1 runs unseeded
//! on every worker at once and the coordinator merges the frontiers, and the
//! transform enforces a growing per-worker slice of the load cap where the
//! sequenced token enforces the hard one. Those two are all that the mode
//! changes about a stage.

use super::proto::{InputSpec, Msg, PairsPayload, PartIds, Stage, Token, WorkerSetup};
use super::transport::Transport;
use super::AmpcMode;
use crate::clugp::cluster_graph::PairSink;
use crate::clugp::clustering::NO_CLUSTER;
use crate::clugp::config::MigrationPolicy;
use crate::clugp::stage::{Balancer, Pass1, VertexState, ROW_WIDTH};
use crate::error::{PartitionError, Result};
use clugp_graph::pack::ShardedPackReader;
use clugp_graph::stream::{chunk_edges, EdgeStream};
use clugp_graph::types::Edge;
use clugp_obs::{self as obs, Event, EventBuf};
use std::path::Path;
use std::time::{Duration, Instant};

/// Table slot 0, in a cast and in a checkpoint: the [`VertexState`] rows.
pub(crate) const T_MAIN: u8 = 0;
/// Table slot 2: dense cluster → partition. (Slot 1 held the raw
/// cluster volumes while pass 1 paged them; `CLUGPCK1` keeps it, empty.)
pub(crate) const T_CPART: u8 = 2;

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
    let setup = match recv(conn.as_mut()) {
        Ok(Msg::Configure(setup)) => *setup,
        Ok(Msg::Shutdown) => return Ok(()),
        Ok(other) => return Err(unexpected(&other)),
        // A setup this build cannot run — one naming a retired algorithm —
        // fails the run; the coordinator hears why (best effort).
        Err(e) => {
            let _ = conn.send(&Msg::Err { msg: e.to_string() }.encode());
            return Err(e);
        }
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
            seed @ Msg::Pass1Frontier { .. } => wk.seed = Some(seed),
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
            Msg::RunStage { stage, token, mode } => {
                let out = wk.run_stage(stage, token, mode);
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
    /// The [`Msg::Pass1Frontier`] the coordinator forwarded: where this
    /// worker's sequenced pass-1 turn starts from.
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
    /// repeated sends (heartbeats, frontiers) do not allocate.
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
    /// every stage: one heartbeat check, one `chunk` span.
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

    fn run_stage(&mut self, stage: Stage, token: Token, mode: AmpcMode) -> Result<StageOut> {
        let relaxed = mode == AmpcMode::Relaxed;
        self.chunk_ts = 0;
        self.chunk_edges = 0;
        let t_stage = if self.setup.trace { obs::now_us() } else { 0 };
        let mut source = self.open_source()?;
        // The mirrors are lent to the stage, which sends through `self`.
        let casts = std::mem::take(&mut self.casts);
        let mut out = match stage {
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

    /// The CLUGP parameters of this worker's `Configure`: `(splitting,
    /// migration, max_vertices)`.
    fn clugp_spec(&self) -> Result<(bool, MigrationPolicy, u64)> {
        let spec = &self.setup.algo;
        let migration = migration_from_tag(spec.migration)?;
        Ok((spec.splitting, migration, spec.max_vertices))
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ampc::proto::tests::{configure_frame, ALGO_TAG_AT};
    use crate::ampc::proto::AlgoSpec;
    use crate::ampc::transport::channel_pair;

    /// Worker 1 of 2 over `edges`, k = 4, 64-edge chunks, CLUGP at a
    /// 64-vertex cap.
    fn setup(edges: Vec<Edge>) -> WorkerSetup {
        WorkerSetup {
            worker: 1,
            workers: 2,
            k: 4,
            chunk: 64,
            heartbeat_ms: 0,
            algo: AlgoSpec {
                splitting: true,
                migration: 0,
                max_vertices: 64,
            },
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
    fn a_relaxed_baseline_stage_is_a_typed_error() {
        // The engine runs CLUGP only, in either mode: a `Configure` naming a
        // one-pass baseline (algo tags 0 and 2 to 5, retired) gets an `Err`
        // reply and a typed error out of `run_worker`, never a panic, and no
        // stage runs.
        let frame = configure_frame(vec![Edge::new(0, 1)]);
        for tag in [0u8, 2, 3, 4, 5] {
            let mut forged = frame.clone();
            forged[ALGO_TAG_AT] = tag;
            let (mut coord, worker) = channel_pair(8);
            let handle = std::thread::spawn(move || run_worker(Box::new(worker)));
            coord.send(&forged).unwrap();
            let reply = recv(&mut coord).unwrap();
            let err = handle.join().expect("worker thread").unwrap_err();
            assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
            let needle = format!("retired algo tag {tag}: the engine runs CLUGP only");
            match reply {
                Msg::Err { msg } => assert!(msg.contains(&needle), "{msg}"),
                other => panic!("tag {tag}: expected Err, got {}", other.kind()),
            }
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
        // The pass-1 state the coordinator forwards unread is held to the run
        // where it is imported: a seed one volume short of the token's three
        // raw clusters, and no seed at all.
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
            let msg = reported_error(setup(vec![Edge::new(2, 3)]), frames);
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
