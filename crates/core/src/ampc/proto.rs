//! Coordinator ↔ worker message set.
//!
//! Every exchange is a [`Msg`] encoded with the [`super::wire`] codec and
//! shipped as one transport frame. Outside a stage the conversation is
//! request/reply from the coordinator's point of view; while a stage runs
//! the worker drives it:
//!
//! ```text
//! coordinator → worker:  Configure, RunStage, TableCast, Pass1Frontier,
//!                        ResetTables, Shutdown
//! worker → coordinator:  Hello, ConfigureOk, StageDone, ResetOk, Err, and —
//!                        only while running a stage — Pass1Frontier,
//!                        Heartbeat, TraceEvents
//! ```
//!
//! The engine runs CLUGP only, so a [`WorkerSetup`] names no algorithm, only
//! CLUGP's worker parameters ([`AlgoSpec`]). No table is paged: a stage
//! holds every table it writes whole while the edges stream by. Pass 1, the
//! one stage that writes, hands its state on with the token as a
//! [`Msg::Pass1Frontier`] (every touched vertex row plus the raw-cluster
//! volumes). Sequenced, the frame rides the turn: worker *w* receives the one
//! worker *w − 1* sent (nothing for worker 0) ahead of its `RunStage`, steps
//! its range on top of it and sends its own ahead of `StageDone`; the
//! coordinator forwards each frame as received, by its tag byte alone
//! ([`Msg::hand_on_tag`]), and imports the last one. Relaxed, every worker
//! starts empty and the coordinator merges the frontiers. Whoever indexes with
//! a turn's state holds it to the run first.
//!
//! The tags are numbered densely by the verbs the protocol speaks, in the
//! order of [`VERBS`]; both ends of every link are the same build, so no
//! tag is reserved and a frame under any other tag is a typed error. Only
//! the stage tags 1 to 3 are persisted (in `CLUGPCK1`, with the token), and
//! they keep their numbers: stage tag 0 stays unused.
//!
//! From the end of pass 1 the coordinator owns the tables, and a stage that
//! only *reads* one gets it whole, ahead of its `RunStage`, as a
//! [`Msg::TableCast`] — in both modes, encoded once from the coordinator's
//! copy, and kept by the worker until `ResetTables`, so the vertex rows
//! travel once for the pairs stage and the transform: keys as zigzag varint
//! deltas (the sign keeps a non-monotone key order legal), rows as varints.
//! A cast or a frontier is one frame, so a table is bounded by the
//! transport's frame cap (DESIGN.md §11).
//!
//! [`Msg::StageDone`] is laid out as: tag `4`, the [`Token`], the
//! assignments as [`PartIds`] — a width byte (1, 2 or 4: the narrowest that
//! holds `k − 1`), a `u64` count, then `count × width` little-endian id
//! bytes — and a flag byte followed by the [`PairsPayload`] when set. The
//! decoder rejects any other width byte and holds the count against the rest
//! of the frame, whose buffer then holds the ids; what the ids *mean* — one
//! per edge of the range, all below `k` — is the coordinator's to check,
//! against what it handed out, as are the cluster ids of a pairs partial and
//! of a [`Msg::Pass1Frontier`]. Only the bytes an encoder writes decode
//! (flags are 0 or 1, varints are not padded, a trace frame names each name
//! once, in first use), so a frame that decodes encodes back to itself.
//!
//! [`Msg::TraceEvents`] is the observability side-channel (DESIGN.md
//! §12): when the run is traced, workers flush their buffered
//! [`clugp_obs::Event`]s to the coordinator just before each `StageDone`,
//! as one frame carrying a per-frame name table (each distinct event name
//! once) plus varint-packed timestamps. The frame also stamps the
//! sender's monotonic clock so the coordinator can re-base multi-process
//! lanes onto its own timeline. The verb is fire-and-forget and carries
//! no partitioning state, so tracing cannot perturb placement decisions.

use super::wire::{Rd, Wr};
use super::AmpcMode;
use crate::clugp::MigrationPolicy;
use crate::error::{PartitionError, Result};
use clugp_graph::types::Edge;
use clugp_obs::{Event, EventKind};
use std::ops::Range;

fn bad(what: &str) -> PartitionError {
    PartitionError::InvalidParam(format!("malformed protocol frame: {what}"))
}

/// The wire name of every message, indexed by its tag byte: the verbs the
/// protocol speaks, numbered densely.
pub const VERBS: [&str; 13] = [
    "Hello",
    "Configure",
    "ConfigureOk",
    "RunStage",
    "StageDone",
    "Shutdown",
    "Err",
    "Heartbeat",
    "ResetTables",
    "ResetOk",
    "Pass1Frontier",
    "TableCast",
    "TraceEvents",
];

const TAG_HELLO: u8 = 0;
const TAG_CONFIGURE: u8 = 1;
const TAG_CONFIGURE_OK: u8 = 2;
const TAG_RUN_STAGE: u8 = 3;
const TAG_STAGE_DONE: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_ERR: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_RESET_TABLES: u8 = 8;
const TAG_RESET_OK: u8 = 9;
const TAG_PASS1_FRONTIER: u8 = 10;
const TAG_TABLE_CAST: u8 = 11;
const TAG_TRACE_EVENTS: u8 = 12;

/// One barrier-delimited pass over a worker's edge range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
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
        matches!(self, Stage::ClugpTransform { .. })
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
    /// opens itself (multi-process mode) and reads serially, every CRC
    /// checked.
    Pack {
        /// Pack file path.
        path: String,
        /// First block (inclusive).
        block_start: u64,
        /// Last block (exclusive).
        block_end: u64,
        /// Edge count of the range.
        edges: u64,
    },
}

/// The CLUGP parameters a worker's stages read (passes 1 and 3; pass 2 runs
/// at the coordinator). Coordinator-only parameters (the game, tau) stay out.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoSpec {
    /// Splitting enabled.
    pub splitting: bool,
    /// Pass 1's migration rule (wire tag 0 Anchored, 1 Paper).
    pub migration: MigrationPolicy,
    /// Vertex-id cap.
    pub max_vertices: u64,
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
    /// Minimum interval between keep-alive [`Msg::Heartbeat`] frames the
    /// worker emits at chunk boundaries while running a stage (0 = no
    /// heartbeats). Set by the coordinator from its supervision policy.
    pub heartbeat_ms: u32,
    /// CLUGP's worker parameters.
    pub algo: AlgoSpec,
    /// Edge range source.
    pub input: InputSpec,
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
/// narrow, and the coordinator widens it straight out of the received frame
/// into its own vector ([`PartIds::append_to`]).
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

    /// Makes room for `ids` more ids, exactly: a stage reserves its range.
    pub fn reserve(&mut self, ids: usize) {
        self.bytes
            .reserve_exact(ids.saturating_mul(self.width as usize));
    }

    /// Ids held.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.width as usize
    }

    /// Whether no id is held.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Appends `id`, which must fit the width.
    pub fn push(&mut self, id: u32) {
        debug_assert!(u64::from(id) >> (8 * self.width) == 0);
        match self.width {
            1 => self.bytes.push(id as u8),
            w => self
                .bytes
                .extend_from_slice(&id.to_le_bytes()[..w as usize]),
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

    /// Writes the ids once, into room made for them and the flag byte
    /// behind them: a `StageDone` frame never regrows for its ids.
    fn put(&self, w: &mut Wr) {
        w.reserve(9 + self.bytes.len() + 1);
        w.u8(self.width);
        w.u64(self.len() as u64);
        w.bytes(&self.bytes);
    }

    /// Reads the width, holding no id yet, and where the ids lie in the
    /// frame: [`Msg::decode`] hands them the frame's buffer.
    fn get(r: &mut Rd<'_>) -> Result<(PartIds, Range<usize>)> {
        let width = r.u8()?;
        if !matches!(width, 1 | 2 | 4) {
            return Err(bad("partition id width"));
        }
        // `len` holds the count against what is left of the frame.
        let (n, start) = (r.len(width as usize)?, r.pos());
        r.take(n * width as usize)?;
        let bytes = Vec::new();
        Ok((PartIds { width, bytes }, start..r.pos()))
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
        /// Consistency mode for this stage (relaxed: CLUGP stages only).
        mode: AmpcMode,
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
    /// Coordinator → worker: drop every cast mirror and any turn state
    /// forwarded ahead of a stage (recovery casts again what the replayed
    /// stages read). Doubles as the supervisor's liveness probe.
    ResetTables,
    /// Worker ack for `ResetTables`.
    ResetOk,
    /// CLUGP pass 1's state, worker → coordinator just before `StageDone`:
    /// per touched vertex a width-3 row (raw cluster id + 1 or 0, degree,
    /// divided flag) plus the raw-cluster volume table. Relaxed, it is the
    /// worker's locally-clustered frontier, for the coordinator to merge.
    /// Sequenced, it is the whole state so far, and also travels
    /// coordinator → worker: the next turn's seed, ahead of its `RunStage`.
    Pass1Frontier {
        /// The vertex ids the pass touched, ascending.
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
    // The retired carry slot (Mint's partial wave): an empty edge list, so
    // frames and `CLUGPCK1` files keep their layout.
    w.u64(0);
}

pub(crate) fn get_token(r: &mut Rd<'_>) -> Result<Token> {
    let token = Token {
        loads: r.u64s()?,
        cursor: r.u32()?,
        next_raw: r.u64()?,
        splits: r.u64()?,
        migrations: r.u64()?,
        reroutes: r.u64()?,
        table_len: r.u64()?,
    };
    match r.u64()? {
        0 => Ok(token),
        n => Err(bad(&format!(
            "token carries {n} edges, no stage carries any"
        ))),
    }
}

pub(crate) fn put_stage(w: &mut Wr, stage: Stage) {
    // Stage tag 0 is retired (it was the baselines' one stage).
    match stage {
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
        1 => Stage::ClugpPass1 { vmax: r.u64()? },
        2 => Stage::ClugpPairs {
            num_clusters: r.u64()?,
        },
        3 => Stage::ClugpTransform { lmax: r.u64()? },
        _ => return Err(bad("stage tag")),
    })
}

fn put_setup(w: &mut Wr, s: &WorkerSetup) {
    w.u32(s.worker);
    w.u32(s.workers);
    w.u32(s.k);
    w.u32(s.heartbeat_ms);
    w.bool(s.algo.splitting);
    w.u8(match s.algo.migration {
        MigrationPolicy::Anchored => 0,
        MigrationPolicy::Paper => 1,
    });
    w.u64(s.algo.max_vertices);
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
        } => {
            w.u8(1);
            w.str(path);
            w.u64(*block_start);
            w.u64(*block_end);
            w.u64(*edges);
        }
    }
    w.bool(s.trace);
}

fn get_setup(r: &mut Rd<'_>) -> Result<WorkerSetup> {
    let worker = r.u32()?;
    let workers = r.u32()?;
    let k = r.u32()?;
    let heartbeat_ms = r.u32()?;
    let splitting = r.bool()?;
    let migration = match r.u8()? {
        0 => MigrationPolicy::Anchored,
        1 => MigrationPolicy::Paper,
        tag => return Err(bad(&format!("migration policy tag {tag}"))),
    };
    let algo = AlgoSpec {
        splitting,
        migration,
        max_vertices: r.u64()?,
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
        },
        _ => return Err(bad("input tag")),
    };
    let trace = r.bool()?;
    Ok(WorkerSetup {
        worker,
        workers,
        k,
        heartbeat_ms,
        algo,
        input,
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

/// Longest event name a trace frame carries. Every name is a constant of
/// the code that records it, far shorter; each decoded event holds its own
/// copy of its name, so the cap keeps the heap a frame decodes to linear in
/// its length.
const MAX_TRACE_NAME: usize = 64;

fn get_trace_events(r: &mut Rd<'_>) -> Result<(u64, u64, Vec<Event>)> {
    let now_us = r.vu64()?;
    let dropped = r.vu64()?;
    let n_names = r.vu64()?;
    if n_names > 4096 {
        return Err(bad("trace name count"));
    }
    let mut names: Vec<String> = Vec::with_capacity(n_names as usize);
    for _ in 0..n_names {
        let name = r.str()?;
        if name.len() > MAX_TRACE_NAME || names.contains(&name) {
            return Err(bad("trace name too long or repeated"));
        }
        names.push(name);
    }
    let n_events = r.vu64()?;
    if n_events > clugp_obs::EVENT_CAP as u64 {
        return Err(bad("trace event count"));
    }
    // No capacity from the untrusted count: a lying count runs out of
    // frame bytes long before it runs out of memory.
    let mut events = Vec::new();
    // The encoder lists the names in first use: an event names one listed
    // before, or the next one.
    let mut used = 0;
    for _ in 0..n_events {
        let idx = r.vu64()? as usize;
        let name = names
            .get(idx)
            .filter(|_| idx <= used)
            .ok_or_else(|| bad("trace name index"))?;
        used = used.max(idx + 1);
        let kind = EventKind::from_tag(r.u8()?).ok_or_else(|| bad("trace event kind"))?;
        events.push(Event {
            name: name.clone(),
            kind,
            ts_us: r.vu64()?,
            dur_us: r.vu64()?,
            arg: r.vu64()?,
        });
    }
    if used != names.len() {
        return Err(bad("unused trace name"));
    }
    Ok((now_us, dropped, events))
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
    /// The message's tag byte.
    fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => TAG_HELLO,
            Msg::Configure(_) => TAG_CONFIGURE,
            Msg::ConfigureOk => TAG_CONFIGURE_OK,
            Msg::RunStage { .. } => TAG_RUN_STAGE,
            Msg::StageDone { .. } => TAG_STAGE_DONE,
            Msg::Shutdown => TAG_SHUTDOWN,
            Msg::Err { .. } => TAG_ERR,
            Msg::Heartbeat => TAG_HEARTBEAT,
            Msg::ResetTables => TAG_RESET_TABLES,
            Msg::ResetOk => TAG_RESET_OK,
            Msg::Pass1Frontier { .. } => TAG_PASS1_FRONTIER,
            Msg::TableCast { .. } => TAG_TABLE_CAST,
            Msg::TraceEvents { .. } => TAG_TRACE_EVENTS,
        }
    }

    /// The message's wire name, for protocol-error reporting.
    pub fn kind(&self) -> &'static str {
        VERBS[self.tag() as usize]
    }

    /// The wire name of tag byte `tag` (the [`NetStats`] per-verb
    /// histogram slot), or `"unknown"` for a tag outside the protocol.
    ///
    /// [`NetStats`]: super::transport::NetStats
    pub fn verb_name(tag: usize) -> &'static str {
        VERBS.get(tag).copied().unwrap_or("unknown")
    }

    /// Encodes the message as one transport frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Wr::new();
        self.put(&mut w);
        w.into_bytes()
    }

    fn put(&self, w: &mut Wr) {
        w.u8(self.tag());
        match self {
            Msg::Hello { worker } => w.u32(*worker),
            Msg::Configure(setup) => put_setup(w, setup),
            Msg::RunStage { stage, token, mode } => {
                put_stage(w, *stage);
                put_token(w, token);
                w.u8(mode.tag());
            }
            Msg::StageDone {
                token,
                assignments,
                pairs,
            } => {
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
            Msg::Err { msg } => w.str(msg),
            Msg::Pass1Frontier { keys, rows, vol } => {
                w.delta_u64s(keys);
                w.vu64s(rows);
                w.vu64s(vol);
            }
            Msg::TableCast { table, keys, rows } => {
                w.u8(*table);
                w.delta_u64s(keys);
                w.vu64s(rows);
            }
            Msg::TraceEvents {
                now_us,
                dropped,
                events,
            } => put_trace_events(w, *now_us, *dropped, events),
            Msg::ConfigureOk | Msg::Shutdown | Msg::Heartbeat | Msg::ResetTables | Msg::ResetOk => {
            }
        }
    }

    /// The tag byte of the frame in which a sequenced turn of `stage` hands
    /// its state on — [`Msg::Pass1Frontier`] for pass 1 — or `None` for a
    /// stage that hands nothing on: the coordinator forwards the frame without
    /// decoding it.
    pub fn hand_on_tag(stage: Stage) -> Option<u8> {
        match stage {
            Stage::ClugpPass1 { .. } => Some(TAG_PASS1_FRONTIER),
            Stage::ClugpPairs { .. } | Stage::ClugpTransform { .. } => None,
        }
    }

    /// Decodes one frame, taking it over. A `StageDone`'s ids stay in the
    /// frame's own buffer, moved to its front: no second buffer holds them.
    pub fn decode(frame: Vec<u8>) -> Result<Msg> {
        let mut r = Rd::new(&frame);
        let mut ids = 0..0;
        let mut msg = match r.u8()? {
            TAG_HELLO => Msg::Hello { worker: r.u32()? },
            TAG_CONFIGURE => Msg::Configure(Box::new(get_setup(&mut r)?)),
            TAG_CONFIGURE_OK => Msg::ConfigureOk,
            TAG_RUN_STAGE => {
                let stage = get_stage(&mut r)?;
                let token = get_token(&mut r)?;
                let mode = AmpcMode::from_tag(r.u8()?).ok_or_else(|| bad("mode tag"))?;
                Msg::RunStage { stage, token, mode }
            }
            TAG_STAGE_DONE => {
                let token = get_token(&mut r)?;
                let assignments;
                (assignments, ids) = PartIds::get(&mut r)?;
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
            TAG_SHUTDOWN => Msg::Shutdown,
            TAG_ERR => Msg::Err { msg: r.str()? },
            TAG_HEARTBEAT => Msg::Heartbeat,
            TAG_RESET_TABLES => Msg::ResetTables,
            TAG_RESET_OK => Msg::ResetOk,
            TAG_PASS1_FRONTIER => Msg::Pass1Frontier {
                keys: r.delta_u64s()?,
                rows: r.vu64s()?,
                vol: r.vu64s()?,
            },
            // Both counts of a table are held against what is left of the
            // frame before anything is allocated.
            TAG_TABLE_CAST => Msg::TableCast {
                table: r.u8()?,
                keys: r.delta_u64s()?,
                rows: r.vu64s()?,
            },
            TAG_TRACE_EVENTS => {
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
        if let Msg::StageDone { assignments, .. } = &mut msg {
            let mut bytes = frame;
            bytes.copy_within(ids.clone(), 0);
            bytes.truncate(ids.len());
            assignments.bytes = bytes;
        }
        Ok(msg)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A `StageDone` frame written field by field, so that a test can make
    /// it lie about its ids: any width byte, any count, any id bytes.
    pub(crate) fn forged_stage_done(token: &Token, width: u8, count: u64, ids: &[u8]) -> Vec<u8> {
        let mut w = Wr::new();
        w.u8(TAG_STAGE_DONE);
        put_token(&mut w, token);
        w.u8(width);
        w.u64(count);
        w.bytes(ids);
        w.bool(false);
        w.into_bytes()
    }

    /// `ids` at the width of a `k`-way partition.
    fn part_ids(k: u32, ids: &[u32]) -> PartIds {
        let mut part = PartIds::for_k(k);
        ids.iter().for_each(|&p| part.push(p));
        part
    }

    fn round_trip(msg: Msg) {
        assert_eq!(Msg::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Msg::Hello { worker: 3 });
        round_trip(Msg::Configure(Box::new(WorkerSetup {
            worker: 1,
            workers: 4,
            k: 8,
            heartbeat_ms: 250,
            algo: AlgoSpec {
                splitting: false,
                migration: MigrationPolicy::Paper,
                max_vertices: 1 << 20,
            },
            input: InputSpec::Inline {
                edges: vec![Edge::new(0, 1), Edge::new(2, 2)],
            },
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
            },
            mode: AmpcMode::Relaxed,
        });
        round_trip(Msg::StageDone {
            token: Token::default(),
            assignments: part_ids(3, &[0, 1, 0, 2]),
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

    /// Where a `Configure` frame holds its migration tag: after the message
    /// tag, four `u32`s and the splitting flag.
    pub(crate) const MIGRATION_TAG_AT: usize = 1 + 4 * 4 + 1;

    /// A `Configure` of worker 0 of 2 over `edges`, k = 4, as its frame.
    pub(crate) fn configure_frame(edges: Vec<Edge>) -> Vec<u8> {
        Msg::Configure(Box::new(WorkerSetup {
            worker: 0,
            workers: 2,
            k: 4,
            heartbeat_ms: 0,
            algo: AlgoSpec {
                splitting: true,
                migration: MigrationPolicy::Anchored,
                max_vertices: 64,
            },
            input: InputSpec::Inline { edges },
            trace: false,
        }))
        .encode()
    }

    #[test]
    fn an_unknown_migration_tag_is_a_typed_error() {
        let frame = configure_frame(Vec::new());
        assert_eq!(frame[MIGRATION_TAG_AT], 0);
        for (tag, policy) in [
            (0u8, MigrationPolicy::Anchored),
            (1, MigrationPolicy::Paper),
        ] {
            let mut set = frame.clone();
            set[MIGRATION_TAG_AT] = tag;
            let Msg::Configure(setup) = Msg::decode(set).unwrap() else {
                panic!("tag {tag}: not a Configure");
            };
            assert_eq!(setup.algo.migration, policy);
        }
        for tag in [2u8, 3, 255] {
            let mut forged = frame.clone();
            forged[MIGRATION_TAG_AT] = tag;
            let err = Msg::decode(forged).unwrap_err();
            assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
            let needle = format!("migration policy tag {tag}");
            assert!(err.to_string().contains(&needle), "{err}");
        }
    }

    #[test]
    fn the_retired_carry_slot_is_empty_on_the_wire_and_refused_full() {
        // A token ends with the slot Mint's partial wave once rode in: an
        // edge count, written 0, so frames and `CLUGPCK1` files keep their
        // bytes. A frame that fills it is a typed error.
        let token = Token {
            loads: vec![2, 1],
            next_raw: 3,
            ..Default::default()
        };
        let mut w = Wr::new();
        put_token(&mut w, &token);
        let bytes = w.into_bytes();
        assert_eq!(bytes[bytes.len() - 8..], [0; 8]);
        assert_eq!(get_token(&mut Rd::new(&bytes)).unwrap(), token);
        let mut carried = bytes[..bytes.len() - 8].to_vec();
        carried.extend_from_slice(&1u64.to_le_bytes());
        carried.extend_from_slice(&[7, 0, 0, 0, 9, 0, 0, 0]);
        let err = get_token(&mut Rd::new(&carried)).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
        assert!(err.to_string().contains("token carries 1 edges"), "{err}");
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
            let bytes = frame(part_ids(k, &ids));
            assert_eq!(
                bytes.len() - frame(PartIds::for_k(k)).len(),
                ids.len() * width,
                "k = {k}"
            );
            let Msg::StageDone { assignments, .. } = Msg::decode(bytes).unwrap() else {
                panic!("k = {k}: not a StageDone");
            };
            assert_eq!(assignments.len(), ids.len());
            // Widened onto the end of what the coordinator already holds.
            let mut out = vec![7];
            assignments.append_to(k, &mut out).unwrap();
            assert_eq!(out[0], 7);
            assert_eq!(out[1..], ids, "k = {k}");
            // An id that is not below k is refused and nothing is appended.
            let forged = part_ids(k + 1, &[0, k]);
            let err = forged.append_to(k, &mut out).unwrap_err().to_string();
            assert!(err.contains(&format!("partition id {k}")), "{err}");
            assert_eq!(out.len(), 1 + ids.len());
        }
    }

    #[test]
    fn stage_done_rejects_foreign_widths_and_lengths_past_the_frame() {
        let forged =
            |width, count, ids: &[u8]| forged_stage_done(&Token::default(), width, count, ids);
        assert!(Msg::decode(forged(1, 3, &[0, 1, 2])).is_ok());
        assert!(Msg::decode(forged(2, 1, &[0, 1])).is_ok());
        for width in [0u8, 3, 5, 8, 255] {
            let err = Msg::decode(forged(width, 1, &[0; 8])).unwrap_err();
            assert!(err.to_string().contains("partition id width"), "{err}");
        }
        // A count the frame cannot back is refused before anything is
        // copied: by the length bound when it is absurd, by the slice when
        // it is off by one.
        for count in [u64::MAX, u64::MAX / 4, 1 << 40, 5, 4] {
            assert!(
                Msg::decode(forged(1, count, &[0, 1, 2])).is_err(),
                "{count}"
            );
            assert!(Msg::decode(forged(4, count, &[0; 12])).is_err(), "{count}");
        }
        let good = forged(2, 3, &[0; 6]);
        for cut in 1..good.len() {
            assert!(Msg::decode(good[..cut].to_vec()).is_err(), "cut {cut}");
        }
    }

    fn frontier() -> Msg {
        Msg::Pass1Frontier {
            keys: vec![0, 3, 4],
            rows: vec![1, 2, 0, 0, 1, 1, 2, 4, 0],
            vol: vec![6, 4],
        }
    }

    #[test]
    fn batched_relay_messages_round_trip() {
        // The frame the coordinator relays from one pass-1 turn to the next,
        // told apart by its tag byte alone; no other stage hands one on.
        round_trip(frontier());
        assert_eq!(
            frontier().encode().first().copied(),
            Msg::hand_on_tag(Stage::ClugpPass1 { vmax: 9 })
        );
        assert_eq!(
            Msg::hand_on_tag(Stage::ClugpPairs { num_clusters: 2 }),
            None
        );
        assert_eq!(Msg::hand_on_tag(Stage::ClugpTransform { lmax: 2 }), None);
    }

    #[test]
    fn verb_names_cover_every_tag() {
        // One histogram slot per tag the protocol speaks, and the bucket for
        // everything else behind them.
        use super::super::transport::VERB_SLOTS;
        assert_eq!(VERB_SLOTS, VERBS.len() + 1);
        assert_eq!(Msg::verb_name(VERB_SLOTS - 1), "unknown");
        // Each message is named by its own variant under the tag it is sent
        // with, and the messages take the tags one each.
        let (keys, rows, vol) = (vec![1], vec![1, 1, 0], vec![1]);
        let messages = [
            Msg::Hello { worker: 0 },
            Msg::decode(configure_frame(Vec::new())).unwrap(),
            Msg::ConfigureOk,
            Msg::RunStage {
                stage: Stage::ClugpPairs { num_clusters: 1 },
                token: Token::default(),
                mode: AmpcMode::Sequenced,
            },
            Msg::StageDone {
                token: Token::default(),
                assignments: PartIds::for_k(2),
                pairs: None,
            },
            Msg::Shutdown,
            Msg::Err { msg: "x".into() },
            Msg::Heartbeat,
            Msg::ResetTables,
            Msg::ResetOk,
            Msg::Pass1Frontier { keys, rows, vol },
            Msg::TableCast {
                table: 0,
                keys: Vec::new(),
                rows: Vec::new(),
            },
            Msg::TraceEvents {
                now_us: 0,
                dropped: 0,
                events: Vec::new(),
            },
        ];
        assert_eq!(messages.len(), VERBS.len());
        for (tag, msg) in messages.iter().enumerate() {
            let debug = format!("{msg:?}");
            let variant = debug.split([' ', '(']).next().unwrap();
            assert_eq!(msg.kind(), variant);
            assert_eq!(msg.encode()[0] as usize, tag, "{variant}");
            assert_eq!(Msg::verb_name(tag), variant);
        }
    }

    #[test]
    fn pack_input_round_trips() {
        let setup = Msg::Configure(Box::new(WorkerSetup {
            worker: 0,
            workers: 2,
            k: 4,
            heartbeat_ms: 0,
            algo: AlgoSpec {
                splitting: true,
                migration: MigrationPolicy::Anchored,
                max_vertices: 1 << 30,
            },
            input: InputSpec::Pack {
                path: "/tmp/g.clugpz".into(),
                block_start: 3,
                block_end: 9,
                edges: 5000,
            },
            trace: false,
        }));
        round_trip(setup);
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(Msg::decode(vec![250]).is_err());
        assert!(Msg::decode(Vec::new()).is_err());
        // The first tag past the verbs, bare and with a body.
        let next = VERBS.len() as u8;
        for frame in [vec![next], vec![next, 1, 0, 0, 0, 0]] {
            let err = Msg::decode(frame).unwrap_err();
            assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
            assert!(err.to_string().contains("message tag"), "{err}");
        }
        // Stage tag 0 is unused: `CLUGPCK1` files keep the stage tags 1 to 3.
        let err = Msg::decode(vec![TAG_RUN_STAGE, 0]).unwrap_err();
        assert!(err.to_string().contains("stage tag"), "{err}");
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
            assert!(Msg::decode(cast[..cut].to_vec()).is_err(), "cut {cut}");
        }
        // A count the frame cannot back is refused before it sizes a vector.
        for claimed in [9u64, 1 << 40, u64::MAX] {
            let mut w = Wr::new();
            w.u8(TAG_TABLE_CAST);
            w.u8(4);
            w.vu64(claimed);
            w.bytes(&[2; 8]);
            assert!(Msg::decode(w.into_bytes()).is_err(), "{claimed} keys");
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
            assert!(Msg::decode(good[..cut].to_vec()).is_err(), "cut {cut}");
        }
    }
}
