//! The coordinator half of the coordinator/worker engine.
//!
//! The engine runs CLUGP, the one algorithm here whose passes it adapts; any
//! other [`DistAlgo`] is refused with [`PartitionError::InvalidParam`] before
//! a worker is configured (the one-pass baselines run as their monoliths).
//!
//! The coordinator owns no edge data. It splits the input into
//! contiguous per-worker ranges, sequences the passes as barriers (the
//! streaming token travels worker 0‥N−1 inside each pass that writes shared
//! state), and runs the pass-2 work the monolith does between streams:
//! cluster compaction, the cluster graph, and the game/greedy cluster
//! assignment. No table is paged. Sequenced pass 1 hands its whole state
//! from turn to turn — `Coord::run_stage` forwards one
//! [`Msg::Pass1Frontier`] per hand-off, as received — and from the end of
//! pass 1 the coordinator owns the tables (`ClugpTables`): a stage that only
//! reads one is cast the whole of it up front (`cast_table`, one
//! [`Msg::TableCast`]) and a barrier dumps them, both from memory.
//!
//! Whatever a worker reports is held against what the coordinator handed
//! out before it is indexed with (`Coord::accept_part`, `merge_pairs`,
//! `import_turn_state`, the frontier merge, the compaction): a typed error
//! naming the worker, not a panic.
//!
//! # Fault tolerance
//!
//! With supervision enabled ([`SuperviseConfig::max_retries`] > 0) the
//! coordinator runs as a `Supervisor`: at every pass barrier it commits
//! a [`Checkpoint`] (token + tables), and when a worker link fails
//! retryably mid-pass — EOF, io error, deadline timeout,
//! undecodable frame — it heals the fleet (probes every worker with
//! `ResetTables`, respawns the dead ones through the host-provided
//! [`Respawner`], reconfigures them) and replays the flow from the last
//! committed barrier. Replay is exact because the pass kernels are
//! deterministic, every worker restarts empty and the coordinator reloads its
//! tables, so a recovered run stays bit-identical to an undisturbed one.
//! Worker-*reported* errors ([`Msg::Err`], e.g. a corrupt pack block) stay
//! fatal: they are deterministic and would only recur. The coordinator itself
//! is not survivable — it holds the only copy of the in-flight pass results.

use super::checkpoint::{load_latest, write_checkpoint, Checkpoint, TableDump};
use super::fault::{FaultInjectingTransport, FaultPlan};
use super::proto::{AlgoSpec, InputSpec, Msg, PairsPayload, PartIds, Stage, Token, WorkerSetup};
use super::transport::{NetStats, Transport};
use super::worker::{
    cluster_partition_map, import_turn_state, migration_tag, unexpected, T_CPART, T_MAIN,
};
use super::{pack_input_specs, split_ranges, AmpcMode, DistConfig, DistInput, SuperviseConfig};
use crate::clugp::cluster_graph::{merge_weighted, ClusterGraph};
use crate::clugp::clustering::{compact_clusters, NO_CLUSTER};
use crate::clugp::stage::{VertexState, ROW_WIDTH};
use crate::clugp::transform::load_cap;
use crate::clugp::{greedy_assign, solve_game, ClugpConfig, ClusterAssignMode};
use crate::error::{FaultKind, PartitionError, Result};
use crate::partition::Partitioning;
use crate::vertex_table::check_cap;
use clugp_graph::pack::ShardedPackReader;
use clugp_obs::{self as obs, TraceRecord};
use rustc_hash::FxHashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use super::algo::DistAlgo;

/// Host-provided factory for a replacement worker link: kills whatever is
/// left of worker `i`, brings up a fresh one (thread or process), and
/// returns the coordinator's end of its transport, ready for `Configure`.
pub type Respawner<'a> = &'a mut dyn FnMut(u32) -> Result<Box<dyn Transport>>;

/// The result of a distributed run.
#[derive(Debug)]
pub struct DistOutcome {
    /// The final partitioning — bit-identical to the monolith's for the
    /// same stream.
    pub partitioning: Partitioning,
    /// Bytes/frames exchanged over all coordinator↔worker links,
    /// including links retired by respawns.
    pub net: NetStats,
    /// Worker count the run used.
    pub workers: u32,
    /// Pass replays the supervisor performed (0 on an undisturbed run).
    pub recoveries: u32,
    /// Total microseconds spent persisting barrier checkpoints to disk
    /// (encode + tmp write + fsync + rename). Measured on every run with
    /// a checkpoint directory, traced or not.
    pub ckpt_write_us: u64,
    /// Checkpoints persisted to disk.
    pub ckpt_writes: u64,
    /// Total microseconds spent resetting the fleet to a checkpointed
    /// barrier (one probe per worker; no row travels back).
    pub ckpt_restore_us: u64,
    /// Checkpoint restores performed (resumes and recoveries).
    pub ckpt_restores: u64,
    /// Merged observability record: coordinator lane plus one lane per
    /// worker. Empty unless [`super::DistConfig::trace`] was set.
    pub trace: TraceRecord,
}

/// Prefixes retryable fault details with the worker index so a terminal
/// error names the link that died.
fn tag_worker(w: usize, e: PartitionError) -> PartitionError {
    match e {
        PartitionError::Fault { kind, detail } => PartitionError::Fault {
            kind,
            detail: format!("worker {w}: {detail}"),
        },
        other => other,
    }
}

struct Coord {
    conns: Vec<Box<dyn Transport>>,
    /// Partition count; every id a worker reports must be below it.
    k: u32,
    /// Edges in each worker's range, as handed out with `Configure`.
    range_edges: Vec<u64>,
    /// How the workers make progress within a pass.
    mode: AmpcMode,
    /// Stats of links replaced by respawns (their traffic still counts).
    retired: NetStats,
    /// Reused encode buffer for every outgoing frame.
    scratch: Vec<u8>,
    /// Whether this run records observability events.
    trace_on: bool,
    /// The merged record: coordinator events land on lane 0 directly,
    /// worker frames are absorbed in `recv`.
    trace: TraceRecord,
}

impl Coord {
    /// Span start helper: a timestamp when tracing, 0 (unused) otherwise.
    fn t0(&self) -> u64 {
        if self.trace_on {
            obs::now_us()
        } else {
            0
        }
    }

    /// Records a coordinator-lane span ending now.
    fn span(&mut self, name: &str, start_us: u64, arg: u64) {
        if self.trace_on {
            self.trace.push(
                obs::LANE_COORDINATOR,
                obs::Event::span_since(name, start_us, arg),
            );
        }
    }

    /// Records a coordinator-lane point event.
    fn instant(&mut self, name: &str, arg: u64) {
        if self.trace_on {
            self.trace
                .push(obs::LANE_COORDINATOR, obs::Event::instant_now(name, arg));
        }
    }

    /// Merges a worker's flushed event frame into its lane, re-basing the
    /// sender's monotonic timestamps onto the coordinator clock via the
    /// `now_us` the frame was stamped with (multi-process lanes have
    /// unrelated epochs; in-process ones get an offset near zero).
    fn absorb_trace(
        &mut self,
        from: usize,
        frame_now_us: u64,
        dropped: u64,
        events: Vec<obs::Event>,
    ) {
        if !self.trace_on {
            return;
        }
        let offset = obs::now_us() as i64 - frame_now_us as i64;
        let lane = obs::worker_lane(from as u32);
        self.trace.dropped += dropped;
        for mut e in events {
            e.ts_us = (e.ts_us as i64 + offset).max(0) as u64;
            self.trace.push(lane, e);
        }
    }

    fn send(&mut self, to: usize, msg: &Msg) -> Result<()> {
        let mut buf = std::mem::take(&mut self.scratch);
        msg.encode_into(&mut buf);
        let res = self.conns[to].send(&buf).map_err(|e| tag_worker(to, e));
        self.scratch = buf;
        res
    }

    fn recv(&mut self, from: usize) -> Result<Msg> {
        loop {
            let frame = self.recv_frame(from)?;
            if let Some(msg) = self.decode(from, &frame)? {
                return Ok(msg);
            }
        }
    }

    fn recv_frame(&mut self, from: usize) -> Result<Vec<u8>> {
        self.conns[from].recv().map_err(|e| tag_worker(from, e))
    }

    /// Decodes a frame worker `from` sent; `None` for one that was absorbed
    /// here and is not what the caller is waiting for.
    fn decode(&mut self, from: usize, frame: &[u8]) -> Result<Option<Msg>> {
        match Msg::decode(frame) {
            // The observability side-channel piggybacks on every recv
            // path: absorb it and keep waiting for the frame this call
            // was actually after.
            Ok(Msg::TraceEvents {
                now_us,
                dropped,
                events,
            }) => {
                self.absorb_trace(from, now_us, dropped, events);
                Ok(None)
            }
            // A worker-reported error is deterministic (bad input,
            // corrupt pack): replaying it would only fail again, so it
            // stays fatal.
            Ok(Msg::Err { msg }) => Err(PartitionError::InvalidParam(msg)),
            Ok(msg) => Ok(Some(msg)),
            // An undecodable frame means the link itself mangled data:
            // a respawn gets a clean stream, so this is retryable.
            Err(e) => Err(PartitionError::fault(
                FaultKind::Corrupt,
                format!("worker {from}: undecodable frame: {e}"),
            )),
        }
    }

    /// Holds worker `w`'s `StageDone` against what the coordinator handed
    /// out, then widens the part onto `assignments`: an assigning stage
    /// accounts for every edge of the worker's range, any other stage for
    /// none, and every id is below `k`.
    fn accept_part(
        &self,
        w: usize,
        stage: Stage,
        part: &PartIds,
        assignments: &mut Vec<u32>,
    ) -> Result<()> {
        let named = |what: String| PartitionError::InvalidParam(format!("worker {w}: {what}"));
        let expect = if stage.assigns() {
            self.range_edges[w]
        } else {
            0
        };
        let got = part.len() as u64;
        if got != expect {
            return Err(named(format!(
                "StageDone accounts for {got} edges, its range holds {expect}"
            )));
        }
        part.append_to(self.k, assignments)
            .map_err(|e| named(e.to_string()))
    }

    /// Runs one stage as a barrier: the token travels worker 0‥N−1, and the
    /// state a stage writes rides the turn with it. The one frame worker `w`
    /// sends ahead of `StageDone` under the stage's [`Msg::hand_on_tag`] — a
    /// [`Msg::Pass1Frontier`] in pass 1 — is forwarded to worker `w + 1`
    /// ahead of its `RunStage`, as it was received: the worker that imports
    /// it holds it to the run. The last one is returned, undecoded, beside
    /// the token. Out of any other stage, or a second time in a turn, the
    /// verb is refused.
    fn run_stage(
        &mut self,
        stage: Stage,
        mut token: Token,
        assignments: &mut Vec<u32>,
    ) -> Result<(Token, Option<Vec<u8>>)> {
        let counters = |t: &Token| [t.next_raw, t.splits, t.migrations, t.reroutes, t.table_len];
        let hand_on = Msg::hand_on_tag(stage);
        let mut state: Option<Vec<u8>> = None;
        for w in 0..self.conns.len() {
            if let Some(seed) = state.take() {
                self.conns[w].send(&seed).map_err(|e| tag_worker(w, e))?;
            }
            let handed = counters(&token);
            let msg = Msg::RunStage {
                stage,
                token,
                mode: AmpcMode::Sequenced,
            };
            self.send(w, &msg)?;
            token = loop {
                let frame = self.recv_frame(w)?;
                if state.is_none() && hand_on.is_some() && frame.first() == hand_on.as_ref() {
                    state = Some(frame);
                    continue;
                }
                match self.decode(w, &frame)? {
                    // A trace frame, absorbed; or proof of life from a quiet
                    // worker, which resets the recv deadline by arriving.
                    None | Some(Msg::Heartbeat) => {}
                    Some(Msg::StageDone {
                        token,
                        assignments: part,
                        ..
                    }) => {
                        self.accept_part(w, stage, &part, assignments)?;
                        check_loads(format_args!("worker {w}"), &token, assignments.len())?;
                        break token;
                    }
                    Some(other) => return Err(unexpected(&other)),
                }
            };
            // Along a sequenced stage the token's counters only ever grow.
            if counters(&token)
                .iter()
                .zip(&handed)
                .any(|(now, was)| now < was)
            {
                return Err(PartitionError::InvalidParam(format!(
                    "worker {w}: StageDone carries a counter below the one it was handed"
                )));
            }
        }
        Ok((token, state))
    }

    /// Starts `stage` on every worker at once (each gets a clone of
    /// `token0`): every relaxed stage, and the CLUGP pairs stage in either
    /// mode — it reads a cast and writes nothing.
    fn broadcast_stage(&mut self, stage: Stage, token0: &Token) -> Result<()> {
        let msg = Msg::RunStage {
            stage,
            token: token0.clone(),
            mode: self.mode,
        };
        (0..self.conns.len()).try_for_each(|w| self.send(w, &msg))
    }

    /// Collects one [`Msg::StageDone`] per worker, in worker order (which
    /// is what makes the merges of a broadcast stage deterministic),
    /// returning the tokens.
    fn collect_stage_done(
        &mut self,
        stage: Stage,
        assignments: &mut Vec<u32>,
        mut pairs_out: Option<&mut Vec<PairsPayload>>,
    ) -> Result<Vec<Token>> {
        let mut tokens = Vec::with_capacity(self.conns.len());
        for w in 0..self.conns.len() {
            loop {
                match self.recv(w)? {
                    Msg::Heartbeat => {}
                    Msg::StageDone {
                        token,
                        assignments: part,
                        pairs,
                    } => {
                        self.accept_part(w, stage, &part, assignments)?;
                        if let (Some(out), Some(p)) = (pairs_out.as_deref_mut(), pairs) {
                            out.push(p);
                        }
                        tokens.push(token);
                        break;
                    }
                    other => return Err(unexpected(&other)),
                }
            }
        }
        Ok(tokens)
    }
}

/// Row widths of the tables a CLUGP barrier lists: `T_MAIN`, the raw volumes
/// pass 1 once paged (dumped empty ever since), `T_CPART`.
const CLUGPCK1_WIDTHS: [u32; 3] = [ROW_WIDTH as u32, 1, 1];

/// The loads a stage hands back must add up to the edges it assigned.
fn check_loads(who: std::fmt::Arguments<'_>, token: &Token, placed: usize) -> Result<()> {
    let sum = token.loads.iter().fold(0u64, |a, &l| a.wrapping_add(l));
    if sum != placed as u64 {
        return Err(PartitionError::InvalidParam(format!(
            "{who}: token loads sum to {sum}, {placed} edges are assigned"
        )));
    }
    Ok(())
}

/// Applies the scripted fault wrapper for `(worker, incarnation)`, if any.
fn wrap_link(
    faults: &FaultPlan,
    worker: u32,
    incarnation: u32,
    link: Box<dyn Transport>,
) -> Box<dyn Transport> {
    match faults.script(worker, incarnation) {
        Some(script) => Box::new(FaultInjectingTransport::new(link, script.clone())),
        None => link,
    }
}

/// The coordinator's supervision state: the live links, the policy, the
/// last committed barrier checkpoint, and everything needed to respawn
/// and reconfigure a worker ([`WorkerSetup`]s, incarnation counters, the
/// fault plan for wrapping replacement links).
struct Supervisor<'a> {
    coord: Coord,
    policy: SuperviseConfig,
    faults: FaultPlan,
    respawn: Option<Respawner<'a>>,
    /// Retained setups for reconfiguring respawned workers. Only kept
    /// when `max_retries > 0` (inline inputs make this a full copy of the
    /// edge stream).
    setups: Vec<WorkerSetup>,
    incarnation: Vec<u32>,
    /// Last committed checkpoint; recovery replays the flow from here.
    last: Option<Checkpoint>,
    ckpt_dir: Option<PathBuf>,
    recoveries: u32,
    /// Checkpoint persist/restore durations, accumulated on every run
    /// (the metrics snapshot and [`DistOutcome`] report them even when
    /// event tracing is off).
    ckpt_write_us: u64,
    ckpt_writes: u64,
    ckpt_restore_us: u64,
    ckpt_restores: u64,
    // Checkpoint fingerprint, filled in by `drive`. Relaxed runs use a
    // distinct "<name>+relaxed" fingerprint: their checkpoints are not
    // interchangeable with sequenced ones.
    algo_name: String,
    m: u64,
    n_hint: u64,
}

impl<'a> Supervisor<'a> {
    fn new(
        conns: Vec<Box<dyn Transport>>,
        algo_name: String,
        cfg: &DistConfig,
        respawn: Option<Respawner<'a>>,
    ) -> Supervisor<'a> {
        let n = conns.len();
        let policy = cfg.supervise.clone();
        let faults = cfg.faults.clone();
        let deadline = deadline_of(&policy);
        let conns: Vec<Box<dyn Transport>> = conns
            .into_iter()
            .enumerate()
            .map(|(w, link)| {
                let mut link = wrap_link(&faults, w as u32, 0, link);
                if deadline.is_some() {
                    link.set_deadline(deadline);
                }
                link
            })
            .collect();
        Supervisor {
            coord: Coord {
                conns,
                k: 0,
                range_edges: Vec::new(),
                mode: cfg.mode,
                retired: NetStats::default(),
                scratch: Vec::new(),
                trace_on: cfg.trace,
                trace: TraceRecord::default(),
            },
            policy,
            faults,
            respawn,
            setups: Vec::new(),
            incarnation: vec![0; n],
            last: None,
            ckpt_dir: cfg.checkpoint_dir.clone(),
            recoveries: 0,
            ckpt_write_us: 0,
            ckpt_writes: 0,
            ckpt_restore_us: 0,
            ckpt_restores: 0,
            algo_name,
            m: 0,
            n_hint: 0,
        }
    }

    fn workers(&self) -> u32 {
        self.coord.conns.len() as u32
    }

    /// Whether barriers commit checkpoints. On when recovery could use
    /// them (retries allowed) or the user asked for them on disk.
    fn checkpointing(&self) -> bool {
        self.policy.max_retries > 0 || self.ckpt_dir.is_some()
    }

    fn can_retry(&self) -> bool {
        self.recoveries < self.policy.max_retries
    }

    /// Backs off (exponentially), then probes every worker and respawns
    /// the dead ones. After `heal` the fleet is uniformly configured and
    /// empty, ready for [`Supervisor::restore`].
    fn recover(&mut self) -> Result<()> {
        self.recoveries += 1;
        self.coord.instant("retry", u64::from(self.recoveries));
        let exp = self.recoveries.saturating_sub(1).min(16);
        let wait = self.policy.backoff.saturating_mul(1u32 << exp);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        self.heal()
    }

    fn heal(&mut self) -> Result<()> {
        for w in 0..self.coord.conns.len() {
            // The probe doubles as the reset: a live worker answers
            // `ResetOk` and is left empty; anything else — timeout, EOF,
            // a stale frame from the aborted pass — condemns the link.
            if self.probe_reset(w).is_ok() {
                continue;
            }
            self.respawn_worker(w)?;
        }
        Ok(())
    }

    fn probe_reset(&mut self, w: usize) -> Result<()> {
        self.coord.send(w, &Msg::ResetTables)?;
        match self.coord.recv(w)? {
            Msg::ResetOk => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn respawn_worker(&mut self, w: usize) -> Result<()> {
        let Some(respawn) = self.respawn.as_mut() else {
            return Err(PartitionError::fault(
                FaultKind::Disconnected,
                format!("worker {w} is unresponsive and the host provides no respawner"),
            ));
        };
        if w >= self.setups.len() {
            return Err(PartitionError::fault(
                FaultKind::Disconnected,
                format!("worker {w} lost before its setup was retained"),
            ));
        }
        self.coord.retired.merge(self.coord.conns[w].stats());
        self.coord.instant("respawn", w as u64);
        let link = respawn(w as u32).map_err(|e| tag_worker(w, e))?;
        self.incarnation[w] += 1;
        let mut link = wrap_link(&self.faults, w as u32, self.incarnation[w], link);
        let deadline = deadline_of(&self.policy);
        if deadline.is_some() {
            link.set_deadline(deadline);
        }
        self.coord.conns[w] = link;
        self.coord
            .send(w, &Msg::Configure(Box::new(self.setups[w].clone())))?;
        match self.coord.recv(w)? {
            Msg::ConfigureOk => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Enters barrier `seq`: on a resume targeting exactly this barrier,
    /// resets the fleet and hands back the checkpointed token; otherwise
    /// commits a fresh checkpoint of the current state and hands back `fresh`.
    fn enter_segment(
        &mut self,
        seq: u64,
        stage: Stage,
        fresh: Token,
        resume: Option<&Checkpoint>,
        tables: Option<&ClugpTables>,
    ) -> Result<Token> {
        if let Some(ck) = resume {
            if ck.seq == seq {
                self.restore(seq)?;
                return Ok(ck.token.clone());
            }
        }
        self.barrier(seq, stage, &fresh, tables)?;
        Ok(fresh)
    }

    /// Commits a checkpoint of the complete distributed state, from memory:
    /// every table is empty at a first barrier, and what lives past pass 1
    /// is in `tables` (the raw volumes do not: `compact_clusters` recomputed
    /// them from the degrees).
    fn barrier(
        &mut self,
        seq: u64,
        stage: Stage,
        token: &Token,
        tables: Option<&ClugpTables>,
    ) -> Result<()> {
        if !self.checkpointing() {
            return Ok(());
        }
        let empty = |&width: &u32| TableDump {
            width,
            ..Default::default()
        };
        let mut dumps: Vec<TableDump> = CLUGPCK1_WIDTHS.iter().map(empty).collect();
        let (mut m_real, mut num_clusters) = (0, 0);
        if let Some(tables) = tables {
            (m_real, num_clusters) = (tables.m_real, tables.num_clusters);
            let (main, map) = (T_MAIN as usize, T_CPART as usize);
            (dumps[main].keys, dumps[main].rows) = tables.vertex_rows();
            (dumps[map].keys, dumps[map].rows) = tables.cluster_partition_rows();
        }
        let ck = Checkpoint {
            seq,
            stage,
            token: token.clone(),
            algo: self.algo_name.clone(),
            k: self.coord.k,
            m: self.m,
            n_hint: self.n_hint,
            m_real,
            num_clusters,
            tables: dumps,
        };
        if let Some(dir) = &self.ckpt_dir {
            let t0 = self.coord.t0();
            let started = Instant::now();
            write_checkpoint(dir, &ck)?;
            self.ckpt_write_us += started.elapsed().as_micros() as u64;
            self.ckpt_writes += 1;
            self.coord.span("checkpoint:write", t0, seq);
        }
        self.last = Some(ck);
        Ok(())
    }

    /// Resets every worker: no row travels back, a first barrier has none and
    /// the later ones' are the coordinator's to reload and cast. A mid-pass
    /// failure can leave any worker holding a forwarded frontier or a cast,
    /// so restore always resets the whole fleet, not just the respawned links.
    fn restore(&mut self, seq: u64) -> Result<()> {
        let t0 = self.coord.t0();
        let started = Instant::now();
        for w in 0..self.coord.conns.len() {
            self.probe_reset(w)?;
        }
        self.ckpt_restore_us += started.elapsed().as_micros() as u64;
        self.ckpt_restores += 1;
        self.coord.span("checkpoint:restore", t0, seq);
        Ok(())
    }

    fn shutdown(&mut self) {
        for w in 0..self.coord.conns.len() {
            let _ = self.coord.send(w, &Msg::Shutdown);
        }
    }

    fn net(&self) -> NetStats {
        let mut net = self.coord.retired;
        for conn in &self.coord.conns {
            net.merge(conn.stats());
        }
        net
    }
}

/// The per-link recv/send deadline, when supervision needs one. Active
/// retries force a bound even without an explicit timeout: probing a
/// possibly-dead worker must not hang.
fn deadline_of(policy: &SuperviseConfig) -> Option<Duration> {
    if policy.worker_timeout.is_some() || policy.max_retries > 0 {
        Some(policy.effective_timeout())
    } else {
        None
    }
}

/// Runs the coordinator over `conns` (one transport per worker) and
/// returns the merged outcome. Workers are always sent `Shutdown`, even
/// when the run fails, so hosting threads can join. `respawn`, when
/// provided, lets the supervisor replace a dead worker mid-run (see the
/// module docs on fault tolerance).
pub fn run_coordinator(
    conns: Vec<Box<dyn Transport>>,
    algo: &DistAlgo,
    input: DistInput<'_>,
    k: u32,
    cfg: &DistConfig,
    respawn: Option<Respawner<'_>>,
) -> Result<DistOutcome> {
    let workers = conns.len() as u32;
    let algo_name = match cfg.mode {
        AmpcMode::Sequenced => algo.name().to_string(),
        AmpcMode::Relaxed => format!("{}+relaxed", algo.name()),
    };
    let mut sup = Supervisor::new(conns, algo_name, cfg, respawn);
    let result = drive(&mut sup, algo, input, k, cfg);
    sup.shutdown();
    Ok(DistOutcome {
        partitioning: result?,
        net: sup.net(),
        workers,
        recoveries: sup.recoveries,
        ckpt_write_us: sup.ckpt_write_us,
        ckpt_writes: sup.ckpt_writes,
        ckpt_restore_us: sup.ckpt_restore_us,
        ckpt_restores: sup.ckpt_restores,
        trace: std::mem::take(&mut sup.coord.trace),
    })
}

/// The configuration of the one algorithm the engine runs, or the refusal
/// of any other, before a worker is spawned or configured.
pub(crate) fn engine_config(algo: &DistAlgo) -> Result<&ClugpConfig> {
    match algo {
        DistAlgo::Clugp(cfg) => Ok(cfg),
        other => Err(PartitionError::InvalidParam(format!(
            "the coordinator/worker engine runs CLUGP only, not {} \
             (the one-pass baselines run as their monoliths)",
            other.name()
        ))),
    }
}

fn drive(
    sup: &mut Supervisor<'_>,
    algo: &DistAlgo,
    input: DistInput<'_>,
    k: u32,
    cfg: &DistConfig,
) -> Result<Partitioning> {
    let workers = sup.workers();
    // Same validation order as the monolith: config first, then k, then the
    // table-cap check.
    let clugp = engine_config(algo)?;
    clugp.validate()?;
    if k == 0 {
        return Err(PartitionError::InvalidParam("k must be at least 1".into()));
    }

    let (n_hint, m_hint, inputs) = match input {
        DistInput::Edges {
            num_vertices,
            edges,
        } => {
            let specs: Vec<InputSpec> = split_ranges(edges.len() as u64, workers)
                .into_iter()
                .map(|(s, e)| InputSpec::Inline {
                    edges: edges[s as usize..e as usize].to_vec(),
                })
                .collect();
            (num_vertices, edges.len() as u64, specs)
        }
        DistInput::Pack(path) => {
            let (n, m) = {
                let reader = ShardedPackReader::open(path)?;
                (reader.header().num_vertices, reader.header().num_edges)
            };
            (n, m, pack_input_specs(path, workers)?)
        }
    };
    check_cap("num_vertices hint", n_hint, clugp.max_vertices)?;
    let algo_spec = AlgoSpec {
        splitting: clugp.splitting,
        migration: migration_tag(clugp.migration),
        max_vertices: clugp.max_vertices,
    };

    let range_edges = inputs
        .iter()
        .map(|input| match input {
            InputSpec::Inline { edges } => edges.len() as u64,
            InputSpec::Pack { edges, .. } => *edges,
        })
        .collect();
    let heartbeat_ms = cfg.supervise.heartbeat_ms();
    let mut setups = Vec::with_capacity(workers as usize);
    for (w, input) in inputs.into_iter().enumerate() {
        setups.push(WorkerSetup {
            worker: w as u32,
            workers,
            k,
            chunk: cfg.chunk_edges.min(u32::MAX as usize) as u32,
            heartbeat_ms,
            algo: algo_spec.clone(),
            input,
            trace: cfg.trace,
        });
    }
    for (w, setup) in setups.iter().enumerate() {
        sup.coord
            .send(w, &Msg::Configure(Box::new(setup.clone())))?;
    }
    for w in 0..workers as usize {
        match sup.coord.recv(w)? {
            Msg::ConfigureOk => {}
            other => return Err(unexpected(&other)),
        }
    }

    sup.coord.k = k;
    sup.coord.range_edges = range_edges;
    sup.m = m_hint;
    sup.n_hint = n_hint;
    if sup.policy.max_retries > 0 {
        // Only retained when a respawn could need to re-Configure.
        sup.setups = setups;
    }

    let mut resume: Option<Checkpoint> = if cfg.resume {
        let Some(dir) = &sup.ckpt_dir else {
            return Err(PartitionError::InvalidParam(
                "resume requires a checkpoint directory".into(),
            ));
        };
        load_latest(dir, &sup.algo_name, k, m_hint)
    } else {
        None
    };

    // The recovery loop: replay the flow from the last committed barrier
    // until it finishes, a fault exhausts the retry budget, or a fatal
    // (deterministic) error surfaces.
    loop {
        match clugp_flow(sup, clugp, n_hint, m_hint, k, resume.as_ref()) {
            Ok(p) => return Ok(p),
            Err(e) if e.is_retryable() && sup.can_retry() => {
                sup.recover()?;
                resume = sup.last.clone();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Folds per-worker relaxed tokens into one, in worker order: the loads sum,
/// and must add up to the `placed` edges the workers assigned.
fn merge_relaxed_tokens(tokens: Vec<Token>, placed: usize) -> Result<Token> {
    let mut iter = tokens.into_iter();
    let mut merged = iter.next().unwrap_or_default();
    for t in iter {
        for (a, b) in merged.loads.iter_mut().zip(&t.loads) {
            *a = a.wrapping_add(*b);
        }
        merged.cursor = merged.cursor.max(t.cursor);
        merged.next_raw += t.next_raw;
        merged.splits += t.splits;
        merged.migrations += t.migrations;
        merged.reroutes += t.reroutes;
        merged.table_len = merged.table_len.max(t.table_len);
    }
    check_loads(format_args!("relaxed stage"), &merged, placed)?;
    Ok(merged)
}

/// Collects one locally-clustered [`Msg::Pass1Frontier`] per worker and
/// merges it into the global vertex state, in worker order.
///
/// Each worker's raw cluster ids are offset by the running total, so ids
/// stay distinct. A vertex claimed by several workers (it appears in more
/// than one range) goes to the cluster with the larger volume, ties to
/// the lower-indexed worker (strict `>` while scanning workers in
/// ascending order); degrees sum and divided-flags OR across claims.
/// Returns the global raw-cluster count.
fn merge_pass1_frontiers(coord: &mut Coord, state: &mut VertexState) -> Result<u64> {
    // The winning claim's volume per vertex, keyed by vertex id.
    let mut best_vol: FxHashMap<u32, u64> = FxHashMap::default();
    let mut base = 0u64;
    for w in 0..coord.conns.len() {
        let named = |what: String| PartitionError::InvalidParam(format!("worker {w}: {what}"));
        let (keys, rows, vol) = loop {
            match coord.recv(w)? {
                Msg::Heartbeat => {}
                Msg::Pass1Frontier { keys, rows, vol } => break (keys, rows, vol),
                other => return Err(unexpected(&other)),
            }
        };
        if rows.len() != keys.len() * ROW_WIDTH {
            return Err(named("frontier payload does not match key count".into()));
        }
        let total = base + vol.len() as u64;
        if total >= u64::from(NO_CLUSTER) {
            return Err(named(format!(
                "relaxed pass 1 produced {total} raw clusters, above the id limit"
            )));
        }
        for (&key, row) in keys.iter().zip(rows.chunks_exact(ROW_WIDTH)) {
            let v = state.ensure_key(key)?;
            let (local, d, dv) = VertexState::unpack(row);
            state.degree[v] = state.degree[v].saturating_add(d);
            state.divided[v] |= dv;
            if local != NO_CLUSTER {
                let Some(&cv) = vol.get(local as usize) else {
                    return Err(named(format!(
                        "frontier row of vertex {key} names local cluster {local}, \
                         the frontier holds {} volumes",
                        vol.len()
                    )));
                };
                if best_vol.get(&v).is_none_or(|&b| cv > b) {
                    best_vol.insert(v, cv);
                    state.cluster_of[v] = base as u32 + local;
                }
            }
        }
        base = total;
    }
    Ok(base)
}

/// Sequenced pass 1's result: the frontier of the last turn *is* the state —
/// there was one writer at a time, so there is no merge rule — held to the run
/// (it ends with `next_raw` raw clusters) as it is decoded into `state`.
/// Returns the raw-cluster count.
fn import_last_frontier(
    coord: &mut Coord,
    frontier: Option<Vec<u8>>,
    next_raw: u64,
    state: &mut VertexState,
) -> Result<u64> {
    let last = coord.conns.len().saturating_sub(1);
    let decoded = match frontier {
        Some(frame) => coord.decode(last, &frame)?,
        None => None,
    };
    let Some(Msg::Pass1Frontier { keys, rows, vol }) = decoded else {
        return Err(PartitionError::InvalidParam(format!(
            "worker {last}: pass 1 ended without its frontier"
        )));
    };
    import_turn_state(last, state, (&keys, &rows, &vol), next_raw)?;
    Ok(vol.len() as u64)
}

/// Merges the workers' cluster-graph partials, in worker (= stream) order.
/// A partial is indexed with: every cluster id it names must be a dense id
/// of this run, its `agg` the strictly ascending `lo < hi` key list the
/// merge and the CSR build assume, and no summed weight may overflow.
fn merge_pairs(parts: &[PairsPayload], num_clusters: u64) -> Result<ClusterGraph> {
    let mut intra = vec![0u64; num_clusters as usize];
    let mut agg: Vec<(u64, u32)> = Vec::new();
    for (w, part) in parts.iter().enumerate() {
        let named = |what: String| {
            PartitionError::InvalidParam(format!("worker {w}: pairs partial {what}"))
        };
        for &(c, n) in &part.intra {
            let Some(count) = intra.get_mut(c as usize) else {
                return Err(named(format!("names cluster {c} of {num_clusters}")));
            };
            *count += n;
        }
        let mut prev = None;
        for &(key, _) in &part.agg {
            let (lo, hi) = (key >> 32, key & 0xFFFF_FFFF);
            if lo >= hi || hi >= num_clusters {
                return Err(named(format!(
                    "names the cluster pair ({lo}, {hi}) of {num_clusters}"
                )));
            }
            if prev.replace(key).is_some_and(|p| p >= key) {
                return Err(named("is not sorted by cluster pair".into()));
            }
        }
        agg = merge_weighted(&agg, &part.agg)
            .ok_or_else(|| named("overflows a cluster pair's weight".into()))?;
    }
    Ok(ClusterGraph::from_parts(num_clusters as u32, intra, &agg))
}

/// The CLUGP tables from the end of pass 1 on. Nothing writes them after
/// `compact_clusters`, so the coordinator is their one owner: a barrier dumps
/// them and a cast encodes them from here.
struct ClugpTables {
    /// Exact edge count, independent of the hint (each edge added 2 degrees).
    m_real: u64,
    num_clusters: u64,
    /// [`T_MAIN`]: the compacted vertex rows.
    vertices: VertexState,
    /// [`T_CPART`]: dense cluster → partition; empty until pass 2b.
    cluster_partition: Vec<u32>,
}

impl ClugpTables {
    /// [`T_MAIN`] as `(keys, flattened rows)`: every vertex, ascending.
    fn vertex_rows(&self) -> (Vec<u64>, Vec<u64>) {
        let keys: Vec<u64> = (0..self.vertices.len()).collect();
        let rows = self.vertices.export(&keys);
        (keys, rows)
    }

    /// [`T_CPART`] as `(keys, rows)`: every dense cluster, ascending.
    fn cluster_partition_rows(&self) -> (Vec<u64>, Vec<u64>) {
        let parts = self.cluster_partition.iter().map(|&p| u64::from(p));
        let keys = 0..self.cluster_partition.len() as u64;
        (keys.collect(), parts.collect())
    }

    /// Reloads the tables a checkpoint of barrier 2 or 3 holds. The file is
    /// outside input and its rows are cast and indexed with as they are, so
    /// each is held to the run first: a vertex below the cap and in a cluster
    /// the run has, a cluster count some vertex set backs, one partition below
    /// `k` per dense cluster. Raw volumes (slot 1's rows, which older builds
    /// dumped) are not read. An error names the file a barrier is written to.
    fn from_checkpoint(
        ck: &Checkpoint,
        n_hint: u64,
        max_vertices: u64,
        k: u32,
    ) -> Result<ClugpTables> {
        let file = Checkpoint::file_name(ck.seq);
        let bad = |what: String| PartitionError::InvalidParam(format!("{file}: {what}"));
        if ck.seq > 3 || ck.tables.len() <= T_CPART as usize {
            let tables = ck.tables.len();
            return Err(bad(format!(
                "barrier {} with {tables} tables: a CLUGP run has three of each",
                ck.seq
            )));
        }
        let (main, map) = (&ck.tables[T_MAIN as usize], &ck.tables[T_CPART as usize]);
        let mut vertices = VertexState::new(n_hint, max_vertices)?;
        vertices
            .import(&main.keys, &main.rows)
            .map_err(|e| bad(format!("vertex table: {e}")))?;
        // Word 0 is `cluster + 1`, read before `unpack` narrows it. Every
        // dense cluster has a member, which bounds what the count may size.
        let n = ck.num_clusters;
        let mut rows = main.rows.chunks_exact(ROW_WIDTH);
        if n > main.keys.len() as u64 || rows.any(|row| row[0] > n) {
            let vertices = main.keys.len();
            return Err(bad(format!(
                "vertex table: {vertices} rows do not name {n} dense clusters"
            )));
        }
        let mut cluster_partition = Vec::new();
        if ck.seq == 3 {
            let named = |what| bad(format!("cluster map of {n}: {what}"));
            if map.keys.len() as u64 != n {
                return Err(named(format!("{} keys", map.keys.len())));
            }
            cluster_partition =
                cluster_partition_map(&map.keys, &map.rows, k).map_err(|e| named(e.to_string()))?;
        }
        Ok(ClugpTables {
            m_real: ck.m_real,
            num_clusters: n,
            vertices,
            cluster_partition,
        })
    }
}

/// Broadcasts `table` to the whole fleet as a read-only [`Msg::TableCast`]
/// mirror, which a worker keeps until it is reset. The frame is encoded once,
/// whatever the worker count.
fn cast_table(coord: &mut Coord, table: u8, (keys, rows): (Vec<u64>, Vec<u64>)) -> Result<()> {
    let frame = Msg::TableCast { table, keys, rows }.encode();
    for (w, conn) in coord.conns.iter_mut().enumerate() {
        conn.send(&frame).map_err(|e| tag_worker(w, e))?;
    }
    Ok(())
}

/// The CLUGP three-pass flow: pass 1 clusters each range against the whole
/// vertex/volume tables, which every worker ships as a frontier; the
/// coordinator then assembles the vertex state, compacts clusters
/// (recomputing dense volumes from degrees) and from there on owns the tables
/// ([`ClugpTables`]): it casts the vertex rows for the pairs stage, merges the
/// cluster-graph partials, solves the game, casts the cluster → partition map
/// and runs the transformation pass.
///
/// Pass 1 writes the tables, so the mode decides how it runs: seeded, one
/// worker at a time, the last frontier the result (`import_last_frontier`),
/// or unseeded, all at once, the frontiers merged (`merge_pass1_frontiers`).
/// The other two stages only read them, through `cast_table` in both modes;
/// the transformation still travels the token when sequenced, to keep the
/// load cap hard, and that is all the mode changes about them.
///
/// The flow is segmented at three barriers (before pass 1, pass 2a, and
/// pass 3); `resume` — from crash recovery or `--resume` — skips segments
/// the checkpoint already finished, reloading the tables from it instead of
/// recomputing them.
fn clugp_flow(
    sup: &mut Supervisor<'_>,
    cfg: &ClugpConfig,
    n_hint: u64,
    m_hint: u64,
    k: u32,
    resume: Option<&Checkpoint>,
) -> Result<Partitioning> {
    let relaxed = sup.coord.mode == AmpcMode::Relaxed;
    let target = resume.map_or(0, |ck| ck.seq);

    let mut tables = if target > 1 {
        let ck = resume.expect("target > 1 implies a checkpoint");
        ClugpTables::from_checkpoint(ck, n_hint, cfg.max_vertices, k)?
    } else {
        // Pass 1 (same hint rule as the monolith: no length hint disables
        // splitting by an effectively infinite vmax).
        let vmax = if m_hint > 0 {
            cfg.vmax(m_hint, k)
        } else {
            u64::MAX
        };
        let stage = Stage::ClugpPass1 { vmax };
        let token0 = sup.enter_segment(1, stage, Token::default(), resume, None)?;
        let t0 = sup.coord.t0();

        // Assemble the authoritative vertex state from the frontiers the
        // workers ship ahead of StageDone: sequenced, each turn is seeded
        // with the one before it and the last is the state; relaxed, all
        // start empty at once and the frontiers are merged.
        let mut state = VertexState::new(n_hint, cfg.max_vertices)?;
        let raw_count = if relaxed {
            sup.coord.broadcast_stage(stage, &token0)?;
            let raw_count = merge_pass1_frontiers(&mut sup.coord, &mut state)?;
            sup.coord.collect_stage_done(stage, &mut Vec::new(), None)?;
            raw_count
        } else {
            let (token, last) = sup.coord.run_stage(stage, token0, &mut Vec::new())?;
            import_last_frontier(&mut sup.coord, last, token.next_raw, &mut state)?
        };
        let m_real = state.degree.iter().map(|&d| u64::from(d)).sum::<u64>() / 2;
        // An edge mints at most four clusters (two allocations, two splits);
        // the watermark sizes vectors, so it is held to that first.
        if raw_count > m_real.saturating_mul(4) {
            return Err(PartitionError::InvalidParam(format!(
                "pass 1 reports {raw_count} raw clusters for {m_real} edges"
            )));
        }

        // Pass 2a prelude: dense cluster ids (volumes recomputed from
        // degrees, so the raw volume table is no longer needed).
        let (num_clusters, _volumes) = compact_clusters(&mut state, raw_count as usize)?;
        // Pass 1 proper plus the coordinator's assembly and compaction
        // between passes — the "streaming clustering" half of Fig. 10.
        sup.coord.span("pass:pass1", t0, m_real);
        ClugpTables {
            m_real,
            num_clusters: u64::from(num_clusters),
            vertices: state,
            cluster_partition: Vec::new(),
        }
    };

    if target <= 2 {
        // Pass 2a: the cluster graph, from per-worker partials merged in
        // worker (= stream) order. A partial is a pure function of a range
        // and the dense cluster ids, so the workers stream at once in
        // either mode.
        let num_clusters = tables.num_clusters;
        let stage = Stage::ClugpPairs { num_clusters };
        let token0 = sup.enter_segment(2, stage, Token::default(), resume, Some(&tables))?;
        let t0 = sup.coord.t0();
        let mut no_assign = Vec::new();
        let mut pairs: Vec<PairsPayload> = Vec::new();
        // A cast must follow enter_segment: a resumed run resets the fleet
        // first, mirrors included.
        cast_table(&mut sup.coord, T_MAIN, tables.vertex_rows())?;
        sup.coord.broadcast_stage(stage, &token0)?;
        sup.coord
            .collect_stage_done(stage, &mut no_assign, Some(&mut pairs))?;
        let cg = merge_pairs(&pairs, num_clusters)?;

        // Pass 2b: cluster → partition.
        tables.cluster_partition = match cfg.assign_mode {
            ClusterAssignMode::Game => solve_game(&cg, k, cfg)?.partition_of,
            ClusterAssignMode::Greedy => greedy_assign::greedy_assign(&cg, k),
        };
        // Cluster graph + game/greedy assignment — the "partitioning" half
        // of Fig. 10.
        sup.coord.span("pass:pairs", t0, num_clusters);
    }

    // Pass 3: partition transformation under the balance cap.
    let lmax = load_cap(cfg.tau, tables.m_real, k);
    let stage = Stage::ClugpTransform { lmax };
    let fresh = Token {
        loads: vec![0; k as usize],
        ..Default::default()
    };
    let token0 = sup.enter_segment(3, stage, fresh, resume, Some(&tables))?;
    let t0 = sup.coord.t0();
    let mut assignments = Vec::new();
    // The workers keep the vertex rows of the pairs stage. A run resumed
    // here has not run one, and its fleet was just reset.
    if target == 3 {
        cast_table(&mut sup.coord, T_MAIN, tables.vertex_rows())?;
    }
    cast_table(&mut sup.coord, T_CPART, tables.cluster_partition_rows())?;
    let token = if relaxed {
        sup.coord.broadcast_stage(stage, &token0)?;
        let tokens = sup
            .coord
            .collect_stage_done(stage, &mut assignments, None)?;
        merge_relaxed_tokens(tokens, assignments.len())?
    } else {
        sup.coord.run_stage(stage, token0, &mut assignments)?.0
    };
    sup.coord
        .span("pass:transform", t0, assignments.len() as u64);
    Ok(Partitioning {
        k,
        // `table_len` is the max vertex id (+1) any worker saw — the same
        // quantity the monolith reads off its table — so this matches the
        // pre-supervision `n_hint.max(cluster_of.len())` while staying
        // computable on a resumed run that never ran pass 1.
        num_vertices: n_hint.max(token.table_len),
        assignments,
        loads: token.loads,
    })
}

#[cfg(test)]
mod tests {
    use super::super::proto::forged_stage_done;
    use super::super::transport::channel_pair;
    use super::super::worker::tests::triangle_frontier;
    use super::*;
    use clugp_graph::types::Edge;

    fn stage_done(loads: Vec<u64>, width: u8, count: u64, ids: &[u8]) -> Vec<u8> {
        let token = Token {
            loads,
            ..Default::default()
        };
        forged_stage_done(&token, width, count, ids)
    }

    /// Checkpoint slot 1: the raw volumes older builds dumped, empty today.
    const T_VOL: u8 = 1;

    /// Runs the coordinator (`algo`, k = 4, four edges, no supervision)
    /// against `workers` hand-played workers that ack `Configure` and answer
    /// `RunStage` with the frames `reply` makes of their index and the stage.
    fn play(
        algo: DistAlgo,
        mode: AmpcMode,
        workers: usize,
        reply: impl Fn(usize, Stage) -> Vec<Vec<u8>> + Send + Sync + 'static,
    ) -> Result<DistOutcome> {
        let reply = std::sync::Arc::new(reply);
        let (conns, forgers): (Vec<Box<dyn Transport>>, Vec<_>) = (0..workers)
            .map(|w| {
                let (coord, mut worker) = channel_pair(8);
                let reply = reply.clone();
                let forger = std::thread::spawn(move || loop {
                    let replies = match Msg::decode(&worker.recv().unwrap()).unwrap() {
                        Msg::Configure(_) => vec![Msg::ConfigureOk.encode()],
                        Msg::RunStage { stage, .. } => reply(w, stage),
                        Msg::TableCast { .. } | Msg::Pass1Frontier { .. } => Vec::new(),
                        // `Shutdown`, whatever the coordinator made of the replies.
                        _ => return,
                    };
                    for frame in replies {
                        // A coordinator that refused the first frame of a reply
                        // has hung up by the time the second is sent.
                        if worker.send(&frame).is_err() {
                            return;
                        }
                    }
                });
                (Box::new(coord) as Box<dyn Transport>, forger)
            })
            .unzip();
        let edges: Vec<Edge> = (0..4).map(|i| Edge::new(i, i + 1)).collect();
        let input = DistInput::Edges {
            num_vertices: 5,
            edges: &edges,
        };
        let cfg = DistConfig {
            mode,
            ..Default::default()
        };
        let out = run_coordinator(conns, &algo, input, 4, &cfg, None);
        for forger in forgers {
            forger.join().expect("forged worker");
        }
        out
    }

    /// A pass-1 `StageDone` (no assignments) whose token carries `next_raw`.
    fn pass1_done(next_raw: u64, pairs: Option<PairsPayload>) -> Vec<u8> {
        let token = Token {
            next_raw,
            ..Default::default()
        };
        let assignments = PartIds::for_k(4);
        Msg::StageDone {
            token,
            assignments,
            pairs,
        }
        .encode()
    }

    /// Sequenced CLUGP on one hand-played worker that hands the triangle's
    /// state on in pass 1, reports no cluster pair, and answers the
    /// transform with `reply`.
    fn run_against(reply: Vec<u8>) -> Result<DistOutcome> {
        play(
            DistAlgo::clugp(),
            AmpcMode::Sequenced,
            1,
            move |_, stage| match stage {
                Stage::ClugpPass1 { .. } => {
                    let (keys, rows, vol) = triangle_frontier();
                    vec![
                        Msg::Pass1Frontier { keys, rows, vol }.encode(),
                        pass1_done(3, None),
                    ]
                }
                Stage::ClugpPairs { .. } => vec![pass1_done(0, Some(PairsPayload::default()))],
                Stage::ClugpTransform { .. } => vec![reply.clone()],
            },
        )
    }

    /// The error of a CLUGP run over forged replies, which must be typed.
    fn clugp_failure(
        mode: AmpcMode,
        workers: usize,
        reply: impl Fn(usize, Stage) -> Vec<Vec<u8>> + Send + Sync + 'static,
    ) -> String {
        let err = play(DistAlgo::clugp(), mode, workers, reply).expect_err("forged reply");
        assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
        err.to_string()
    }

    #[test]
    fn a_forged_pairs_partial_or_frontier_is_a_typed_error_naming_the_worker() {
        // Three dense clusters. The coordinator indexes with every cluster id
        // a pairs partial names, and merges `agg` as a sorted key list.
        let pair = |lo: u64, hi: u64| (lo << 32 | hi, 1u32);
        let partial = |intra: &[(u64, u64)], agg: &[(u64, u32)]| PairsPayload {
            intra: intra.to_vec(),
            agg: agg.to_vec(),
        };
        for (pairs, needle) in [
            (partial(&[(3, 1)], &[]), "names cluster 3 of 3"),
            (partial(&[], &[pair(1, 3)]), "the cluster pair (1, 3) of 3"),
            (partial(&[], &[pair(2, 1)]), "the cluster pair (2, 1) of 3"),
            (partial(&[], &[pair(1, 2), pair(0, 1)]), "not sorted"),
        ] {
            let reply = move |_, stage| match stage {
                Stage::ClugpPass1 { .. } => {
                    let (keys, rows, vol) = triangle_frontier();
                    vec![
                        Msg::Pass1Frontier { keys, rows, vol }.encode(),
                        pass1_done(3, None),
                    ]
                }
                _ => vec![pass1_done(0, Some(pairs.clone()))],
            };
            let msg = clugp_failure(AmpcMode::Sequenced, 1, reply);
            assert!(msg.contains("worker 0") && msg.contains(needle), "{msg}");
        }
        // A relaxed frontier names clusters local to its own `vol`.
        let frontier = |_, _| {
            let (keys, rows, vol) = (vec![0], vec![2, 1, 0], vec![5]);
            vec![
                Msg::Pass1Frontier { keys, rows, vol }.encode(),
                pass1_done(1, None),
            ]
        };
        let msg = clugp_failure(AmpcMode::Relaxed, 1, frontier);
        assert!(
            msg.contains("worker 0") && msg.contains("names local cluster 1"),
            "{msg}"
        );
    }

    #[test]
    fn a_forged_sequenced_frontier_is_a_typed_error_naming_the_worker() {
        // The last turn's frontier becomes the coordinator's vertex table and
        // its volume count sizes the compaction: it is held to the run
        // (`import_turn_state`, whose own test has every way of being wrong)
        // before anything is indexed with it.
        let reply = |(cluster, next_raw): (u64, u64)| {
            move |_, _| {
                let (keys, mut rows, vol) = triangle_frontier();
                rows[3] = cluster + 1;
                vec![
                    Msg::Pass1Frontier { keys, rows, vol }.encode(),
                    pass1_done(next_raw, None),
                ]
            }
        };
        for (forged, needle) in [
            (
                (3, 3),
                "pass-1 state names raw cluster 3, it holds 3 volumes",
            ),
            (
                (1, 5),
                "pass-1 state holds 3 volumes, 5 raw clusters were handed",
            ),
        ] {
            let msg = clugp_failure(AmpcMode::Sequenced, 1, reply(forged));
            assert!(msg.contains("worker 0") && msg.contains(needle), "{msg}");
        }
        // A turn that ends without handing its state on.
        let msg = clugp_failure(AmpcMode::Sequenced, 1, |_, _| vec![pass1_done(3, None)]);
        assert!(msg.contains("worker 0: pass 1 ended without"), "{msg}");
        // The counters of the token only ever grow from turn to turn: worker
        // 1 is handed 3 raw clusters and claims to have ended with 2.
        let backwards = move |w, stage| match w {
            0 => reply((1, 3))(w, stage),
            _ => reply((1, 2))(w, stage),
        };
        let msg = clugp_failure(AmpcMode::Sequenced, 2, backwards);
        assert!(
            msg.contains("worker 1: StageDone carries a counter"),
            "{msg}"
        );
        // The verb is one frame of a pass-1 turn: a second one in the turn,
        // and one out of any other stage, is a stray verb and refused as
        // such, never parked with the next worker.
        let twice = move |w, stage| {
            let mut frames = reply((1, 3))(w, stage);
            frames.insert(0, frames[0].clone());
            frames
        };
        let msg = clugp_failure(AmpcMode::Sequenced, 2, twice);
        assert!(msg.contains("unexpected protocol message: Pass1F"), "{msg}");
        // An honest pass 1, then the same frontier out of the pairs stage.
        let msg = clugp_failure(AmpcMode::Sequenced, 1, reply((1, 3)));
        assert!(msg.contains("unexpected protocol message: Pass1F"), "{msg}");
    }

    #[test]
    fn a_forged_checkpoint_is_a_typed_error_naming_the_file_at_load() {
        use super::super::run_distributed;
        let edges: Vec<Edge> = (0..40u32)
            .map(|i| Edge::new(i % 13, (i * 7 + 1) % 13))
            .collect();
        let input = DistInput::Edges {
            num_vertices: 13,
            edges: &edges,
        };
        let algo = DistAlgo::Clugp(ClugpConfig {
            max_vertices: 64,
            ..Default::default()
        });
        let dir = std::env::temp_dir().join(format!("clugpck-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |resume| DistConfig {
            workers: 2,
            checkpoint_dir: Some(dir.clone()),
            resume,
            ..Default::default()
        };
        let fresh = run_distributed(&algo, input, 4, &cfg(false)).unwrap();
        let file = |seq| dir.join(Checkpoint::file_name(seq));
        let honest = Checkpoint::decode(&std::fs::read(file(3)).unwrap()).unwrap();
        assert!(
            honest.tables[T_VOL as usize].keys.is_empty(),
            "dead table dumped"
        );
        let resumed_from = |ck: &Checkpoint| {
            std::fs::write(file(ck.seq), ck.encode()).unwrap();
            run_distributed(&algo, input, 4, &cfg(true))
        };

        // What a build before the coordinator owned the tables wrote still
        // resumes: raw volumes beside the vertex rows (ignored), the map in
        // the order of the shard scans rather than ascending.
        let mut old = honest.clone();
        old.tables[T_VOL as usize] = TableDump {
            width: 1,
            keys: vec![0, 1],
            rows: vec![9, 9],
        };
        old.tables[T_CPART as usize].keys.reverse();
        old.tables[T_CPART as usize].rows.reverse();
        let out = resumed_from(&old).expect("an older build's checkpoint");
        assert_eq!(out.partitioning.assignments, fresh.partitioning.assignments);

        // CRC-valid, and wrong about the run: each is refused when loaded,
        // before a row of it is cast or indexed with.
        type Forge = fn(&mut Checkpoint);
        let cases: [(Forge, &str); 9] = [
            (
                |ck| ck.tables[0].rows.truncate(4),
                "does not match key count",
            ),
            (
                |ck| ck.tables[0].keys[3] = 64,
                "exceeds the max_vertices cap 64",
            ),
            (
                |ck| ck.tables[0].rows[0] = ck.num_clusters + 1,
                "13 rows do not name",
            ),
            (|ck| ck.num_clusters = 1 << 40, "13 rows do not name"),
            (|ck| ck.tables.truncate(2), "with 2 tables"),
            (|ck| ck.tables[2].keys.clear(), ": 0 keys"),
            (|ck| ck.tables[2].rows.truncate(1), "do not give each"),
            (|ck| ck.tables[2].rows[0] = 4, "one of 4 partitions"),
            (
                |ck| ck.tables[2].keys[0] = ck.tables[2].keys[1],
                "do not give each",
            ),
        ];
        for (forge, needle) in cases {
            let mut ck = honest.clone();
            forge(&mut ck);
            let err = resumed_from(&ck).expect_err(needle);
            assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("ckpt-00003.clugpck") && msg.contains(needle),
                "{needle}: {msg}"
            );
        }
        // A barrier the flow does not have.
        let mut ck = honest.clone();
        ck.seq = 4;
        let err = resumed_from(&ck).expect_err("barrier 4").to_string();
        assert!(err.contains("ckpt-00004.clugpck: barrier 4"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_forged_stage_done_is_a_typed_error_naming_the_worker() {
        let honest = run_against(stage_done(vec![1, 1, 1, 1], 1, 4, &[0, 1, 2, 3])).unwrap();
        assert_eq!(honest.partitioning.assignments, [0, 1, 2, 3]);

        // What a worker reports is held against what it was handed: a part
        // shorter than its range, an id that is not below k, loads that do
        // not add up to the edges assigned.
        for (reply, needle) in [
            (
                stage_done(vec![1, 1, 1, 0], 1, 3, &[0, 1, 2]),
                "accounts for 3 edges, its range holds 4",
            ),
            (
                stage_done(vec![1, 1, 1, 1], 1, 4, &[0, 1, 2, 4]),
                "partition id 4 is not below k = 4",
            ),
            (
                stage_done(vec![1, 1, 1, 2], 1, 4, &[0, 1, 2, 3]),
                "loads sum to 5, 4 edges are assigned",
            ),
        ] {
            match run_against(reply).unwrap_err() {
                PartitionError::InvalidParam(msg) => {
                    assert!(msg.contains("worker 0") && msg.contains(needle), "{msg}");
                }
                other => panic!("expected InvalidParam, got {other}"),
            }
        }

        // A frame that is not a `StageDone` at all — an id width no encoder
        // writes, a count the frame cannot back (refused before a byte is
        // copied) — is the link's fault, typed as such.
        for reply in [
            stage_done(vec![1, 1, 1, 1], 3, 4, &[0; 12]),
            stage_done(vec![1, 1, 1, 1], 1, 1 << 40, &[0, 1, 2, 3]),
        ] {
            match run_against(reply).unwrap_err() {
                PartitionError::Fault { kind, detail } => {
                    assert_eq!(kind, FaultKind::Corrupt);
                    assert!(detail.contains("worker 0"), "{detail}");
                }
                other => panic!("expected a Corrupt fault, got {other}"),
            }
        }
    }
}
