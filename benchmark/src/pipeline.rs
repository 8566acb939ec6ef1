//! One timed sample: the `run-one` child process.
//!
//! Every sample runs in a fresh process so that allocator and page state,
//! `VmHWM` and panics stay its own. The child runs the workload's pipeline
//! `inner` times — open input file → partition → placement directory
//! written, timed with three `Instant`s — then reads its peak memory, and
//! only then loads the edge list to check what it emitted. It prints one
//! JSON object for the parent.

use crate::json;
use crate::spec::{Algo, Route, Workload, K};
use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::proto::Msg;
use clugp::ampc::{run_distributed, AmpcMode, DistConfig, DistInput, DistOutcome, SuperviseConfig};
use clugp::baselines::{Dbh, Hdrf};
use clugp::clugp::{transform, Clugp, ClugpConfig, ClusterGraph};
use clugp::metrics::PartitionQuality;
use clugp::partition_io::{read_placement_dir, write_placement_dir};
use clugp::state::ReplicaTable;
use clugp::{Partitioner, Partitioning};
use clugp_graph::io::open_edge_stream;
use clugp_graph::stream::{
    chunk_edges, collect_stream, for_each_chunk, EdgeStream, InMemoryStream, RestreamableStream,
};
use clugp_graph::types::Edge;
use clugp_obs::json::Obj;
use clugp_obs::{now_us, Event, TraceRecord, LANE_COORDINATOR};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What the parent asks of one child.
pub struct SampleArgs {
    pub workload: &'static Workload,
    pub pack: PathBuf,
    /// Scratch directory of this run: placement and checkpoints go here.
    pub scratch: PathBuf,
    /// Where to write the Chrome trace; `Some` makes this a traced sample.
    pub trace_out: Option<PathBuf>,
}

/// Harness-side spans, on the coordinator lane so the engine's own spans
/// nest under `bench:partition` by containment. Inert when not tracing.
struct Tracer {
    rec: Option<TraceRecord>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            rec: on.then(TraceRecord::default),
        }
    }

    fn on(&self) -> bool {
        self.rec.is_some()
    }

    /// Records the span `name` that began at `start_us` and ends now.
    fn span(&mut self, name: &str, start_us: u64) {
        if let Some(rec) = &mut self.rec {
            rec.push(LANE_COORDINATOR, Event::span_since(name, start_us, 0));
        }
    }
}

/// The opened input. Pack workloads stream the file on every pass; the
/// relaxed workload holds the collected edges, as the CLI does.
enum Source {
    Pack(Box<dyn RestreamableStream>),
    Mem(InMemoryStream),
}

impl Source {
    fn stream(&mut self) -> &mut dyn RestreamableStream {
        match self {
            Source::Pack(s) => s.as_mut(),
            Source::Mem(s) => s,
        }
    }
}

fn open(workload: &Workload, pack: &Path) -> Result<Source, String> {
    let mut stream = open_edge_stream(pack).map_err(|e| format!("open {}: {e}", pack.display()))?;
    if let Route::Ampc { relaxed: true, .. } = workload.route {
        let n = stream
            .num_vertices_hint()
            .ok_or("pack header has no vertex count")?;
        let edges = collect_stream(stream.as_mut());
        stream
            .reset()
            .map_err(|e| format!("decoding {}: {e}", pack.display()))?;
        return Ok(Source::Mem(InMemoryStream::new(n, edges)));
    }
    Ok(Source::Pack(stream))
}

/// Counts a staged CLUGP run exposes beyond the partitioning.
pub struct StagedClugp {
    pub partitioning: Partitioning,
    pub clusters: u64,
    pub splits: u64,
    pub migrations: u64,
    pub inter_cluster_edges: u64,
    pub game_batches: u64,
    pub game_rounds_max: u64,
    pub game_moves: u64,
    pub balance_reroutes: u64,
}

/// CLUGP composed from its four public stage functions, the way
/// `Clugp::partition` composes them, calling `on_stage(name, start_us)` as
/// each stage ends. The traced pass and the layer probe both use it; every
/// traced sample asserts its assignment equals `Clugp::partition`'s.
pub fn staged_clugp(
    stream: &mut dyn RestreamableStream,
    on_stage: &mut dyn FnMut(&'static str, u64),
) -> Result<StagedClugp, String> {
    let cfg = ClugpConfig::default();
    let err = |e: clugp::PartitionError| e.to_string();
    stream.reset().map_err(|e| e.to_string())?;
    let n = stream.num_vertices_hint().unwrap_or(0);
    let m = stream.len_hint().ok_or("stream has no length hint")?;

    let t = now_us();
    let clustering = clugp::clugp::clustering::stream_clustering_capped(
        stream,
        cfg.vmax(m, K),
        cfg.splitting,
        cfg.migration,
        cfg.max_vertices,
    )
    .map_err(err)?;
    on_stage("clugp:clustering", t);
    let m_real = clustering.degree.iter().map(|&d| u64::from(d)).sum::<u64>() / 2;

    let t = now_us();
    stream.reset().map_err(|e| e.to_string())?;
    let cluster_graph = ClusterGraph::build(stream, &clustering);
    on_stage("clugp:cluster_graph", t);

    let t = now_us();
    let game = clugp::clugp::solve_game(&cluster_graph, K, &cfg).map_err(err)?;
    on_stage("clugp:game", t);

    let t = now_us();
    stream.reset().map_err(|e| e.to_string())?;
    let transformed =
        transform::transform(stream, &clustering, &game.partition_of, K, cfg.tau, m_real)
            .map_err(err)?;
    on_stage("clugp:transform", t);

    Ok(StagedClugp {
        partitioning: Partitioning {
            k: K,
            num_vertices: n.max(clustering.cluster_of.len()),
            assignments: transformed.assignments,
            loads: transformed.loads,
        },
        clusters: u64::from(clustering.num_clusters),
        splits: clustering.splits,
        migrations: clustering.migrations,
        inter_cluster_edges: cluster_graph.total_inter_edges(),
        game_batches: game.batches as u64,
        game_rounds_max: game.max_rounds_used as u64,
        game_moves: game.total_moves,
        balance_reroutes: transformed.balance_reroutes,
    })
}

/// The monolithic partitioner of a workload, at its defaults.
pub fn partitioner(algo: Algo) -> Box<dyn Partitioner> {
    match algo {
        Algo::Clugp => Box::new(Clugp::default()),
        Algo::Hdrf => Box::new(Hdrf::default()),
        Algo::Dbh => Box::new(Dbh::default()),
    }
}

/// The engine configuration of the AMPC workloads: the CLI's supervision
/// defaults over in-process channels.
pub fn dist_config(workers: u32, relaxed: bool, checkpoint_dir: Option<PathBuf>) -> DistConfig {
    DistConfig {
        workers,
        supervise: SuperviseConfig {
            worker_timeout: Some(Duration::from_secs(30)),
            max_retries: 2,
            ..Default::default()
        },
        checkpoint_dir,
        mode: if relaxed {
            AmpcMode::Relaxed
        } else {
            AmpcMode::Sequenced
        },
        ..Default::default()
    }
}

fn partition(
    args: &SampleArgs,
    source: &mut Source,
    tracer: &mut Tracer,
) -> Result<(Partitioning, Option<DistOutcome>), String> {
    match args.workload.route {
        Route::Monolith(Algo::Clugp) if tracer.on() => {
            let staged = staged_clugp(source.stream(), &mut |name, t| tracer.span(name, t))?;
            Ok((staged.partitioning, None))
        }
        Route::Monolith(algo) => {
            let run = partitioner(algo)
                .partition(source.stream(), K)
                .map_err(|e| e.to_string())?;
            Ok((run.partitioning, None))
        }
        Route::Ampc {
            workers,
            relaxed,
            checkpoints,
        } => {
            let cfg = DistConfig {
                trace: tracer.on(),
                ..dist_config(
                    workers,
                    relaxed,
                    checkpoints.then(|| args.scratch.join("checkpoints")),
                )
            };
            let input = match source {
                Source::Mem(mem) => DistInput::Edges {
                    num_vertices: mem.num_vertices_hint().unwrap_or(0),
                    edges: mem.edges(),
                },
                Source::Pack(_) => DistInput::Pack(&args.pack),
            };
            let mut out = run_distributed(&DistAlgo::Clugp(ClugpConfig::default()), input, K, &cfg)
                .map_err(|e| e.to_string())?;
            // Moved out, not cloned: a copy of the assignment would sit in
            // the timed interval and in the peak.
            let partitioning = Partitioning {
                assignments: std::mem::take(&mut out.partitioning.assignments),
                loads: std::mem::take(&mut out.partitioning.loads),
                ..out.partitioning
            };
            Ok((partitioning, Some(out)))
        }
    }
}

/// Derives the replica table by streaming the input against the
/// assignment (the CLI's `--emit-placement`, without holding the edges).
pub fn build_replicas(
    stream: &mut dyn RestreamableStream,
    partitioning: &Partitioning,
) -> Result<ReplicaTable, String> {
    stream.reset().map_err(|e| e.to_string())?;
    let mut replicas =
        ReplicaTable::new(partitioning.num_vertices, partitioning.k).map_err(|e| e.to_string())?;
    let mut next = 0usize;
    let mut failure = None;
    for_each_chunk(stream, chunk_edges(), |chunk| {
        for (e, &p) in chunk.iter().zip(&partitioning.assignments[next..]) {
            if let Err(err) = replicas.ensure_vertices(u64::from(e.src.max(e.dst)) + 1) {
                failure.get_or_insert(err.to_string());
                return;
            }
            replicas.insert(e.src, p);
            replicas.insert(e.dst, p);
        }
        next = (next + chunk.len()).min(partitioning.assignments.len());
    });
    match failure {
        Some(err) => Err(err),
        None => Ok(replicas),
    }
}

/// 64-bit FNV-1a of the assignment, as hex: equal hashes across samples
/// are how the parent checks determinism and AMPC bit-identity.
pub fn assignment_hash(assignments: &[u32]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &p in assignments {
        for b in p.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The harness's own recomputation of loads, replication factor and
/// balance from edges and assignment — no product code involved.
struct Recount {
    loads: Vec<u64>,
    replication_factor: f64,
    relative_balance: f64,
}

fn recount(edges: &[Edge], assignments: &[u32], k: u32) -> Result<Recount, String> {
    if k == 0 || k > 64 {
        return Err(format!("recount supports 1..=64 partitions, got {k}"));
    }
    if edges.len() != assignments.len() {
        return Err(format!(
            "{} assignments for {} edges",
            assignments.len(),
            edges.len()
        ));
    }
    let n = edges
        .iter()
        .map(|e| e.src.max(e.dst))
        .max()
        .map_or(0, |v| v as usize + 1);
    let mut held = vec![0u64; n];
    let mut loads = vec![0u64; k as usize];
    for (i, (e, &p)) in edges.iter().zip(assignments).enumerate() {
        if p >= k {
            return Err(format!("edge {i} assigned to partition {p} of {k}"));
        }
        loads[p as usize] += 1;
        held[e.src as usize] |= 1 << p;
        held[e.dst as usize] |= 1 << p;
    }
    let replicas: u64 = held.iter().map(|m| u64::from(m.count_ones())).sum();
    let touched = held.iter().filter(|&&m| m != 0).count();
    let max_load = loads.iter().copied().max().unwrap_or(0);
    Ok(Recount {
        loads,
        replication_factor: replicas as f64 / touched.max(1) as f64,
        relative_balance: f64::from(k) * max_load as f64 / edges.len().max(1) as f64,
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Every output check of one sample; returns the names of those that
/// failed, plus the recomputed quality.
fn verify(
    args: &SampleArgs,
    edges: &[Edge],
    partitioning: &Partitioning,
    placement: &Path,
    staged_reference: Option<&Partitioning>,
) -> (Vec<String>, f64, f64) {
    let mut failures = Vec::new();
    let mut check = |ok: bool, name: &str| {
        if !ok {
            failures.push(name.to_string());
        }
    };
    let counted = match recount(edges, &partitioning.assignments, partitioning.k) {
        Ok(counted) => counted,
        Err(e) => return (vec![format!("assignment: {e}")], f64::NAN, f64::NAN),
    };
    check(partitioning.k == K, "k");
    check(counted.loads == partitioning.loads, "loads");
    let quality = PartitionQuality::compute(edges, partitioning);
    check(
        close(quality.replication_factor, counted.replication_factor),
        "replication_factor",
    );
    check(
        close(quality.relative_balance, counted.relative_balance),
        "relative_balance",
    );
    if args.workload.holds_tau_cap() {
        let cap = (ClugpConfig::default().tau * edges.len() as f64 / f64::from(K)).ceil() as u64;
        check(counted.loads.iter().all(|&l| l <= cap), "tau_cap");
    }
    match read_placement_dir(placement) {
        Ok((read_back, replicas)) => {
            check(
                read_back.k == partitioning.k
                    && read_back.assignments == partitioning.assignments
                    && read_back.loads == partitioning.loads,
                "placement_round_trip",
            );
            check(
                close(replicas.replication_factor(), counted.replication_factor),
                "placement_replicas",
            );
        }
        Err(e) => check(false, &format!("placement_read: {e}")),
    }
    if let Some(reference) = staged_reference {
        check(
            reference.assignments == partitioning.assignments,
            "staged_equals_partition",
        );
    }
    (
        failures,
        counted.replication_factor,
        counted.relative_balance,
    )
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn sum_args(rec: &TraceRecord, name: &str) -> u64 {
    rec.events
        .iter()
        .filter(|(_, e)| e.name == name)
        .map(|(_, e)| e.arg)
        .sum()
}

/// Runs one sample and returns its report as a JSON object.
pub fn run_one(args: &SampleArgs) -> Result<String, String> {
    let workload = args.workload;
    let placement = args.scratch.join("placement");
    let mut tracer = Tracer::new(args.trace_out.is_some());
    let (mut open_s, mut partition_s, mut emit_s) = (0.0, 0.0, 0.0);
    let mut pipeline_wall_s = Vec::new();
    let mut last = None;
    let mut hashes = Vec::new();

    for _ in 0..workload.inner {
        // Clearing the previous pipeline's output, in memory and on disk,
        // is not part of the pipeline.
        drop(last.take());
        for dir in [&placement, &args.scratch.join("checkpoints")] {
            if dir.exists() {
                std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        let span = now_us();
        let t0 = Instant::now();
        let mut source = open(workload, &args.pack)?;
        tracer.span("bench:open", span);

        let span = now_us();
        let t1 = Instant::now();
        let (partitioning, dist) = partition(args, &mut source, &mut tracer)?;
        tracer.span("bench:partition", span);

        let span = now_us();
        let t2 = Instant::now();
        let replicas = build_replicas(source.stream(), &partitioning)?;
        tracer.span("emit:replica_build", span);
        let write = now_us();
        write_placement_dir(&placement, &partitioning, &replicas).map_err(|e| e.to_string())?;
        tracer.span("emit:write", write);
        tracer.span("bench:emit", span);
        let t3 = Instant::now();

        open_s += (t1 - t0).as_secs_f64();
        partition_s += (t2 - t1).as_secs_f64();
        emit_s += (t3 - t2).as_secs_f64();
        pipeline_wall_s.push((t3 - t0).as_secs_f64());
        hashes.push(assignment_hash(&partitioning.assignments));
        last = Some((source, partitioning, dist));
    }
    let peak_rss_mib = peak_rss_mib()?;
    let (mut source, partitioning, dist) = last.ok_or("inner must be at least 1")?;

    // Verification starts here: nothing below is timed or counted in the
    // peak.
    let mut edges = match source {
        Source::Mem(mem) => mem,
        Source::Pack(ref mut stream) => {
            stream.reset().map_err(|e| e.to_string())?;
            InMemoryStream::new(partitioning.num_vertices, collect_stream(stream.as_mut()))
        }
    };
    let staged_reference = match (workload.route, tracer.on()) {
        (Route::Monolith(Algo::Clugp), true) => {
            let run = Clugp::default()
                .partition(&mut edges, K)
                .map_err(|e| e.to_string())?;
            Some(run.partitioning)
        }
        _ => None,
    };
    let edges = edges.edges();
    let (mut failures, replication_factor, relative_balance) = verify(
        args,
        edges,
        &partitioning,
        &placement,
        staged_reference.as_ref(),
    );
    if hashes.iter().any(|h| h != &hashes[0]) {
        failures.push("hash_across_pipelines".to_string());
    }

    let per_pipeline = 1.0 / f64::from(workload.inner);
    let mut report = Obj::new()
        .raw("failures", &crate::report::string_array(&failures))
        .u64("edges", edges.len() as u64)
        .raw("open_s", &json::num(open_s * per_pipeline))
        .raw("partition_s", &json::num(partition_s * per_pipeline))
        .raw("emit_s", &json::num(emit_s * per_pipeline))
        .raw(
            "wall_s",
            &json::num((open_s + partition_s + emit_s) * per_pipeline),
        )
        .raw("pipeline_wall_s", &json::num_array(&pipeline_wall_s))
        .raw("peak_rss_mib", &json::num(peak_rss_mib))
        .raw("replication_factor", &json::num(replication_factor))
        .raw("relative_balance", &json::num(relative_balance))
        .str("hash", &hashes[0]);

    if let Some(out) = &dist {
        let mut by_verb = Obj::new();
        for (tag, tally) in out.net.by_verb.iter().enumerate() {
            if tally.frames > 0 {
                by_verb = by_verb.u64(Msg::verb_name(tag), tally.bytes);
            }
        }
        report = report.raw(
            "ampc",
            &Obj::new()
                .u64("frames", out.net.frames_sent + out.net.frames_received)
                .u64("bytes", out.net.bytes_sent + out.net.bytes_received)
                .raw("by_verb", &by_verb.finish())
                .raw("ckpt_write_s", &json::num(out.ckpt_write_us as f64 / 1e6))
                .u64("ckpt_writes", out.ckpt_writes)
                .u64("recoveries", u64::from(out.recoveries))
                .finish(),
        );
    }

    if let (Some(path), Some(mut rec)) = (&args.trace_out, tracer.rec.take()) {
        let mut workers = 0;
        if let Some(out) = dist {
            workers = out.workers;
            rec.events.extend(out.trace.events);
            rec.dropped += out.trace.dropped;
        }
        let span_s = |name: &str| rec.span_total_us(name) as f64 / 1e6;
        report = report.raw(
            "trace",
            &Obj::new()
                .u64("events", rec.events.len() as u64)
                .raw("pass1_s", &json::num(span_s("pass:pass1")))
                .raw("pairs_s", &json::num(span_s("pass:pairs")))
                .raw("transform_s", &json::num(span_s("pass:transform")))
                .raw("chunk_s", &json::num(span_s("chunk")))
                .raw("route_batch_s", &json::num(span_s("route_batch")))
                .raw("epoch_barrier_s", &json::num(span_s("epoch:barrier")))
                .raw(
                    "decode_stall_s",
                    &json::num(sum_args(&rec, "decode_stall") as f64 / 1e6),
                )
                .u64("epoch_sync_rounds", rec.count("epoch_sync") as u64)
                .u64("epoch_drift_keys", sum_args(&rec, "epoch_sync"))
                .finish(),
        );
        std::fs::write(path, clugp_obs::export::chrome_trace(&rec, workers, None))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report.finish())
}
