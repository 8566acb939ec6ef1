//! BENCH_ampc — the coordinator/worker engine's exchange-cost trajectory
//! (`results/BENCH_ampc.{json,csv}`).
//!
//! Sweeps the sharded placement pipeline over worker counts and both
//! transports (in-process bounded channels vs Unix-socket frames) on the
//! uk-s (web crawl) and twitter-s (BA social) analogues, recording
//! wall-clock, bytes/frames exchanged through the coordinator, and the
//! bit-identity flag against the monolithic partitioner.
//!
//! **Honest-ceiling caveat:** everything here runs on one host, so worker
//! threads/sockets share the same cores and the sequenced sweep keeps one
//! worker active at a time by design — that is what buys bit-identity.
//! Multi-worker wall-clock is therefore a *floor on coordination overhead*,
//! never a speedup claim; the committed signal is bytes-exchanged per edge
//! (the quantity that would cross a real network) and the guarantee that
//! sharding cost zero partition-quality drift.
//!
//! The **relaxed leg** turns the consistency dial down (`--ampc-mode
//! relaxed`): workers stream concurrently against local tables and
//! reconcile at epoch barriers, so its wall-clock *is* allowed to beat the
//! sequenced run — and the leg records the price, per algorithm, as
//! replication-factor drift against the sequenced partition.

use super::ExpContext;
use crate::algorithms::Algorithm;
use crate::datasets::Dataset;
use crate::report::{results_dir, save_json, Table};
use crate::runner::PreparedDataset;
use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::proto::Msg;
use clugp::ampc::transport::VERB_SLOTS;
use clugp::ampc::{
    run_distributed, AmpcMode, DistConfig, DistInput, FaultPlan, NetStats, SuperviseConfig,
    TransportKind,
};
use clugp::baselines::Hdrf;
use clugp::clugp::Clugp;
use clugp::metrics::PartitionQuality;
use clugp::partition::Partitioning;
use clugp::partitioner::Partitioner;
use clugp_graph::stream::InMemoryStream;
use clugp_graph::types::Edge;

/// One `(dataset, algorithm, workers, transport)` cell of the sweep.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AmpcRun {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of partitions.
    pub k: u32,
    /// Edge count of the measured stream.
    pub edges: u64,
    /// Worker count of this cell.
    pub workers: u32,
    /// Transport flavor (`channel` or `unix`).
    pub transport: String,
    /// Best-of-repeats wall clock of the distributed run, seconds.
    pub secs: f64,
    /// Best-of-repeats wall clock of the monolithic reference, seconds.
    pub monolith_secs: f64,
    /// `secs / monolith_secs` — coordination overhead factor (see the
    /// module-level single-host caveat).
    pub overhead: f64,
    /// Payload bytes sent across all coordinator↔worker links.
    pub bytes_sent: u64,
    /// Payload bytes received across all links.
    pub bytes_received: u64,
    /// Frames sent across all links.
    pub frames_sent: u64,
    /// Exchange density: `(bytes_sent + bytes_received) / edges`.
    pub bytes_per_edge: f64,
    /// Whether the distributed assignments matched the monolith's exactly.
    pub bit_identical: bool,
    /// Per-message-type traffic breakdown (non-zero verbs only), so the
    /// relay optimization's effect is attributable frame type by frame
    /// type rather than a single aggregate.
    pub by_verb: Vec<VerbStat>,
}

/// One non-zero row of the per-message-type traffic histogram.
#[derive(Debug, Clone, serde::Serialize)]
pub struct VerbStat {
    /// Protocol verb name (e.g. `RouteBatch`, `StateRespBatch`).
    pub verb: String,
    /// Frames with this tag, sent + received over all links.
    pub frames: u64,
    /// Payload bytes of those frames.
    pub bytes: u64,
}

/// Collapses the fixed-slot histogram into named non-zero rows.
fn verb_breakdown(net: &NetStats) -> Vec<VerbStat> {
    (0..VERB_SLOTS)
        .filter(|&slot| net.by_verb[slot].frames > 0)
        .map(|slot| VerbStat {
            verb: Msg::verb_name(slot).to_string(),
            frames: net.by_verb[slot].frames,
            bytes: net.by_verb[slot].bytes,
        })
        .collect()
}

/// One relaxed-mode cell (4 workers): wall-clock against the sequenced run
/// and quality drift against the sequenced (= monolith) partition.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RelaxedRun {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of partitions.
    pub k: u32,
    /// Worker count of the cell.
    pub workers: u32,
    /// Best-of-repeats wall clock of the relaxed run, seconds.
    pub secs: f64,
    /// Wall clock of the sequenced run at the same worker count/transport.
    pub sequenced_secs: f64,
    /// `sequenced_secs / secs` — what dropping the sequencing token buys.
    pub speedup_vs_sequenced: f64,
    /// Replication factor of the relaxed partition.
    pub replication_factor: f64,
    /// Replication factor of the sequenced partition (drift baseline).
    pub sequenced_rf: f64,
    /// `replication_factor / sequenced_rf` — the price of the weaker
    /// consistency, per algorithm.
    pub rf_drift: f64,
    /// Relative balance (`k·max|p_i|/|E|`) of the relaxed partition.
    pub relative_balance: f64,
    /// Relative balance of the sequenced partition.
    pub sequenced_balance: f64,
    /// Exchange density of the relaxed run.
    pub bytes_per_edge: f64,
}

/// One seeded fault-injection probe of the supervised engine (the
/// `fault_probes` rows of `BENCH_ampc.json` / `BENCH_ampc_faults.csv`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct FaultProbe {
    /// Seed of [`FaultPlan::seeded`] — fully determines the injected fault.
    pub seed: u64,
    /// `clean` (fault was absorbed without a replay, e.g. a delay),
    /// `recovered` (one or more pass replays), or `typed-error` (a
    /// deterministic error the engine correctly refuses to retry).
    pub outcome: String,
    /// Pass replays the supervisor performed.
    pub recoveries: u32,
    /// Wall clock of the faulted run, seconds.
    pub secs: f64,
    /// For completed runs: assignments identical to the monolith. Always
    /// true in a passing bench (asserted); errors report false.
    pub bit_identical: bool,
    /// Milliseconds spent persisting barrier checkpoints during the probe.
    pub ckpt_write_ms: f64,
    /// Milliseconds spent restoring checkpoints in recovery replays.
    pub ckpt_restore_ms: f64,
    /// The typed error for `typed-error` outcomes, empty otherwise.
    pub error: String,
}

/// One tracing-overhead cell (the `trace_overhead` rows of
/// `BENCH_ampc.json`): the same 4-worker sequenced run with event
/// recording off and on.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TraceRun {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Worker count of the cell.
    pub workers: u32,
    /// Best-of-repeats wall clock with tracing off, seconds.
    pub off_secs: f64,
    /// Best-of-repeats wall clock with tracing on, seconds.
    pub on_secs: f64,
    /// `on_secs / off_secs` — the cost of recording and shipping events.
    pub overhead: f64,
    /// Events the traced run recorded across all lanes.
    pub events: u64,
    /// Traced assignments identical to the untraced run's (asserted).
    pub bit_identical: bool,
}

/// The `results/BENCH_ampc.json` payload.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AmpcReport {
    /// Datasets of the sweep.
    pub datasets: Vec<String>,
    /// Number of partitions.
    pub k: u32,
    /// Timing repeats (best is reported).
    pub repeats: usize,
    /// Worker counts swept.
    pub worker_counts: Vec<u32>,
    /// Transports swept.
    pub transports: Vec<String>,
    /// Single-host measurement caveat, restated in the artifact itself so
    /// downstream readers of the JSON cannot miss it.
    pub caveat: String,
    /// True iff every cell was bit-identical to the monolith.
    pub bit_identical: bool,
    /// One row per `(dataset, algorithm, workers, transport)`.
    pub runs: Vec<AmpcRun>,
    /// Relaxed concurrent mode at 4 workers: wall-clock vs the sequenced
    /// run and per-algorithm quality drift (the consistency dial's price).
    pub relaxed: Vec<RelaxedRun>,
    /// Wall clock of the undisturbed supervision-off reference run the
    /// checkpoint overhead is measured against, seconds.
    pub plain_secs: f64,
    /// Wall clock of the same run with supervision + barrier checkpoints
    /// enabled (and no faults), seconds.
    pub supervised_secs: f64,
    /// `supervised_secs / plain_secs` — the cost of taking barrier
    /// checkpoints when nothing goes wrong.
    pub checkpoint_overhead: f64,
    /// Seeded fault-injection probes of the supervised engine.
    pub fault_probes: Vec<FaultProbe>,
    /// Tracing-overhead cells: event recording off vs on, per dataset
    /// (the observability contract: off by default, ≤5% when on).
    pub trace_overhead: Vec<TraceRun>,
}

/// Monolith/distributed pairs the sweep measures: the streaming baseline
/// with per-vertex replica+degree state (HDRF) and the flagship (CLUGP,
/// whose three passes stress every table shape the state service has).
fn roster() -> Vec<(Algorithm, Box<dyn Partitioner>, DistAlgo)> {
    vec![
        (
            Algorithm::Hdrf,
            Box::new(Hdrf::default()) as Box<dyn Partitioner>,
            DistAlgo::hdrf(),
        ),
        (
            Algorithm::Clugp,
            Box::new(Clugp::default()),
            DistAlgo::clugp(),
        ),
    ]
}

/// BENCH_ampc — wall-clock and bytes-exchanged vs worker count over both
/// transports for HDRF and CLUGP on uk-s/twitter-s.
pub fn ampc(ctx: &ExpContext) {
    let k = 32u32;
    let repeats = 3usize;
    let worker_counts = [1u32, 2, 4];
    let transports = [TransportKind::Channel, TransportKind::Unix];
    let datasets = [Dataset::UkS, Dataset::TwitterS];

    let mut table = Table::new(
        "BENCH_ampc — coordinator/worker engine: time + exchange vs workers (k=32)",
        &[
            "Dataset",
            "Algorithm",
            "Workers",
            "Transport",
            "Time",
            "Overhead",
            "Bytes/edge",
            "Identical",
        ],
    );
    let mut runs: Vec<AmpcRun> = Vec::new();
    let mut relaxed: Vec<RelaxedRun> = Vec::new();
    for ds in datasets {
        let prep = PreparedDataset::load(ds, ctx.scale);
        let n = prep.graph.num_vertices();
        for (which, mut partitioner, algo) in roster() {
            let edges = prep.edges_for(which);
            let m = edges.len() as u64;

            // Monolithic reference: same stream, same order.
            let mut monolith_secs = f64::INFINITY;
            let mut reference = Vec::new();
            for _ in 0..repeats {
                let mut s = InMemoryStream::new(n, edges.to_vec());
                let t = std::time::Instant::now();
                let run = partitioner.partition(&mut s, k).expect("monolith");
                monolith_secs = monolith_secs.min(t.elapsed().as_secs_f64());
                reference = run.partitioning.assignments;
            }

            for workers in worker_counts {
                for transport in transports {
                    let cfg = DistConfig {
                        workers,
                        transport,
                        chunk_edges: 0,
                        ..Default::default()
                    };
                    let mut secs = f64::INFINITY;
                    let mut out = None;
                    for _ in 0..repeats {
                        let t = std::time::Instant::now();
                        let o = run_distributed(
                            &algo,
                            DistInput::Edges {
                                num_vertices: n,
                                edges,
                            },
                            k,
                            &cfg,
                        )
                        .expect("distributed run");
                        secs = secs.min(t.elapsed().as_secs_f64());
                        out = Some(o);
                    }
                    let out = out.expect("at least one repeat");
                    let bit_identical = out.partitioning.assignments == reference;
                    let transport_name = match transport {
                        TransportKind::Channel => "channel",
                        TransportKind::Unix => "unix",
                    };
                    let run = AmpcRun {
                        dataset: prep.name.clone(),
                        algorithm: which.name().to_string(),
                        k,
                        edges: m,
                        workers,
                        transport: transport_name.to_string(),
                        secs,
                        monolith_secs,
                        overhead: secs / monolith_secs.max(f64::EPSILON),
                        bytes_sent: out.net.bytes_sent,
                        bytes_received: out.net.bytes_received,
                        frames_sent: out.net.frames_sent,
                        bytes_per_edge: (out.net.bytes_sent + out.net.bytes_received) as f64
                            / m.max(1) as f64,
                        bit_identical,
                        by_verb: verb_breakdown(&out.net),
                    };
                    table.row(vec![
                        run.dataset.clone(),
                        run.algorithm.clone(),
                        run.workers.to_string(),
                        run.transport.clone(),
                        format!("{:.3}s", run.secs),
                        format!("{:.2}x", run.overhead),
                        format!("{:.1}", run.bytes_per_edge),
                        run.bit_identical.to_string(),
                    ]);
                    runs.push(run);
                }
            }

            // Relaxed leg: same cell at 4 workers with the consistency
            // dial turned down — workers stream concurrently and reconcile
            // at epoch barriers, so this measures what the sequencing token
            // costs and what the weaker consistency does to quality.
            let relaxed_workers = 4u32;
            let cfg = DistConfig {
                workers: relaxed_workers,
                transport: TransportKind::Channel,
                chunk_edges: 0,
                mode: AmpcMode::Relaxed,
                ..Default::default()
            };
            let mut secs = f64::INFINITY;
            let mut out = None;
            for _ in 0..repeats {
                let t = std::time::Instant::now();
                let o = run_distributed(
                    &algo,
                    DistInput::Edges {
                        num_vertices: n,
                        edges,
                    },
                    k,
                    &cfg,
                )
                .expect("relaxed run");
                secs = secs.min(t.elapsed().as_secs_f64());
                out = Some(o);
            }
            let out = out.expect("at least one repeat");
            let sequenced_secs = runs
                .iter()
                .rev()
                .find(|r| {
                    r.workers == relaxed_workers
                        && r.transport == "channel"
                        && r.algorithm == which.name()
                        && r.dataset == prep.name
                })
                .map(|r| r.secs)
                .expect("sequenced 4-worker cell precedes the relaxed leg");
            let seq_quality = quality_of(&reference, n, k, edges);
            let quality = PartitionQuality::compute(edges, &out.partitioning);
            let run = RelaxedRun {
                dataset: prep.name.clone(),
                algorithm: which.name().to_string(),
                k,
                workers: relaxed_workers,
                secs,
                sequenced_secs,
                speedup_vs_sequenced: sequenced_secs / secs.max(f64::EPSILON),
                replication_factor: quality.replication_factor,
                sequenced_rf: seq_quality.replication_factor,
                rf_drift: quality.replication_factor
                    / seq_quality.replication_factor.max(f64::EPSILON),
                relative_balance: quality.relative_balance,
                sequenced_balance: seq_quality.relative_balance,
                bytes_per_edge: (out.net.bytes_sent + out.net.bytes_received) as f64
                    / m.max(1) as f64,
            };
            table.row(vec![
                run.dataset.clone(),
                format!("{}+relaxed", run.algorithm),
                run.workers.to_string(),
                "channel".to_string(),
                format!("{:.3}s", run.secs),
                format!("{:.2}x", run.secs / monolith_secs.max(f64::EPSILON)),
                format!("{:.1}", run.bytes_per_edge),
                format!("rf x{:.3}", run.rf_drift),
            ]);
            relaxed.push(run);
        }
    }
    table.print();
    table.save_csv(&results_dir().join("BENCH_ampc.csv")).ok();

    let (plain_secs, supervised_secs, fault_probes) = fault_leg(ctx, k);
    let trace_overhead = trace_leg(ctx, k);
    let report = AmpcReport {
        datasets: datasets.iter().map(|d| d.name().to_string()).collect(),
        k,
        repeats,
        worker_counts: worker_counts.to_vec(),
        transports: transports
            .iter()
            .map(|t| {
                match t {
                    TransportKind::Channel => "channel",
                    TransportKind::Unix => "unix",
                }
                .to_string()
            })
            .collect(),
        caveat: "single-host run: workers share one machine's cores and the stream is \
                 sequenced for bit-identity, so multi-worker wall-clock is a coordination-\
                 overhead floor, not a speedup claim; bytes-exchanged is the portable signal"
            .to_string(),
        bit_identical: runs.iter().all(|r| r.bit_identical),
        runs,
        relaxed,
        plain_secs,
        supervised_secs,
        checkpoint_overhead: supervised_secs / plain_secs.max(f64::EPSILON),
        fault_probes,
        trace_overhead,
    };
    save_json("BENCH_ampc", &report).ok();
    assert!(
        report.bit_identical,
        "sharded placement must not change any partition"
    );
}

/// Quality of a bare assignment vector (loads recomputed from it), used
/// for the sequenced baseline whose `Partitioning` was not kept around.
fn quality_of(assignments: &[u32], n: u64, k: u32, edges: &[Edge]) -> PartitionQuality {
    let mut loads = vec![0u64; k as usize];
    for &p in assignments {
        loads[p as usize] += 1;
    }
    PartitionQuality::compute(
        edges,
        &Partitioning {
            k,
            num_vertices: n,
            assignments: assignments.to_vec(),
            loads,
        },
    )
}

/// The fault leg: checkpoint overhead of an undisturbed supervised run,
/// then seeded single-fault injections (drop / delay / corrupt /
/// disconnect, either direction) against a 4-worker CLUGP run on uk-s,
/// aimed at the four frames every one of its links carries each way.
/// Every completed run is asserted bit-identical to the monolith; every
/// failed run must have failed with a typed error, not a hang (the
/// supervision deadline bounds the probe).
fn fault_leg(ctx: &ExpContext, k: u32) -> (f64, f64, Vec<FaultProbe>) {
    let workers = 4u32;
    let seeds = 1..=6u64;
    let prep = PreparedDataset::load(Dataset::UkS, ctx.scale);
    let n = prep.graph.num_vertices();
    let edges = prep.edges_for(Algorithm::Clugp);
    let mut s = InMemoryStream::new(n, edges.to_vec());
    let reference = Clugp::default()
        .partition(&mut s, k)
        .expect("monolith")
        .partitioning
        .assignments;
    let input = DistInput::Edges {
        num_vertices: n,
        edges,
    };
    let supervise = SuperviseConfig {
        worker_timeout: Some(std::time::Duration::from_secs(2)),
        max_retries: 3,
        backoff: std::time::Duration::from_millis(50),
    };

    // Checkpoint overhead: same undisturbed run with supervision off/on.
    let timed = |cfg: &DistConfig| {
        let t = std::time::Instant::now();
        let out = run_distributed(&DistAlgo::clugp(), input, k, cfg).expect("undisturbed run");
        (t.elapsed().as_secs_f64(), out)
    };
    let (plain_secs, _) = timed(&DistConfig {
        workers,
        ..Default::default()
    });
    let (supervised_secs, out) = timed(&DistConfig {
        workers,
        supervise: supervise.clone(),
        ..Default::default()
    });
    assert_eq!(out.recoveries, 0, "undisturbed run must not recover");
    assert_eq!(
        out.partitioning.assignments, reference,
        "supervision/checkpointing changed a partition"
    );

    let mut table = Table::new(
        "BENCH_ampc faults — seeded fault injection, supervised CLUGP (uk-s, 4 workers)",
        &[
            "Seed",
            "Outcome",
            "Recoveries",
            "Time",
            "CkptWrite",
            "CkptRestore",
            "Identical",
        ],
    );
    let mut probes = Vec::new();
    for seed in seeds {
        let cfg = DistConfig {
            workers,
            supervise: supervise.clone(),
            faults: FaultPlan::seeded(seed, workers, 4),
            ..Default::default()
        };
        let t = std::time::Instant::now();
        let probe = match run_distributed(&DistAlgo::clugp(), input, k, &cfg) {
            Ok(out) => {
                let bit_identical = out.partitioning.assignments == reference;
                assert!(
                    bit_identical,
                    "seed {seed}: recovered run diverged from the monolith"
                );
                FaultProbe {
                    seed,
                    outcome: if out.recoveries > 0 {
                        "recovered".into()
                    } else {
                        "clean".into()
                    },
                    recoveries: out.recoveries,
                    secs: t.elapsed().as_secs_f64(),
                    bit_identical,
                    ckpt_write_ms: out.ckpt_write_us as f64 / 1e3,
                    ckpt_restore_ms: out.ckpt_restore_us as f64 / 1e3,
                    error: String::new(),
                }
            }
            Err(e) => FaultProbe {
                seed,
                outcome: "typed-error".into(),
                recoveries: 0,
                secs: t.elapsed().as_secs_f64(),
                bit_identical: false,
                ckpt_write_ms: 0.0,
                ckpt_restore_ms: 0.0,
                error: e.to_string(),
            },
        };
        table.row(vec![
            probe.seed.to_string(),
            probe.outcome.clone(),
            probe.recoveries.to_string(),
            format!("{:.3}s", probe.secs),
            format!("{:.1}ms", probe.ckpt_write_ms),
            format!("{:.1}ms", probe.ckpt_restore_ms),
            probe.bit_identical.to_string(),
        ]);
        probes.push(probe);
    }
    table.print();
    table
        .save_csv(&results_dir().join("BENCH_ampc_faults.csv"))
        .ok();
    assert!(
        probes
            .iter()
            .any(|p| p.outcome == "recovered" || p.outcome == "typed-error"),
        "the seeded plans exercised no fault at all"
    );
    (plain_secs, supervised_secs, probes)
}

/// The tracing-overhead leg: the observability contract is "compiled in,
/// off by default, ≤5% when on". Runs the 4-worker sequenced CLUGP cell
/// on each dataset with event recording off and on, asserting that the
/// traced partition is bit-identical and the wall-clock penalty bounded
/// (best-of-repeats ratio, with a small absolute floor absorbing
/// scheduler noise at bench scale).
fn trace_leg(ctx: &ExpContext, k: u32) -> Vec<TraceRun> {
    let workers = 4u32;
    let repeats = 3usize;
    let mut table = Table::new(
        "BENCH_ampc tracing — event recording overhead (CLUGP, 4 workers, channel)",
        &["Dataset", "Off", "On", "Overhead", "Events", "Identical"],
    );
    let mut runs = Vec::new();
    for ds in [Dataset::UkS, Dataset::TwitterS] {
        let prep = PreparedDataset::load(ds, ctx.scale);
        let n = prep.graph.num_vertices();
        let edges = prep.edges_for(Algorithm::Clugp);
        let input = DistInput::Edges {
            num_vertices: n,
            edges,
        };
        let timed = |trace: bool| {
            let cfg = DistConfig {
                workers,
                trace,
                ..Default::default()
            };
            let mut secs = f64::INFINITY;
            let mut out = None;
            for _ in 0..repeats {
                let t = std::time::Instant::now();
                let o = run_distributed(&DistAlgo::clugp(), input, k, &cfg).expect("trace leg");
                secs = secs.min(t.elapsed().as_secs_f64());
                out = Some(o);
            }
            (secs, out.expect("at least one repeat"))
        };
        let (off_secs, off) = timed(false);
        let (on_secs, on) = timed(true);
        assert!(
            off.trace.events.is_empty(),
            "tracing off must record nothing"
        );
        let events = on.trace.events.len() as u64;
        assert!(events > 0, "tracing on recorded no events");
        let bit_identical = on.partitioning.assignments == off.partitioning.assignments;
        assert!(
            bit_identical,
            "{}: tracing changed the partition",
            prep.name
        );
        assert!(
            on_secs <= off_secs * 1.05 + 0.05,
            "{}: tracing overhead above 5%: off={off_secs:.3}s on={on_secs:.3}s",
            prep.name
        );
        let run = TraceRun {
            dataset: prep.name.clone(),
            algorithm: Algorithm::Clugp.name().to_string(),
            workers,
            off_secs,
            on_secs,
            overhead: on_secs / off_secs.max(f64::EPSILON),
            events,
            bit_identical,
        };
        table.row(vec![
            run.dataset.clone(),
            format!("{:.3}s", run.off_secs),
            format!("{:.3}s", run.on_secs),
            format!("{:.2}x", run.overhead),
            run.events.to_string(),
            run.bit_identical.to_string(),
        ]);
        runs.push(run);
    }
    table.print();
    runs
}
