//! Fault tolerance of the AMPC engine: scripted transport faults, barrier
//! checkpoints, and end-to-end crash recovery must never change a
//! partition. A recovered run is *bit-identical* to an undisturbed
//! monolith run; a fault the retry budget cannot absorb terminates with a
//! typed [`PartitionError::Fault`] within the deadline — no hangs, no
//! zombies. The multi-process tests drive the real `clugp-part` binary
//! with worker processes over Unix sockets, kill one mid-pass, and diff
//! the recovered TSV byte-for-byte.

mod common;

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::{
    run_distributed, AmpcMode, DistConfig, DistInput, FaultAction, FaultPlan, FaultScript,
    SuperviseConfig, TransportKind,
};
use clugp::clugp::Clugp;
use clugp::error::PartitionError;
use clugp::partitioner::Partitioner;
use clugp_graph::stream::InMemoryStream;
use clugp_graph::types::Edge;
use clugp_repro::test_web_graph;
use common::clugp_part_exe;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

type Reference = (Vec<u32>, Vec<u64>, u64);

fn monolith(p: &mut dyn Partitioner, n: u64, edges: &[Edge], k: u32) -> Reference {
    let mut s = InMemoryStream::new(n, edges.to_vec());
    let run = p.partition(&mut s, k).expect("monolith partition");
    (
        run.partitioning.assignments,
        run.partitioning.loads,
        run.partitioning.num_vertices,
    )
}

/// A tight supervision policy for tests: short deadline, fast back-off.
fn supervised(timeout_ms: u64, retries: u32) -> SuperviseConfig {
    SuperviseConfig {
        worker_timeout: Some(Duration::from_millis(timeout_ms)),
        max_retries: retries,
        backoff: Duration::from_millis(10),
    }
}

/// Where the first fault of a traced run surfaced, read off the merged
/// trace instead of trusted to a frame ordinal: the pass the supervisor had
/// to replay (the first coordinator `pass:*` span that starts after the
/// first `retry` instant) and the worker that held its token (workers finish
/// a sequenced stage in index order and flush their `stage:*` span just
/// before `StageDone`, so the holder is the number of such spans that ended
/// before the retry; `workers` when the token had already come home and the
/// coordinator was doing the between-pass work). `None`: nothing was retried.
fn first_fault(out: &clugp::ampc::DistOutcome) -> Option<(String, usize)> {
    let events = &out.trace.events;
    let retry = events
        .iter()
        .filter(|(_, e)| e.name == "retry")
        .map(|(_, e)| e.ts_us)
        .min()?;
    let pass = events
        .iter()
        .filter(|(_, e)| e.name.starts_with("pass:") && e.ts_us > retry)
        .min_by_key(|(_, e)| e.ts_us)
        .map(|(_, e)| e.name["pass:".len()..].to_string())
        .expect("a recovered run replays a pass");
    let stage = format!("stage:{pass}");
    let holder = events
        .iter()
        .filter(|(_, e)| e.name == stage && e.ts_us + e.dur_us < retry)
        .count();
    Some((pass, holder))
}

/// The one fault a [`FaultPlan::seeded`] plan for 3 workers scripts: the
/// worker whose first link it sits on, whether it perturbs a frame the
/// coordinator sends (or one it receives), the frame's ordinal, the action.
fn seeded_fault(plan: &FaultPlan) -> (u32, bool, u64, FaultAction) {
    let mut faults = (0..3).flat_map(|w| {
        let script = plan.script(w, 0).into_iter();
        script.flat_map(move |s| {
            let sent = s
                .on_send
                .iter()
                .map(move |&(at, action)| (w, true, at, action));
            sent.chain(
                s.on_recv
                    .iter()
                    .map(move |&(at, action)| (w, false, at, action)),
            )
        })
    });
    let fault = faults.next().expect("a seeded plan scripts a fault");
    assert!(faults.next().is_none(), "a seeded plan scripts one fault");
    fault
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("clugp_fault_tolerance")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn scripted_faults_recover_bit_identically() {
    let (n, edges) = test_web_graph(800, 51);
    let k = 8;
    let reference = monolith(&mut Clugp::default(), n, &edges, k);

    // (case, faulted worker, script, where it must surface: the replayed
    // pass and the worker holding its token, `None` for no recovery at
    // all). Ordinal 0 on either direction is the Configure/ConfigureOk
    // exchange; every script here fires later, i.e. mid-flow, after the
    // first barrier committed. A CLUGP link is quiet outside its worker's
    // turn. The coordinator sends worker 0 `RunStage`, a cast, `RunStage`,
    // a cast, `RunStage` (ordinals 1–5; every later worker the pass-1 seed
    // first, so 1–6) and receives, traced, the frontier, then a trace frame
    // and `StageDone` per stage (ordinals 1–7).
    type Surfaced = Option<(&'static str, usize)>;
    let cases: Vec<(&str, u32, FaultScript, Surfaced)> = vec![
        (
            "link severed while the coordinator sends",
            0,
            FaultScript::disconnect_at_send(1),
            Some(("pass1", 0)),
        ),
        (
            "link severed while the coordinator receives",
            0,
            FaultScript {
                on_recv: vec![(1, FaultAction::Disconnect)],
                on_send: Vec::new(),
            },
            Some(("pass1", 0)),
        ),
        (
            "inbound frame corrupted in flight",
            0,
            FaultScript {
                on_recv: vec![(1, FaultAction::CorruptFrame)],
                on_send: Vec::new(),
            },
            Some(("pass1", 0)),
        ),
        (
            "inbound frame swallowed (surfaces as a deadline timeout)",
            0,
            FaultScript {
                on_recv: vec![(1, FaultAction::DropFrame)],
                on_send: Vec::new(),
            },
            Some(("pass1", 0)),
        ),
        // The second worker's turn: it was sent worker 0's frontier as its
        // seed and `RunStage`, imports the one and streams; the link dies
        // before its own frontier reaches the coordinator.
        (
            "link severed under the worker that holds the pass-1 token",
            1,
            FaultScript {
                on_recv: vec![(1, FaultAction::Disconnect)],
                on_send: Vec::new(),
            },
            Some(("pass1", 1)),
        ),
        (
            "link severed as the pass-1 turn is handed on, behind the seed",
            1,
            FaultScript::disconnect_at_send(2),
            Some(("pass1", 1)),
        ),
        (
            "link severed in the last pass, the last worker streaming",
            2,
            FaultScript::disconnect_at_send(6),
            Some(("transform", 2)),
        ),
        (
            "frame merely delayed (no recovery needed)",
            0,
            FaultScript {
                on_send: vec![(2, FaultAction::Delay(Duration::from_millis(30)))],
                on_recv: Vec::new(),
            },
            None,
        ),
    ];

    for (case, worker, script, surfaced) in cases {
        let min_recoveries = u32::from(surfaced.is_some());
        let mut faults = FaultPlan::none();
        faults.push(worker, 0, script);
        let cfg = DistConfig {
            workers: 3,
            supervise: supervised(600, 3),
            faults,
            trace: true,
            ..Default::default()
        };
        let out = run_distributed(
            &DistAlgo::clugp(),
            DistInput::Edges {
                num_vertices: n,
                edges: &edges,
            },
            k,
            &cfg,
        )
        .unwrap_or_else(|e| panic!("{case}: run failed: {e}"));
        assert!(
            out.recoveries >= min_recoveries,
            "{case}: expected >= {min_recoveries} recoveries, saw {}",
            out.recoveries
        );
        if min_recoveries == 0 {
            assert_eq!(out.recoveries, 0, "{case}: spurious recovery");
        }
        assert_eq!(
            first_fault(&out),
            surfaced.map(|(pass, holder)| (pass.to_string(), holder)),
            "{case}: the fault did not surface where the script aims"
        );
        assert_eq!(
            (
                out.partitioning.assignments,
                out.partitioning.loads,
                out.partitioning.num_vertices
            ),
            reference,
            "{case}: recovered run diverged from the monolith"
        );
    }
}

#[test]
fn every_incarnation_faulty_exhausts_retries_into_typed_error() {
    let (n, edges) = test_web_graph(400, 52);
    // Worker 1's link dies on every incarnation — the one it starts with
    // and both respawns — so max_retries = 2 must exhaust into a typed
    // fault, not a hang and not a panic.
    let mut faults = FaultPlan::none();
    for incarnation in 0..=2 {
        faults.push(1, incarnation, FaultScript::disconnect_at_send(1));
    }
    let cfg = DistConfig {
        workers: 3,
        supervise: supervised(500, 2),
        faults,
        ..Default::default()
    };
    let err = run_distributed(
        &DistAlgo::clugp(),
        DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        },
        8,
        &cfg,
    )
    .expect_err("a permanently faulty link must fail the run");
    assert!(
        matches!(err, PartitionError::Fault { .. }),
        "retry exhaustion must surface the transport fault, got: {err}"
    );
    assert!(
        err.is_retryable(),
        "the terminal error keeps its fault type"
    );
}

#[test]
fn seeded_fault_plans_recover_or_fail_typed_never_hang() {
    // Randomized-but-deterministic single-fault plans: whatever the fault
    // is (drop, delay, corrupt, disconnect — either direction, on an awaited
    // frame or on an unacknowledged one), the run either recovers
    // bit-identically or terminates with a typed error.
    // The deadline keeps "terminates" bounded; the test finishing at all
    // is the no-hang assertion. A plan draws its ordinal from the frames a
    // link of its algorithm carries behind the handshake. CLUGP's carries the
    // same few whatever the chunk: to worker 0 `RunStage`, a cast, `RunStage`,
    // a cast, `RunStage` (1–5), to a later worker the pass-1 seed ahead of
    // them (1–6), then `Shutdown`, whose fate nobody waits for; back, traced,
    // the frontier, then a trace frame and `StageDone` per stage (1–7). HDRF
    // pages its rows, a fetch round per admission window, and 4-edge chunks
    // make a range half a dozen windows long: more frames each way than the
    // 25 its plans may ask for.
    use clugp::baselines::Hdrf;
    let (n, edges) = test_web_graph(500, 53);
    let k = 8;
    // (algorithm, monolith, chunk, frames a plan draws from, whether the
    // ordinal names a frame of the flow on that worker's link).
    type Lands = fn(u32, bool, u64) -> bool;
    let clugp_lands: Lands = |worker, sent, at| match sent {
        true => at <= 5 + u64::from(worker > 0),
        false => at <= 7,
    };
    let algos: [(DistAlgo, Reference, usize, u64, Lands); 2] = [
        (
            DistAlgo::clugp(),
            monolith(&mut Clugp::default(), n, &edges, k),
            0,
            7,
            clugp_lands,
        ),
        (
            DistAlgo::hdrf(),
            monolith(&mut Hdrf::default(), n, &edges, k),
            4,
            25,
            |_, _, _| true,
        ),
    ];
    for (algo, reference, chunk_edges, frames, lands) in algos {
        let name = algo.name();
        let mut surfaced = 0;
        for seed in 1..=16u64 {
            let cfg = DistConfig {
                workers: 3,
                chunk_edges,
                supervise: supervised(600, 2),
                faults: FaultPlan::seeded(seed, 3, frames),
                trace: true,
                ..Default::default()
            };
            let (worker, sent, at, action) = seeded_fault(&cfg.faults);
            let input = DistInput::Edges {
                num_vertices: n,
                edges: &edges,
            };
            match run_distributed(&algo, input, k, &cfg) {
                Ok(out) => {
                    // Anything but a delay surfaces, on a frame of the flow.
                    let fired = first_fault(&out);
                    assert_eq!(
                        fired.is_some(),
                        lands(worker, sent, at) && !matches!(action, FaultAction::Delay(_)),
                        "{name}, seed {seed}: {:?} surfaced at {fired:?}",
                        cfg.faults,
                    );
                    surfaced += usize::from(fired.is_some());
                    assert_eq!(
                        (
                            out.partitioning.assignments,
                            out.partitioning.loads,
                            out.partitioning.num_vertices
                        ),
                        reference,
                        "{name}, seed {seed}: recovered run diverged from the monolith"
                    )
                }
                // A corrupt coordinator->worker frame is reported back by the
                // worker and stays fatal (deterministic errors are not
                // retried); anything else must be a typed transport fault.
                Err(PartitionError::Fault { .. }) | Err(PartitionError::InvalidParam(_)) => {
                    assert!(
                        lands(worker, sent, at),
                        "{name}, seed {seed}: {:?}",
                        cfg.faults
                    );
                    surfaced += 1;
                }
                Err(other) => panic!("{name}, seed {seed}: untyped failure: {other}"),
            }
        }
        assert!(surfaced >= 8, "{name}: {surfaced} of 16 plans fired");
    }
}

#[test]
fn faults_recover_over_unix_sockets_too() {
    // Same engine, socket framing instead of channels: severing a link
    // mid-pass recovers bit-identically there as well.
    let (n, edges) = test_web_graph(600, 54);
    let k = 8;
    let reference = monolith(&mut Clugp::default(), n, &edges, k);
    let mut faults = FaultPlan::none();
    faults.push(0, 0, FaultScript::disconnect_at_send(1));
    let cfg = DistConfig {
        workers: 2,
        transport: TransportKind::Unix,
        supervise: supervised(600, 2),
        faults,
        trace: true,
        ..Default::default()
    };
    let out = run_distributed(
        &DistAlgo::clugp(),
        DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        },
        k,
        &cfg,
    )
    .expect("unix-transport run must recover");
    assert!(out.recoveries >= 1, "fault did not trigger a recovery");
    assert_eq!(
        first_fault(&out),
        Some(("pass1".to_string(), 0)),
        "the severed link must surface in pass 1, worker 0 holding the token"
    );
    assert_eq!(
        (
            out.partitioning.assignments,
            out.partitioning.loads,
            out.partitioning.num_vertices
        ),
        reference,
        "unix-transport recovery diverged from the monolith"
    );
}

#[test]
fn baseline_algorithms_recover_too() {
    // The single-barrier baseline flow shares the recovery machinery.
    use clugp::baselines::Hdrf;
    let (n, edges) = test_web_graph(500, 55);
    let k = 8;
    let reference = monolith(&mut Hdrf::default(), n, &edges, k);
    let mut faults = FaultPlan::none();
    faults.push(1, 0, FaultScript::disconnect_at_send(2));
    let cfg = DistConfig {
        workers: 3,
        supervise: supervised(600, 2),
        faults,
        trace: true,
        ..Default::default()
    };
    let out = run_distributed(
        &DistAlgo::hdrf(),
        DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        },
        k,
        &cfg,
    )
    .expect("HDRF run must recover");
    assert!(out.recoveries >= 1);
    assert_eq!(
        first_fault(&out),
        Some(("baseline".to_string(), 0)),
        "the severed link must surface mid-pass, worker 0 holding the token"
    );
    assert_eq!(
        (
            out.partitioning.assignments,
            out.partitioning.loads,
            out.partitioning.num_vertices
        ),
        reference,
        "recovered HDRF run diverged from the monolith"
    );
}

#[test]
fn relaxed_mode_recovers_to_the_undisturbed_relaxed_result() {
    // Relaxed mode is deterministic for a fixed worker count, so crash
    // recovery has a precise convergence target: the fault-free relaxed
    // run. A severed link mid-stage must replay the segment and land on
    // those exact bits — for the epoch-synchronized baseline flow and for
    // the multi-barrier CLUGP flow alike.
    let (n, edges) = test_web_graph(900, 61);
    let k = 8;
    let algos = [("HDRF", DistAlgo::hdrf()), ("CLUGP", DistAlgo::clugp())];
    for (name, algo) in algos {
        let cfg = |faults: FaultPlan| DistConfig {
            workers: 3,
            mode: AmpcMode::Relaxed,
            chunk_edges: 64,
            epoch_chunks: 2,
            supervise: supervised(600, 3),
            faults,
            trace: true,
            ..Default::default()
        };
        let reference = run_distributed(
            &algo,
            DistInput::Edges {
                num_vertices: n,
                edges: &edges,
            },
            k,
            &cfg(FaultPlan::none()),
        )
        .unwrap_or_else(|e| panic!("{name}: fault-free relaxed run: {e}"));
        // HDRF's one stage is a run of epoch rounds; CLUGP's first is two
        // frames out (`Configure`, `RunStage`) and three back (`ConfigureOk`,
        // the frontier, `StageDone`).
        let (sent, received) = if name == "HDRF" { (4, 3) } else { (1, 2) };
        for (case, worker, script) in [
            (
                "link severed mid-send",
                1,
                FaultScript::disconnect_at_send(sent),
            ),
            (
                "inbound frame swallowed",
                2,
                FaultScript {
                    on_recv: vec![(received, FaultAction::DropFrame)],
                    on_send: Vec::new(),
                },
            ),
        ] {
            let mut faults = FaultPlan::none();
            faults.push(worker, 0, script);
            let out = run_distributed(
                &algo,
                DistInput::Edges {
                    num_vertices: n,
                    edges: &edges,
                },
                k,
                &cfg(faults),
            )
            .unwrap_or_else(|e| panic!("{name}/{case}: relaxed run did not recover: {e}"));
            assert!(
                out.recoveries >= 1,
                "{name}/{case}: the scripted fault never fired"
            );
            // Relaxed workers stream at once, so only the pass is named.
            let pass = first_fault(&out).map(|(pass, _)| pass);
            let first_pass = if name == "HDRF" { "baseline" } else { "pass1" };
            assert_eq!(
                pass.as_deref(),
                Some(first_pass),
                "{name}/{case}: the fault must surface in the first pass"
            );
            assert_eq!(
                (
                    out.partitioning.assignments,
                    out.partitioning.loads,
                    out.partitioning.num_vertices
                ),
                (
                    reference.partitioning.assignments.clone(),
                    reference.partitioning.loads.clone(),
                    reference.partitioning.num_vertices
                ),
                "{name}/{case}: recovered relaxed run diverged from the \
                 undisturbed relaxed run"
            );
        }
    }
}

#[test]
fn checkpoints_persist_and_resume_bit_identically() {
    let (n, edges) = test_web_graph(700, 56);
    let k = 8;
    let reference = monolith(&mut Clugp::default(), n, &edges, k);
    let dir = tmp("resume");
    let input = DistInput::Edges {
        num_vertices: n,
        edges: &edges,
    };

    // A full run persists one CLUGPCK1 file per barrier (CLUGP has 3).
    let cfg = DistConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..Default::default()
    };
    let out = run_distributed(&DistAlgo::clugp(), input, k, &cfg).expect("checkpointed run");
    assert_eq!(
        (
            out.partitioning.assignments,
            out.partitioning.loads,
            out.partitioning.num_vertices
        ),
        reference
    );
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "clugpck"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "CLUGP commits 3 barriers: {files:?}");

    // Resuming replays only the last segment and lands on the same bits.
    let resume_cfg = DistConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..Default::default()
    };
    let out = run_distributed(&DistAlgo::clugp(), input, k, &resume_cfg).expect("resumed run");
    assert_eq!(out.recoveries, 0);
    assert_eq!(
        (
            out.partitioning.assignments,
            out.partitioning.loads,
            out.partitioning.num_vertices
        ),
        reference,
        "resumed run diverged from the monolith"
    );

    // Tear the newest checkpoint (truncate mid-body) and drop a garbage
    // file with a higher sequence number: both must be skipped, the run
    // resumes from the newest *valid* barrier, still bit-identical.
    let newest = files.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(dir.join("ckpt-00999.clugpck"), b"not a checkpoint").unwrap();
    let out = run_distributed(&DistAlgo::clugp(), input, k, &resume_cfg)
        .expect("resume over a torn checkpoint");
    assert_eq!(
        (
            out.partitioning.assignments,
            out.partitioning.loads,
            out.partitioning.num_vertices
        ),
        reference,
        "resume after checkpoint corruption diverged"
    );

    // Resume against an empty directory degrades to a fresh run.
    let empty = tmp("resume_empty");
    let cfg = DistConfig {
        workers: 2,
        checkpoint_dir: Some(empty),
        resume: true,
        ..Default::default()
    };
    let out = run_distributed(&DistAlgo::clugp(), input, k, &cfg).expect("fresh run under resume");
    assert_eq!(out.partitioning.assignments, reference.0);

    // Resume without a directory is a usage error, not a hang.
    let cfg = DistConfig {
        workers: 2,
        resume: true,
        ..Default::default()
    };
    let err = run_distributed(&DistAlgo::clugp(), input, k, &cfg).unwrap_err();
    assert!(
        err.to_string().contains("checkpoint directory"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over the little-endian bytes of an assignment vector (the hash of
/// `distributed_equivalence`'s golden table).
fn fnv1a(assignments: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in assignments.iter().flat_map(|p| p.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn a_crash_in_the_transform_casts_the_vertex_rows_again() {
    // The workers keep the vertex rows of the pairs stage for the transform,
    // so the coordinator casts them once per invocation. A link that dies on
    // the transform's `RunStage` — the pairs stage ran in the same invocation
    // — makes the replay start at barrier 3 with a fleet that was just reset,
    // live workers included: it must be handed the rows again, never start
    // the stage without them. One recovery, the undisturbed bits.
    let (n, edges) = test_web_graph(1_500, 46);
    let k = 8;
    let input = DistInput::Edges {
        num_vertices: n,
        edges: &edges,
    };
    let reference = monolith(&mut Clugp::default(), n, &edges, k);
    // (mode, chunk, epoch, faulted worker, ordinal of the transform's
    // `RunStage` among the frames sent to it, the hash to land on). The
    // relaxed configuration and hash are `distributed_equivalence`'s golden
    // 2-worker CLUGP row; a relaxed worker, and the first sequenced one, is
    // sent `Configure`, then a cast and a `RunStage` per read-only stage
    // behind pass 1's `RunStage`.
    for (mode, chunk_edges, epoch_chunks, worker, ordinal, want) in [
        (AmpcMode::Sequenced, 0, 0, 0, 5, fnv1a(&reference.0)),
        (AmpcMode::Relaxed, 173, 2, 1, 5, 0x784d_a5bd_8541_5212),
    ] {
        let mut faults = FaultPlan::none();
        faults.push(worker, 0, FaultScript::disconnect_at_send(ordinal));
        let cfg = DistConfig {
            workers: 2,
            mode,
            chunk_edges,
            epoch_chunks,
            supervise: supervised(600, 2),
            faults,
            trace: true,
            ..Default::default()
        };
        let out = run_distributed(&DistAlgo::clugp(), input, k, &cfg)
            .unwrap_or_else(|e| panic!("{mode:?}: run did not recover: {e}"));
        assert_eq!(
            first_fault(&out).map(|(pass, _)| pass).as_deref(),
            Some("transform"),
            "{mode:?}: the fault must surface in the transform"
        );
        assert_eq!(out.recoveries, 1, "{mode:?}");
        assert_eq!(
            out.trace.count("pass:pairs"),
            1,
            "{mode:?}: the replay must start at barrier 3"
        );
        assert_eq!(
            fnv1a(&out.partitioning.assignments),
            want,
            "{mode:?}: recovered run diverged (got {:#018x})",
            fnv1a(&out.partitioning.assignments)
        );
    }
}

#[test]
fn checkpoints_resume_under_another_worker_count() {
    // Worker count is not part of a checkpoint's fingerprint: from barrier 2
    // on it holds the coordinator's tables, which no worker layout shaped.
    // Checkpoints written by 2 workers resume at barrier 2 and at barrier 3
    // under 1 and under 3 workers, on the monolith's bits.
    let (n, edges) = test_web_graph(700, 63);
    let k = 8;
    let reference = monolith(&mut Clugp::default(), n, &edges, k);
    let input = DistInput::Edges {
        num_vertices: n,
        edges: &edges,
    };
    let written = tmp("recount_written");
    let cfg = DistConfig {
        workers: 2,
        checkpoint_dir: Some(written.clone()),
        ..Default::default()
    };
    run_distributed(&DistAlgo::clugp(), input, k, &cfg).expect("checkpointed run");
    for barrier in [2u64, 3] {
        for workers in [1u32, 3] {
            // A resumed run commits the barriers it passes: each gets its
            // own copy of the files up to the one it resumes at.
            let dir = tmp(&format!("recount_{barrier}_{workers}"));
            for seq in 1..=barrier {
                let name = format!("ckpt-{seq:05}.clugpck");
                std::fs::copy(written.join(&name), dir.join(&name)).unwrap();
            }
            let cfg = DistConfig {
                workers,
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                trace: true,
                ..Default::default()
            };
            let out = run_distributed(&DistAlgo::clugp(), input, k, &cfg)
                .unwrap_or_else(|e| panic!("barrier {barrier}, {workers} workers: {e}"));
            let ran = |pass: &str| out.trace.count(pass);
            assert_eq!(
                (ran("pass:pass1"), ran("pass:pairs"), ran("pass:transform")),
                (0, usize::from(barrier == 2), 1),
                "barrier {barrier}, {workers} workers: finished passes must be skipped"
            );
            assert_eq!(
                (
                    out.partitioning.assignments,
                    out.partitioning.loads,
                    out.partitioning.num_vertices
                ),
                reference,
                "barrier {barrier}, {workers} workers: resumed run diverged from the monolith"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&written).ok();
}

#[test]
fn traced_faulted_run_records_recovery_events_and_stays_bit_identical() {
    // Tracing is an observer: with recording on, a faulted run still
    // recovers to the monolith's exact bits, and the merged trace carries
    // the recovery story — retry/respawn instants, timed checkpoint
    // restore — in a Chrome trace that passes the JSON validator.
    let (n, edges) = test_web_graph(600, 62);
    let k = 8;
    let reference = monolith(&mut Clugp::default(), n, &edges, k);
    let dir = tmp("traced_fault");
    let mut faults = FaultPlan::none();
    faults.push(0, 0, FaultScript::disconnect_at_send(1));
    let cfg = DistConfig {
        workers: 2,
        supervise: supervised(600, 2),
        faults,
        checkpoint_dir: Some(dir.clone()),
        trace: true,
        ..Default::default()
    };
    let out = run_distributed(
        &DistAlgo::clugp(),
        DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        },
        k,
        &cfg,
    )
    .expect("traced faulted run must recover");
    assert!(out.recoveries >= 1, "the scripted fault never fired");
    assert_eq!(
        first_fault(&out),
        Some(("pass1".to_string(), 0)),
        "the severed link must surface in pass 1, worker 0 holding the token"
    );
    assert_eq!(
        (
            out.partitioning.assignments,
            out.partitioning.loads,
            out.partitioning.num_vertices
        ),
        reference,
        "traced recovery diverged from the monolith"
    );

    let trace = &out.trace;
    assert!(
        trace.count("retry") >= 1,
        "recovery must leave a retry instant in the coordinator lane"
    );
    assert!(
        trace.count("respawn") >= 1,
        "worker respawn must be recorded"
    );
    assert!(
        trace.count("checkpoint:restore") >= 1,
        "recovery from a persisted barrier must record a restore span"
    );
    assert!(
        trace.count("checkpoint:write") >= 1,
        "barrier commits must record write spans"
    );
    assert!(
        out.ckpt_writes >= 1 && out.ckpt_restores >= 1,
        "checkpoint timings must be accounted: writes={} restores={}",
        out.ckpt_writes,
        out.ckpt_restores
    );
    // Worker-lane events survive the respawn: at least one stage span from
    // some worker incarnation must have been shipped and absorbed.
    assert!(
        trace.count("stage:pass1") + trace.count("stage:baseline") >= 1,
        "no worker stage spans were absorbed"
    );

    let json = clugp::obs::export::chrome_trace(trace, out.workers, None);
    clugp::obs::json::validate(&json)
        .unwrap_or_else(|e| panic!("fault-run trace is not valid JSON: {e}"));
    for needle in ["\"retry\"", "\"respawn\"", "\"checkpoint:restore\""] {
        assert!(json.contains(needle), "exported trace missing {needle}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovery_works_with_a_checkpoint_directory() {
    // Supervision and on-disk checkpoints compose: a mid-run fault with a
    // checkpoint directory configured recovers from the persisted barrier.
    let (n, edges) = test_web_graph(600, 57);
    let k = 8;
    let reference = monolith(&mut Clugp::default(), n, &edges, k);
    let dir = tmp("crash_ckpt");
    let mut faults = FaultPlan::none();
    faults.push(0, 0, FaultScript::disconnect_at_send(1));
    let cfg = DistConfig {
        workers: 2,
        supervise: supervised(600, 2),
        faults,
        checkpoint_dir: Some(dir.clone()),
        trace: true,
        ..Default::default()
    };
    let out = run_distributed(
        &DistAlgo::clugp(),
        DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        },
        k,
        &cfg,
    )
    .expect("checkpointed run must recover");
    assert!(out.recoveries >= 1);
    assert_eq!(
        first_fault(&out),
        Some(("pass1".to_string(), 0)),
        "the severed link must surface in pass 1, worker 0 holding the token"
    );
    assert_eq!(
        (
            out.partitioning.assignments,
            out.partitioning.loads,
            out.partitioning.num_vertices
        ),
        reference,
        "checkpoint-backed recovery diverged from the monolith"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Multi-process tests: the real `clugp-part` binary (`clugp_part_exe`),
// worker processes over Unix sockets. When only this test target was built
// (`cargo test --test fault_tolerance` before any build of the bins) the
// tests skip with a note instead of failing.
// ---------------------------------------------------------------------------

fn write_edge_fixture(dir: &std::path::Path, vertices: u64, seed: u64) -> PathBuf {
    let (_, edges) = test_web_graph(vertices, seed);
    let mut text = String::with_capacity(edges.len() * 12);
    for e in &edges {
        text.push_str(&format!("{} {}\n", e.src, e.dst));
    }
    let path = dir.join("graph.txt");
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn killed_unix_worker_process_recovers_bit_identically() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = tmp("sigkill");
    let graph = write_edge_fixture(&dir, 1_200, 58);
    let ref_tsv = dir.join("ref.tsv");
    let kill_tsv = dir.join("kill.tsv");
    let common = |out: &PathBuf| {
        vec![
            graph.to_string_lossy().into_owned(),
            "--k".into(),
            "8".into(),
            "--order".into(),
            "asis".into(),
            "--output".into(),
            out.to_string_lossy().into_owned(),
        ]
    };

    // Monolithic reference.
    let status = Command::new(&exe)
        .args(common(&ref_tsv))
        .output()
        .expect("spawn clugp-part");
    assert!(
        status.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    // 4 worker processes; worker 1 is armed to die abruptly (SIGABRT, no
    // goodbye frame — indistinguishable from SIGKILL on the link) on its 3rd
    // received frame: `Configure`, worker 0's frontier as its seed, and the
    // `RunStage` that makes the pass-1 turn its own — the one frame it is
    // sent while it holds it. It says where it died on stderr.
    let out = Command::new(&exe)
        .args(common(&kill_tsv))
        .args(["--workers", "4", "--transport", "unix"])
        .args(["--socket-dir", &dir.join("socks").to_string_lossy()])
        .env("CLUGP_AMPC_KILL_AT", "1:3")
        .output()
        .expect("spawn clugp-part");
    assert!(
        out.status.success(),
        "killed-worker run did not recover:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let recoveries: u32 = stdout
        .lines()
        .find_map(|l| {
            l.strip_prefix("recoveries")?
                .trim_start_matches(['=', ' '])
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no recoveries line in:\n{stdout}"));
    assert!(recoveries >= 1, "the armed kill never fired:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("kill switch fired: holding the token of ClugpPass1"),
        "the kill must land in pass 1 with worker 1 streaming:\n{stderr}"
    );

    let reference = std::fs::read(&ref_tsv).expect("reference TSV");
    let recovered = std::fs::read(&kill_tsv).expect("recovered TSV");
    assert_eq!(
        reference, recovered,
        "recovered multi-process run is not byte-identical to the monolith"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The decode knobs reach worker processes in the handshake, with their
/// block ranges: a flipped payload byte is the checksum error of the worker
/// that met it under the default policy, and is not looked for under
/// `--checksums header`.
#[test]
fn damaged_pack_over_unix_workers_names_the_checksum() {
    use clugp_graph::pack::{write_pack, PackOptions};
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = tmp("damaged_pack");
    let (n, edges) = test_web_graph(400, 61);
    let pack = dir.join("graph.clugpz");
    write_pack(&pack, n, &edges, &PackOptions::default()).unwrap();
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[36 + 1000] ^= 0x40; // header is 36 bytes; this is payload
    std::fs::write(&pack, bytes).unwrap();
    let run = |extra: &[&str]| {
        Command::new(&exe)
            .arg(&pack)
            .args(["--k", "4", "--order", "asis", "--workers", "2"])
            .args(["--transport", "unix"])
            .args(["--socket-dir", &dir.join("socks").to_string_lossy()])
            .args(extra)
            .output()
            .expect("spawn clugp-part")
    };
    let out = run(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed its checksum"), "{stderr}");
    let out = run(&["--checksums", "header"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("failed its checksum"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_spawn_failure_exits_nonzero_naming_the_worker() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = tmp("spawnfail");
    let graph = write_edge_fixture(&dir, 200, 59);
    let out = Command::new(&exe)
        .arg(&graph)
        .args(["--k", "4", "--workers", "2", "--transport", "unix"])
        .args(["--socket-dir", &dir.join("socks").to_string_lossy()])
        .env("CLUGP_AMPC_WORKER_EXE", "/nonexistent/clugp-ampc-worker")
        .output()
        .expect("spawn clugp-part");
    assert!(
        !out.status.success(),
        "run must fail when workers cannot spawn"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("worker 0"),
        "stderr must name the worker that failed to spawn:\n{stderr}"
    );
    assert!(
        stderr.contains("/nonexistent/clugp-ampc-worker"),
        "stderr must name the cause:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_checkpoint_dir_and_resume_roundtrip() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = tmp("cli_resume");
    let graph = write_edge_fixture(&dir, 600, 60);
    let ckpt = dir.join("ckpts");
    let first = dir.join("first.tsv");
    let second = dir.join("second.tsv");
    let run = |output: &PathBuf, resume: bool| {
        let mut cmd = Command::new(&exe);
        cmd.arg(&graph)
            .args(["--k", "8", "--workers", "2", "--order", "asis"])
            .args(["--checkpoint-dir", &ckpt.to_string_lossy()])
            .args(["--output", &output.to_string_lossy()]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("spawn clugp-part");
        assert!(
            out.status.success(),
            "run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&first, false);
    let ckpts = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "clugpck")
        })
        .count();
    assert!(ckpts >= 1, "no checkpoint files were persisted");
    run(&second, true);
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "resumed CLI run diverged from the fresh run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
