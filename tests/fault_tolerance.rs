//! Fault tolerance of the AMPC engine: scripted transport faults, barrier
//! checkpoints, and end-to-end crash recovery must never change a
//! partition. A recovered run is *bit-identical* to an undisturbed
//! monolith run; a fault the retry budget cannot absorb terminates with a
//! typed [`PartitionError::Fault`] within the deadline — no hangs, no
//! zombies. The multi-process tests drive the real `clugp-part` binary
//! with worker processes over Unix sockets, kill one mid-pass, and diff
//! the recovered TSV byte-for-byte.

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::{
    run_distributed, AmpcMode, DistConfig, DistInput, FaultAction, FaultPlan, FaultScript,
    TransportKind,
};
use clugp::error::PartitionError;
use clugp_repro::{
    assignment_hash, clugp_part_exe, monolith, outcome, scratch_dir, supervised, test_web_graph,
    web_fixture, Case, Input, Mode,
};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

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

#[test]
fn scripted_faults_recover_bit_identically() {
    let (n, edges) = test_web_graph(800, 51);
    let k = 8;
    let reference = monolith(&DistAlgo::clugp(), n, &edges, k);

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
            outcome(out.partitioning),
            reference,
            "{case}: recovered run diverged from the monolith"
        );
    }
}

#[test]
fn every_incarnation_faulty_exhausts_retries_into_typed_error() {
    // Worker 1's link dies on every incarnation — the one it starts with
    // and both respawns — so max_retries = 2 must exhaust into a typed
    // fault, not a hang and not a panic.
    let mut faults = FaultPlan::none();
    for incarnation in 0..=2 {
        faults.push(1, incarnation, FaultScript::disconnect_at_send(1));
    }
    let mode = Mode::sequenced(3);
    let case = Case {
        mode,
        faults: Some(faults),
        ..Case::new(DistAlgo::clugp(), 400, 52)
    };
    let err = case
        .check()
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
    // bit-identically or terminates with a typed error (`Case::check`
    // asserts both). The deadline keeps "terminates" bounded; the test
    // finishing at all is the no-hang assertion. A plan draws its ordinal
    // from the seven frames a link carries behind the handshake, the same
    // few whatever the chunk: to worker 0 `RunStage`, a cast, `RunStage`, a
    // cast, `RunStage` (1–5), to a later worker the pass-1 seed ahead of them
    // (1–6), then `Shutdown`, whose fate nobody waits for; back, traced, the
    // frontier, then a trace frame and `StageDone` per stage (1–7). Whether
    // the ordinal names a frame of the flow on that worker's link:
    let lands = |worker: u32, sent: bool, at: u64| match sent {
        true => at <= 5 + u64::from(worker > 0),
        false => at <= 7,
    };
    let mut surfaced = 0;
    for seed in 1..=16u64 {
        let faults = FaultPlan::seeded(seed, 3, 7);
        let (worker, sent, at, action) = seeded_fault(&faults);
        let case = Case {
            mode: Mode::Sequenced {
                workers: 3,
                transport: TransportKind::Channel,
                chunk_edges: 0,
            },
            faults: Some(faults),
            ..Case::new(DistAlgo::clugp(), 500, 53)
        };
        match case.check() {
            Ok(out) => {
                // Anything but a delay surfaces, on a frame of the flow.
                let fired = first_fault(&out.expect("a sequenced run"));
                assert_eq!(
                    fired.is_some(),
                    lands(worker, sent, at) && !matches!(action, FaultAction::Delay(_)),
                    "seed {seed}: {:?} surfaced at {fired:?}",
                    case.faults,
                );
                surfaced += usize::from(fired.is_some());
            }
            // A typed error: a transport fault, or a corrupt
            // coordinator->worker frame, which the worker reports back and
            // which stays fatal (deterministic errors are not retried).
            Err(_) => {
                assert!(lands(worker, sent, at), "seed {seed}: {:?}", case.faults);
                surfaced += 1;
            }
        }
    }
    assert!(surfaced >= 8, "{surfaced} of 16 plans fired");
}

/// `algo` over the web graph of `vertices` vertices drawn from `seed`, on
/// `workers` sequenced workers over `transport` with `faults` armed: the
/// recovered run, which must equal the monolith's.
fn recovered(
    algo: DistAlgo,
    (vertices, seed): (u64, u64),
    workers: u32,
    transport: TransportKind,
    faults: FaultPlan,
) -> clugp::ampc::DistOutcome {
    let case = Case {
        mode: Mode::Sequenced {
            workers,
            transport,
            chunk_edges: 0,
        },
        faults: Some(faults),
        ..Case::new(algo, vertices, seed)
    };
    let out = case.check().unwrap_or_else(|e| panic!("{case:?}: {e}"));
    let out = out.expect("a sequenced run");
    assert!(out.recoveries >= 1, "{case:?}: no recovery");
    out
}

#[test]
fn faults_recover_over_unix_sockets_too() {
    // Same engine, socket framing instead of channels: severing a link
    // mid-pass recovers bit-identically there as well.
    let mut faults = FaultPlan::none();
    faults.push(0, 0, FaultScript::disconnect_at_send(1));
    let out = recovered(DistAlgo::clugp(), (600, 54), 2, TransportKind::Unix, faults);
    assert_eq!(
        first_fault(&out),
        Some(("pass1".to_string(), 0)),
        "the severed link must surface in pass 1, worker 0 holding the token"
    );
}

#[test]
fn relaxed_mode_recovers_to_the_undisturbed_relaxed_result() {
    // Relaxed mode is deterministic for a fixed worker count, so crash
    // recovery has a precise convergence target: the fault-free relaxed
    // run. A severed link mid-stage must replay the segment and land on
    // those exact bits through the multi-barrier CLUGP flow.
    let (n, edges) = test_web_graph(900, 61);
    let k = 8;
    let algo = DistAlgo::clugp();
    let cfg = |faults: FaultPlan| DistConfig {
        workers: 3,
        mode: AmpcMode::Relaxed,
        chunk_edges: 64,
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
    .unwrap_or_else(|e| panic!("fault-free relaxed run: {e}"));
    // CLUGP's first stage is two frames out (`Configure`, `RunStage`) and
    // three back (`ConfigureOk`, the frontier, `StageDone`): the faults hit
    // the second of each.
    for (case, worker, script) in [
        (
            "link severed mid-send",
            1,
            FaultScript::disconnect_at_send(1),
        ),
        (
            "inbound frame swallowed",
            2,
            FaultScript {
                on_recv: vec![(2, FaultAction::DropFrame)],
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
        .unwrap_or_else(|e| panic!("{case}: relaxed run did not recover: {e}"));
        assert!(
            out.recoveries >= 1,
            "{case}: the scripted fault never fired"
        );
        // Relaxed workers stream at once, so only the pass is named.
        let pass = first_fault(&out).map(|(pass, _)| pass);
        assert_eq!(
            pass.as_deref(),
            Some("pass1"),
            "{case}: the fault must surface in the first pass"
        );
        assert_eq!(
            outcome(out.partitioning),
            outcome(reference.partitioning.clone()),
            "{case}: recovered relaxed run diverged from the \
                 undisturbed relaxed run"
        );
    }
}

#[test]
fn checkpoints_persist_and_resume_bit_identically() {
    let (n, edges) = test_web_graph(700, 56);
    let k = 8;
    let reference = monolith(&DistAlgo::clugp(), n, &edges, k);
    let dir = scratch_dir("resume");
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
    assert_eq!(outcome(out.partitioning), reference);
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
        outcome(out.partitioning),
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
        outcome(out.partitioning),
        reference,
        "resume after checkpoint corruption diverged"
    );

    // Resume against an empty directory degrades to a fresh run.
    let empty = scratch_dir("resume_empty");
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
    let reference = monolith(&DistAlgo::clugp(), n, &edges, k);
    // (mode, chunk, faulted worker, ordinal of the transform's
    // `RunStage` among the frames sent to it, the hash to land on). The
    // relaxed configuration and hash are `distributed_equivalence`'s golden
    // 2-worker CLUGP row; a relaxed worker, and the first sequenced one, is
    // sent `Configure`, then a cast and a `RunStage` per read-only stage
    // behind pass 1's `RunStage`.
    for (mode, chunk_edges, worker, ordinal, want) in [
        (AmpcMode::Sequenced, 0, 0, 5, assignment_hash(&reference.0)),
        (AmpcMode::Relaxed, 173, 1, 5, 0x784d_a5bd_8541_5212),
    ] {
        let mut faults = FaultPlan::none();
        faults.push(worker, 0, FaultScript::disconnect_at_send(ordinal));
        let cfg = DistConfig {
            workers: 2,
            mode,
            chunk_edges,
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
            assignment_hash(&out.partitioning.assignments),
            want,
            "{mode:?}: recovered run diverged (got {:#018x})",
            assignment_hash(&out.partitioning.assignments)
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
    let reference = monolith(&DistAlgo::clugp(), n, &edges, k);
    let input = DistInput::Edges {
        num_vertices: n,
        edges: &edges,
    };
    let written = scratch_dir("recount_written");
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
            let dir = scratch_dir(&format!("recount_{barrier}_{workers}"));
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
                outcome(out.partitioning),
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
    let reference = monolith(&DistAlgo::clugp(), n, &edges, k);
    let dir = scratch_dir("traced_fault");
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
        outcome(out.partitioning),
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
        trace.count("stage:pass1") >= 1,
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
    let reference = monolith(&DistAlgo::clugp(), n, &edges, k);
    let dir = scratch_dir("crash_ckpt");
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
        outcome(out.partitioning),
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

#[test]
fn killed_unix_worker_process_recovers_bit_identically() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = scratch_dir("sigkill");
    let graph = web_fixture(&dir, Input::Text, 1_200, 58);
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

/// A worker process reads its block range with every CRC checked: a
/// flipped payload byte is the checksum error of the worker that met it.
#[test]
fn damaged_pack_over_unix_workers_names_the_checksum() {
    use clugp_graph::pack::{write_pack, PackOptions};
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = scratch_dir("damaged_pack");
    let (n, edges) = test_web_graph(400, 61);
    let pack = dir.join("graph.clugpz");
    write_pack(&pack, n, &edges, &PackOptions::default()).unwrap();
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[36 + 1000] ^= 0x40; // header is 36 bytes; this is payload
    std::fs::write(&pack, bytes).unwrap();
    let out = Command::new(&exe)
        .arg(&pack)
        .args(["--k", "4", "--order", "asis", "--workers", "2"])
        .args(["--transport", "unix"])
        .args(["--socket-dir", &dir.join("socks").to_string_lossy()])
        .output()
        .expect("spawn clugp-part");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed its checksum"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_spawn_failure_exits_nonzero_naming_the_worker() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = scratch_dir("spawnfail");
    let graph = web_fixture(&dir, Input::Text, 200, 59);
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
fn worker_timeout_beyond_a_duration_exits_two_naming_the_flag() {
    // A deadline no `Duration` holds is refused while the flags are parsed,
    // as a usage error, not by a panic when the run is configured.
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = scratch_dir("timeout_overflow");
    let graph = web_fixture(&dir, Input::Text, 200, 59);
    let out = Command::new(&exe)
        .arg(&graph)
        .args(["--k", "2", "--workers", "2", "--worker-timeout", "1e300"])
        .output()
        .expect("spawn clugp-part");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--worker-timeout"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_checkpoint_dir_and_resume_roundtrip() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = scratch_dir("cli_resume");
    let graph = web_fixture(&dir, Input::Text, 600, 60);
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
