//! Distributed-vs-monolith equivalence: the coordinator/worker engine must
//! produce byte-identical partitions to the monolithic partitioners — for
//! CLUGP (and ablations) plus all six vertex-cut baselines, at every worker
//! count, over either transport, at any streaming chunk size. This is the
//! correctness anchor of the AMPC engine: sharding the state tables and
//! sequencing the stream across workers is a pure refactoring of the
//! placement pipeline, never a semantic change.

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::table::{Layout, MergeOp, StateShard};
use clugp::ampc::{run_distributed, AmpcMode, DistConfig, DistInput, TransportKind};
use clugp::baselines::{Hashing, Hdrf, HdrfConfig, MintConfig};
use clugp::clugp::{Clugp, ClugpConfig, ClusterAssignMode, MigrationPolicy};
use clugp::partitioner::Partitioner;
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;
use clugp_repro::test_web_graph;

/// Monolith/distributed pairs under test: every registered algorithm and
/// its monolith, plus the CLUGP ablations and the two non-default migration
/// policies (so every `MigrationPolicy` wire tag crosses a `Configure`).
fn roster() -> Vec<(&'static str, Box<dyn Partitioner>, DistAlgo)> {
    let mut algos: Vec<DistAlgo> = ["hashing", "grid", "dbh", "greedy", "hdrf", "mint", "clugp"]
        .iter()
        .map(|name| DistAlgo::by_name(name).expect("registered algorithm"))
        .collect();
    for algo in &mut algos {
        if let DistAlgo::Mint(cfg) = algo {
            // Small batches so wave boundaries cross worker-range boundaries.
            cfg.batch_size = 97;
        }
    }
    algos.push(DistAlgo::Clugp(ClugpConfig {
        splitting: false,
        ..Default::default()
    }));
    algos.push(DistAlgo::Clugp(ClugpConfig {
        assign_mode: ClusterAssignMode::Greedy,
        ..Default::default()
    }));
    let mut named: Vec<(&'static str, DistAlgo)> =
        algos.into_iter().map(|algo| (algo.name(), algo)).collect();
    for (name, migration) in [
        ("CLUGP/headroom", MigrationPolicy::Headroom),
        ("CLUGP/paper", MigrationPolicy::Paper),
    ] {
        let config = ClugpConfig {
            migration,
            ..Default::default()
        };
        named.push((name, DistAlgo::Clugp(config)));
    }
    named
        .into_iter()
        .map(|(name, algo)| (name, algo.monolith(), algo))
        .collect()
}

fn monolith(
    p: &mut dyn Partitioner,
    n: u64,
    edges: &[clugp_graph::types::Edge],
    k: u32,
) -> (Vec<u32>, Vec<u64>, u64) {
    let mut s = InMemoryStream::new(n, edges.to_vec());
    let run = p.partition(&mut s, k).expect("monolith partition");
    (
        run.partitioning.assignments,
        run.partitioning.loads,
        run.partitioning.num_vertices,
    )
}

#[test]
fn every_algorithm_is_bit_identical_across_workers_transports_and_chunks() {
    let (n, edges) = test_web_graph(1_500, 41);
    let k = 8;
    for (name, mut p, algo) in roster() {
        let reference = monolith(p.as_mut(), n, &edges, k);
        for workers in [1u32, 2, 4] {
            for transport in [TransportKind::Channel, TransportKind::Unix] {
                for chunk_edges in [0usize, 173] {
                    let cfg = DistConfig {
                        workers,
                        transport,
                        chunk_edges,
                        ..Default::default()
                    };
                    let out = run_distributed(
                        &algo,
                        DistInput::Edges {
                            num_vertices: n,
                            edges: &edges,
                        },
                        k,
                        &cfg,
                    )
                    .unwrap_or_else(|e| {
                        panic!("{name}: {workers}w/{transport:?}/chunk {chunk_edges}: {e}")
                    });
                    assert_eq!(out.workers, workers, "{name}: wrong worker count");
                    assert_eq!(
                        (
                            out.partitioning.assignments,
                            out.partitioning.loads,
                            out.partitioning.num_vertices
                        ),
                        reference,
                        "{name}: {workers} workers / {transport:?} / chunk {chunk_edges} \
                         diverged from the monolith"
                    );
                }
            }
        }
        // Relaxed mode at one worker reconciles only with itself: every
        // epoch sync hands back exactly what the worker shipped, so it too
        // must equal the monolith.
        let out = run_distributed(
            &algo,
            DistInput::Edges {
                num_vertices: n,
                edges: &edges,
            },
            k,
            &relaxed_cfg(1),
        )
        .unwrap_or_else(|e| panic!("{name}: relaxed, 1 worker: {e}"));
        assert_eq!(
            (
                out.partitioning.assignments,
                out.partitioning.loads,
                out.partitioning.num_vertices
            ),
            reference,
            "{name}: relaxed mode at 1 worker diverged from the monolith"
        );
    }
}

#[test]
fn multi_worker_runs_actually_exchange_state() {
    // Sanity that the equivalence above is not vacuous: a 4-worker CLUGP run
    // must route real state traffic through the coordinator.
    let (n, edges) = test_web_graph(1_000, 42);
    let out = run_distributed(
        &DistAlgo::clugp(),
        DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        },
        8,
        &DistConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        out.net.bytes_sent > 0 && out.net.frames_sent > 0,
        "4-worker run exchanged no state: {:?}",
        out.net
    );
}

/// Bytes and frames the coordinator links carried under protocol verb `name`.
fn verb_traffic(out: &clugp::ampc::DistOutcome, name: &str) -> (u64, u64) {
    let slot = (0..out.net.by_verb.len())
        .find(|&tag| clugp::ampc::proto::Msg::verb_name(tag) == name)
        .expect("known verb");
    (out.net.by_verb[slot].bytes, out.net.by_verb[slot].frames)
}

#[test]
fn sequenced_state_traffic_is_bounded_by_touched_keys_not_by_chunk_count() {
    // Stage residency (DESIGN.md §7): a worker fetches a row once per stage
    // and writes it back once, so what the routing verbs carry follows the
    // keys a range touches — and a fetch round is paid per admission window
    // (64 chunks), not per chunk. That is the one-pass baselines' bill: CLUGP
    // holds its O(n) tables whole and routes nothing, whatever the chunking.
    // Counts only — nothing here is timed.
    let k = 8;
    let routing = [
        "RouteBatch",
        "StateReqBatch",
        "RouteReply",
        "StateRespBatch",
    ];
    for name in ["clugp", "hdrf"] {
        let algo = DistAlgo::by_name(name).expect("registered algorithm");
        let run = |n: u64, edges: &[clugp_graph::types::Edge], workers: u32, chunk_edges: usize| {
            let reference = monolith(algo.monolith().as_mut(), n, edges, k).0;
            let cfg = DistConfig {
                workers,
                chunk_edges,
                ..Default::default()
            };
            let input = DistInput::Edges {
                num_vertices: n,
                edges,
            };
            let out = run_distributed(&algo, input, k, &cfg)
                .unwrap_or_else(|e| panic!("{name}: {workers}w/chunk {chunk_edges}: {e}"));
            assert_eq!(
                out.partitioning.assignments, reference,
                "{name}: {workers}w/chunk {chunk_edges} diverged from the monolith"
            );
            if name == "clugp" {
                for verb in routing {
                    assert_eq!(verb_traffic(&out, verb), (0, 0), "clugp sent {verb}");
                }
            }
            out
        };
        // One worker owns every key: nothing is ever routed.
        let (n, edges) = test_web_graph(1_500, 41);
        let alone = run(n, &edges, 1, 64);
        assert_eq!(
            verb_traffic(&alone, "RouteBatch"),
            (0, 0),
            "{name}: a lone worker routed state through the coordinator"
        );
        // At one window size the chunk is invisible on the wire. Every range
        // of this graph fits the 4 096-edge window of 64-edge chunks, so both
        // chunk sizes admit a range in a single window: the routing verbs
        // carry the same frames and the same bytes, not "fewer than 2x".
        let (n, edges) = test_web_graph(500, 41);
        for workers in [2u32, 4] {
            assert!(edges.len().div_ceil(workers as usize) <= 64 * 64);
            let (small, large) = (run(n, &edges, workers, 64), run(n, &edges, workers, 4096));
            for verb in routing {
                let (bytes, frames) = verb_traffic(&large, verb);
                assert_eq!(
                    frames > 0,
                    name == "hdrf",
                    "{name}: {workers} workers, {verb}"
                );
                assert_eq!(
                    verb_traffic(&small, verb),
                    (bytes, frames),
                    "{name}: {workers} workers, {verb}: 64-edge chunks against 4096-edge chunks"
                );
            }
        }
        // Across window sizes the rounds follow the windows and the bytes
        // the touched keys: 1-edge chunks make 64-edge windows, hundreds per
        // range, and still route less than twice the bytes of one window —
        // only the per-frame headers grow.
        let (n, edges) = test_web_graph(1_500, 41);
        let routed = |out: &clugp::ampc::DistOutcome| {
            verb_traffic(out, "RouteBatch").0 + verb_traffic(out, "StateReqBatch").0
        };
        let (small, large) = (
            routed(&run(n, &edges, 2, 1)),
            routed(&run(n, &edges, 2, 4096)),
        );
        assert!(
            small <= 2 * large,
            "{name}: routed {small} B in 64-edge windows, more than twice the {large} B of one"
        );
    }
}

#[test]
fn a_window_boundary_inside_a_source_run_fetches_the_source_once() {
    // The admission probe skips a source id that repeats the previous
    // edge's (a canonical pack repeats each some 36 times). That memory is
    // per window: a run the boundary cuts in two probes its source again on
    // the far side, finds it resident, and fetches nothing — never twice,
    // and never zero times for a source whose run *starts* a window. This
    // test plays the coordinator for worker 0 of 2, which owns keys < 100;
    // the sources live on worker 1, so every fetch crosses the wire.
    use clugp::ampc::proto::{
        AlgoSpec, BatchOp, InputSpec, Msg, Stage, TableDef, Token, WorkerSetup,
    };
    use clugp::ampc::{channel_pair, run_worker, Transport};
    use clugp_graph::types::Edge;

    // 1-edge chunks: 64-edge windows. Source 500 runs over the first
    // boundary (edges 0..100), 501 fills the second window to its brim, 502
    // starts the third.
    let run = |src: u32, len: u32| (0..len).map(move |dst| Edge::new(src, dst));
    let edges: Vec<Edge> = run(500, 100)
        .chain(run(501, 28))
        .chain(run(502, 10))
        .collect();
    assert_eq!((edges.len(), edges[128].src), (138, 502));

    let (mut coord, worker) = channel_pair(8);
    let handle = std::thread::spawn(move || run_worker(Box::new(worker)));
    let send = |coord: &mut dyn Transport, msg: Msg| coord.send(&msg.encode()).unwrap();
    send(
        &mut coord,
        Msg::Configure(Box::new(WorkerSetup {
            worker: 0,
            workers: 2,
            k: 4,
            chunk: 1,
            heartbeat_ms: 0,
            algo: AlgoSpec::Dbh {
                seed: 7,
                max_vertices: 1 << 20,
            },
            input: InputSpec::Inline { edges },
            tables: vec![TableDef {
                layout: Layout::Range { span: 100 },
                width: 1,
            }],
            trace: false,
        })),
    );
    send(
        &mut coord,
        Msg::RunStage {
            stage: Stage::Baseline,
            token: Token {
                loads: vec![0; 4],
                ..Default::default()
            },
            mode: AmpcMode::Sequenced,
            epoch: 0,
        },
    );
    // Worker 1's shard, as this test serves it: source 500 arrives with a
    // partial degree of 1 000 from an earlier range.
    let stored = |key: u64| if key == 500 { 1_000 } else { 0 };
    let (mut fetched, mut written) = (Vec::new(), Vec::new());
    loop {
        match Msg::decode(&coord.recv().unwrap()).unwrap() {
            Msg::ConfigureOk => {}
            Msg::RouteBatch { to: 1, keys, ops } => match ops.as_slice() {
                [BatchOp::Get { table: 0 }] => {
                    let rows = keys.iter().map(|&key| stored(key)).collect();
                    fetched.push(keys);
                    send(&mut coord, Msg::RouteReply { rows });
                }
                [BatchOp::Put { table: 0, vals, .. }] => {
                    written.extend(keys.into_iter().zip(vals.iter().copied()));
                }
                other => panic!("unexpected batch {other:?}"),
            },
            Msg::StageDone { assignments, .. } => {
                assert_eq!(assignments.len(), 138);
                break;
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }
    send(&mut coord, Msg::Shutdown);
    handle.join().expect("worker thread").expect("worker");
    // One fetch per source, in the window its run starts in; the second
    // half of 500's run fetched nothing.
    assert_eq!(fetched, vec![vec![500], vec![501], vec![502]]);
    // And the fetched row was the one the kernel counted on: 1 000 + 100.
    assert_eq!(written, vec![(500, 1_100), (501, 28), (502, 10)]);
}

#[test]
fn clusters_minted_on_one_worker_are_read_on_the_next() {
    // A small Vmax makes pass 1 split and migrate constantly, so worker 0
    // mints most raw clusters and the volumes in the frontier it hands on are
    // what worker 1 splits and migrates against — those of clusters that did
    // not exist when the stage began included.
    let (n, edges) = test_web_graph(1_500, 45);
    let k = 8;
    for vmax_factor in [0.02, 0.2] {
        let config = ClugpConfig {
            vmax_factor,
            ..Default::default()
        };
        let reference = monolith(&mut Clugp::new(config.clone()), n, &edges, k);
        for (workers, chunk_edges) in [(2u32, 0usize), (2, 37), (3, 173)] {
            let out = run_distributed(
                &DistAlgo::Clugp(config.clone()),
                DistInput::Edges {
                    num_vertices: n,
                    edges: &edges,
                },
                k,
                &DistConfig {
                    workers,
                    chunk_edges,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("vmax x{vmax_factor}: {workers}w: {e}"));
            assert_eq!(
                (
                    out.partitioning.assignments,
                    out.partitioning.loads,
                    out.partitioning.num_vertices
                ),
                reference,
                "vmax x{vmax_factor}: {workers} workers / chunk {chunk_edges} diverged"
            );
        }
    }
}

#[test]
fn pack_input_matches_monolith_on_the_same_pack_stream() {
    // Pack streams replay the canonical (src, dst) order, so the monolith
    // reference must run over the same pack stream.
    use clugp_graph::pack::{write_pack, PackOptions, PackedEdgeStream};
    let (n, edges) = test_web_graph(1_200, 43);
    let dir = std::env::temp_dir().join("clugp_dist_equiv");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dist.clugpz");
    // Small blocks so 4 workers get non-trivial block ranges.
    write_pack(
        &path,
        n,
        &edges,
        &PackOptions {
            block_bytes: 2048,
            ..Default::default()
        },
    )
    .unwrap();

    for (name, mut p, algo) in roster() {
        let mut packed = PackedEdgeStream::open(&path).unwrap();
        let run = p.partition(&mut packed, 8).expect("monolith over pack");
        for workers in [1u32, 4] {
            let out = run_distributed(
                &algo,
                DistInput::Pack(&path),
                8,
                &DistConfig {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name}: {workers}w over pack: {e}"));
            assert_eq!(
                (out.partitioning.assignments, out.partitioning.loads),
                (
                    run.partitioning.assignments.clone(),
                    run.partitioning.loads.clone()
                ),
                "{name}: {workers}-worker pack run diverged from the monolith"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pack_input_with_pipelined_decode_matches_serial_decode() {
    // The AMPC worker's pack source honors the process-wide decode
    // options: with pipeline workers enabled, every worker decodes its
    // block range ahead of its stages — and the partitions must stay
    // bit-identical to the serial-decode run.
    use clugp_graph::pack::{
        set_decode_options, write_pack, ChecksumPolicy, DecodeOptions, PackOptions,
    };
    let (n, edges) = test_web_graph(1_000, 47);
    let dir = std::env::temp_dir().join("clugp_dist_equiv_pipelined");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("piped.clugpz");
    write_pack(
        &path,
        n,
        &edges,
        &PackOptions {
            block_bytes: 1024,
            ..Default::default()
        },
    )
    .unwrap();

    for (name, _, algo) in roster() {
        let config = DistConfig {
            workers: 3,
            ..Default::default()
        };
        set_decode_options(DecodeOptions::default()); // serial reference
        let serial = run_distributed(&algo, DistInput::Pack(&path), 8, &config)
            .unwrap_or_else(|e| panic!("{name}: serial decode: {e}"));
        set_decode_options(DecodeOptions {
            threads: 2,
            prefetch: 2,
            checksums: ChecksumPolicy::Full,
        });
        let piped = run_distributed(&algo, DistInput::Pack(&path), 8, &config)
            .unwrap_or_else(|e| panic!("{name}: pipelined decode: {e}"));
        set_decode_options(DecodeOptions::default());
        assert_eq!(
            (piped.partitioning.assignments, piped.partitioning.loads),
            (serial.partitioning.assignments, serial.partitioning.loads),
            "{name}: pipelined worker decode diverged from serial"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn invalid_parameters_fail_like_the_monolith() {
    let (n, edges) = test_web_graph(200, 44);
    let input = DistInput::Edges {
        num_vertices: n,
        edges: &edges,
    };
    let cfg = DistConfig::default();
    let err = run_distributed(&DistAlgo::clugp(), input, 0, &cfg).unwrap_err();
    assert!(err.to_string().contains("k must be at least 1"), "{err}");
    let err = run_distributed(
        &DistAlgo::Clugp(ClugpConfig {
            tau: 0.5,
            ..Default::default()
        }),
        input,
        4,
        &cfg,
    )
    .unwrap_err();
    assert!(err.to_string().contains("tau"), "{err}");
    let err = run_distributed(
        &DistAlgo::Mint(MintConfig {
            batch_size: 0,
            ..Default::default()
        }),
        input,
        4,
        &cfg,
    )
    .unwrap_err();
    assert!(err.to_string().contains("batch_size"), "{err}");
    let err = run_distributed(
        &DistAlgo::clugp(),
        input,
        4,
        &DistConfig {
            workers: 0,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("worker count"), "{err}");
}

#[test]
fn empty_stream_matches_monolith_at_any_worker_count() {
    for (name, mut p, algo) in roster() {
        let reference = monolith(p.as_mut(), 0, &[], 4);
        for workers in [1u32, 3] {
            let out = run_distributed(
                &algo,
                DistInput::Edges {
                    num_vertices: 0,
                    edges: &[],
                },
                4,
                &DistConfig {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name}: empty stream, {workers} workers: {e}"));
            assert_eq!(
                (
                    out.partitioning.assignments,
                    out.partitioning.loads,
                    out.partitioning.num_vertices
                ),
                reference,
                "{name}: empty stream diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn corrupt_pack_is_a_fatal_park_error_not_a_retry() {
    // A corrupt pack block is a *deterministic* input error: the worker
    // that hits the CRC mismatch reports it, and supervision must fail the
    // run with the same kind of error the monolith parks — never burn the
    // retry budget replaying a pass that can only fail again.
    use clugp::ampc::SuperviseConfig;
    use clugp_graph::pack::{crc32, write_pack, PackOptions, PackedEdgeStream, ShardedPackReader};

    let (n, edges) = test_web_graph(900, 45);
    let dir = std::env::temp_dir().join("clugp_dist_corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.clugpz");
    write_pack(
        &path,
        n,
        &edges,
        &PackOptions {
            block_bytes: 2048,
            ..Default::default()
        },
    )
    .unwrap();
    // Flip a payload byte of the middle block; metadata stays valid so the
    // pack opens fine and dies mid-stream, on a worker.
    let reader = ShardedPackReader::open(&path).unwrap();
    let entries = reader.index().entries().to_vec();
    drop(reader);
    assert!(entries.len() >= 3, "need a multi-block pack");
    let mid = &entries[entries.len() / 2];
    let mut data = std::fs::read(&path).unwrap();
    data[mid.byte_offset as usize] ^= 0xFF;
    assert_ne!(
        crc32(&data[mid.byte_offset as usize..][..mid.byte_len as usize]),
        mid.crc,
        "corruption must be CRC-visible"
    );
    std::fs::write(&path, &data).unwrap();

    let mut s = PackedEdgeStream::open(&path).unwrap();
    let monolith_err = Clugp::default().partition(&mut s, 8).unwrap_err();
    assert!(
        monolith_err.to_string().contains("checksum"),
        "{monolith_err}"
    );

    let cfg = DistConfig {
        workers: 2,
        supervise: SuperviseConfig {
            worker_timeout: Some(std::time::Duration::from_secs(5)),
            max_retries: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let dist_err = run_distributed(&DistAlgo::clugp(), DistInput::Pack(&path), 8, &cfg)
        .expect_err("a corrupt block must fail the distributed run");
    assert!(
        dist_err.to_string().contains("checksum"),
        "distributed run must surface the same park error as the monolith \
         ({monolith_err}), got: {dist_err}"
    );
    assert!(
        !dist_err.is_retryable(),
        "a deterministic input error must not be classified retryable: {dist_err}"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Relaxed concurrent mode: workers stream concurrently against local tables
// and reconcile at epoch barriers. The contract is weaker than sequenced —
// not bit-identity with the monolith, but (a) determinism for a fixed worker
// count, (b) exact equality for stateless placement, and (c) bounded quality
// drift with internally consistent outputs.
// ---------------------------------------------------------------------------

fn relaxed_cfg(workers: u32) -> DistConfig {
    DistConfig {
        workers,
        mode: AmpcMode::Relaxed,
        // Small chunks + short epochs force many reconciliation rounds.
        chunk_edges: 173,
        epoch_chunks: 2,
        ..Default::default()
    }
}

#[test]
fn relaxed_mode_is_deterministic_and_transport_independent() {
    // Relaxed mode trades bit-identity with the monolith for concurrency,
    // but it must stay a *function* of (algorithm, input, worker count,
    // epoch length): repeated runs and both transports yield the same bits.
    let (n, edges) = test_web_graph(1_500, 46);
    let k = 8;
    for (name, _, algo) in roster() {
        let input = DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        };
        let first = run_distributed(&algo, input, k, &relaxed_cfg(4))
            .unwrap_or_else(|e| panic!("{name}: relaxed run 1: {e}"));
        let again = run_distributed(&algo, input, k, &relaxed_cfg(4))
            .unwrap_or_else(|e| panic!("{name}: relaxed run 2: {e}"));
        assert_eq!(
            (
                &first.partitioning.assignments,
                &first.partitioning.loads,
                first.partitioning.num_vertices
            ),
            (
                &again.partitioning.assignments,
                &again.partitioning.loads,
                again.partitioning.num_vertices
            ),
            "{name}: relaxed mode is nondeterministic across identical runs"
        );
        let unix = run_distributed(
            &algo,
            input,
            k,
            &DistConfig {
                transport: TransportKind::Unix,
                ..relaxed_cfg(4)
            },
        )
        .unwrap_or_else(|e| panic!("{name}: relaxed unix run: {e}"));
        assert_eq!(
            first.partitioning.assignments, unix.partitioning.assignments,
            "{name}: relaxed output depends on the transport"
        );
    }
}

/// FNV-1a over the little-endian bytes of an assignment vector.
fn fnv1a(assignments: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in assignments.iter().flat_map(|p| p.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn relaxed_baselines_match_their_recorded_golden_hashes() {
    // Relaxed runs are otherwise only compared with themselves, so a driver
    // rewrite could change their bits unnoticed. The baseline hashes were
    // recorded from the hand-written per-algorithm relaxed drivers (PR 11)
    // and pin the generic relaxed driver to the same placements; the CLUGP
    // and Mint ones at 7b32848, before the read-only CLUGP stages and Mint's
    // wave loop were rewritten.
    let (n, edges) = test_web_graph(1_500, 46);
    let clugp = |config: ClugpConfig| DistAlgo::Clugp(config);
    let golden: [(&str, DistAlgo, [u64; 2]); 10] = [
        (
            "Grid",
            DistAlgo::grid(),
            [0x82b8_ef01_56c3_4b01, 0xb53d_98fa_813e_1bd5],
        ),
        (
            "DBH",
            DistAlgo::dbh(),
            [0xdd13_84e2_e043_ceb0, 0x9674_6736_939a_b5d4],
        ),
        (
            "Greedy",
            DistAlgo::greedy(),
            [0xf65d_a515_1458_35c2, 0xdb3c_d890_46f7_5451],
        ),
        (
            "HDRF",
            DistAlgo::hdrf(),
            [0xbf39_8954_e2c5_4bc5, 0x1c8e_998b_d210_d382],
        ),
        (
            "CLUGP",
            DistAlgo::clugp(),
            [0x784d_a5bd_8541_5212, 0xa3c5_cf6f_04cb_b0f1],
        ),
        (
            "CLUGP-S",
            clugp(ClugpConfig {
                splitting: false,
                ..Default::default()
            }),
            [0x55ea_f5bc_9058_4dd2, 0x2980_052f_9e99_43c2],
        ),
        (
            "CLUGP-G",
            clugp(ClugpConfig {
                assign_mode: ClusterAssignMode::Greedy,
                ..Default::default()
            }),
            [0x5b9e_4826_6592_41c2, 0x172f_7e4c_3148_2ea3],
        ),
        (
            "CLUGP/headroom",
            clugp(ClugpConfig {
                migration: MigrationPolicy::Headroom,
                ..Default::default()
            }),
            [0x2e9c_f39c_cc5b_f850, 0xa19d_bd7d_4573_3092],
        ),
        (
            "CLUGP/paper",
            clugp(ClugpConfig {
                migration: MigrationPolicy::Paper,
                ..Default::default()
            }),
            [0x0053_9d18_84bb_7182, 0xfb32_9b1d_48dd_c2d2],
        ),
        (
            "Mint",
            DistAlgo::Mint(MintConfig {
                batch_size: 97,
                ..Default::default()
            }),
            [0xd75f_a53a_1ce4_b2d1, 0x4bdc_025c_0ebd_aac7],
        ),
    ];
    for (name, algo, hashes) in golden {
        for (workers, want) in [2u32, 4].into_iter().zip(hashes) {
            let out = run_distributed(
                &algo,
                DistInput::Edges {
                    num_vertices: n,
                    edges: &edges,
                },
                8,
                &relaxed_cfg(workers),
            )
            .unwrap_or_else(|e| panic!("{name}: relaxed, {workers} workers: {e}"));
            assert_eq!(
                fnv1a(&out.partitioning.assignments),
                want,
                "{name}: relaxed {workers}-worker placement changed \
                 (got {:#018x})",
                fnv1a(&out.partitioning.assignments)
            );
        }
    }
}

#[test]
fn hdrf_monolith_matches_its_recorded_golden_hashes() {
    // Every other HDRF check compares the kernel with itself (monolith vs
    // sequenced, relaxed vs relaxed), so a scoring rewrite could move all of
    // them together. These hashes were recorded from the per-partition
    // scoring loop at c58322d, before the class-representative kernel
    // replaced it, and pin the monolith to that loop's placements. In BFS
    // order every edge meets a placed endpoint, so at lambda <= 1 the
    // replication term always wins and the whole stream lands on partition
    // 0 (one hash for six cells); the random order is the one that
    // exercises the balance term.
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 1_500,
        seed: 46,
        ..Default::default()
    });
    let golden: [(StreamOrder, u32, [u64; 3]); 6] = [
        (
            StreamOrder::Bfs,
            4,
            [
                0x093a_c462_7974_7f55,
                0x093a_c462_7974_7f55,
                0xee18_f02a_6b9f_ca36,
            ],
        ),
        (
            StreamOrder::Bfs,
            32,
            [
                0x093a_c462_7974_7f55,
                0x093a_c462_7974_7f55,
                0x4cd3_3603_0fa0_4dca,
            ],
        ),
        (
            StreamOrder::Bfs,
            130,
            [
                0x093a_c462_7974_7f55,
                0x093a_c462_7974_7f55,
                0x6dcd_a58f_d57e_eb24,
            ],
        ),
        (
            StreamOrder::Random(46),
            4,
            [
                0xc0a2_411f_06de_8a85,
                0x7411_01fd_3aeb_e0b4,
                0xd6f0_1e7b_7644_6496,
            ],
        ),
        (
            StreamOrder::Random(46),
            32,
            [
                0xef74_9081_c50e_7e44,
                0xa2d1_eb26_b859_3169,
                0x06c5_ed0b_9347_e12b,
            ],
        ),
        (
            StreamOrder::Random(46),
            130,
            [
                0x4189_3629_f5c1_726f,
                0x2d2c_7b8d_a575_dbfa,
                0xeb98_df50_669c_041a,
            ],
        ),
    ];
    for (order, k, hashes) in golden {
        let edges = ordered_edges(&g, order);
        for (lambda, want) in [0.1, 1.0, 10.0].into_iter().zip(hashes) {
            let mut hdrf = Hdrf::new(HdrfConfig {
                lambda,
                ..Default::default()
            });
            let (assignments, _, _) = monolith(&mut hdrf, g.num_vertices(), &edges, k);
            assert_eq!(
                fnv1a(&assignments),
                want,
                "HDRF {order:?} k={k} lambda={lambda}: monolithic placement changed (got {:#018x})",
                fnv1a(&assignments)
            );
        }
    }
}

#[test]
fn relaxed_hashing_is_bit_identical_to_sequenced() {
    // Stateless placement consults no shared tables, so the consistency
    // dial must not move it at all.
    let (n, edges) = test_web_graph(1_200, 48);
    let k = 8;
    let reference = monolith(&mut Hashing::default(), n, &edges, k);
    for workers in [1u32, 2, 4] {
        let out = run_distributed(
            &DistAlgo::hashing(),
            DistInput::Edges {
                num_vertices: n,
                edges: &edges,
            },
            k,
            &relaxed_cfg(workers),
        )
        .unwrap_or_else(|e| panic!("relaxed hashing, {workers} workers: {e}"));
        assert_eq!(
            (
                out.partitioning.assignments,
                out.partitioning.loads,
                out.partitioning.num_vertices
            ),
            reference,
            "relaxed hashing diverged from sequenced at {workers} workers"
        );
    }
}

#[test]
fn relaxed_chunk_size_sizes_no_buffer() {
    // The largest chunk the wire carries is a granularity, not an
    // allocation: it behaves as any chunk that already covers a worker's
    // whole range (a buffer of `cap` edges would be 32 GiB per worker).
    let (n, edges) = test_web_graph(1_200, 48);
    let run = |chunk_edges: usize| {
        let input = DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        };
        let cfg = DistConfig {
            chunk_edges,
            ..relaxed_cfg(2)
        };
        run_distributed(&DistAlgo::hdrf(), input, 8, &cfg)
            .unwrap_or_else(|e| panic!("relaxed hdrf, chunk {chunk_edges}: {e}"))
            .partitioning
    };
    let (huge, whole) = (run(u32::MAX as usize), run(edges.len()));
    assert_eq!(
        (huge.assignments, huge.loads),
        (whole.assignments, whole.loads)
    );
}

#[test]
fn relaxed_mode_drift_is_bounded_and_outputs_are_consistent() {
    // Every relaxed run must still be a *valid* partition of the full edge
    // stream — every edge placed, loads exactly the assignment histogram —
    // and its replication factor must stay within 2x of the monolith's.
    use clugp::metrics::PartitionQuality;
    let (n, edges) = test_web_graph(1_500, 49);
    let k = 8;
    for (name, mut p, algo) in roster() {
        let (ref_assign, _, ref_vertices) = monolith(p.as_mut(), n, &edges, k);
        let ref_quality = PartitionQuality::compute(
            &edges,
            &clugp::partition::Partitioning {
                k,
                num_vertices: ref_vertices,
                assignments: ref_assign,
                loads: vec![0; k as usize],
            },
        );
        let out = run_distributed(
            &algo,
            DistInput::Edges {
                num_vertices: n,
                edges: &edges,
            },
            k,
            &relaxed_cfg(4),
        )
        .unwrap_or_else(|e| panic!("{name}: relaxed run: {e}"));
        let part = &out.partitioning;
        assert_eq!(
            part.assignments.len(),
            edges.len(),
            "{name}: relaxed run dropped edges"
        );
        let mut histogram = vec![0u64; k as usize];
        for &p in &part.assignments {
            assert!(p < k, "{name}: assignment {p} out of range");
            histogram[p as usize] += 1;
        }
        assert_eq!(
            part.loads, histogram,
            "{name}: relaxed loads disagree with the assignment histogram"
        );
        assert_eq!(
            part.num_vertices, ref_vertices,
            "{name}: relaxed vertex count drifted"
        );
        let quality = PartitionQuality::compute(&edges, part);
        eprintln!(
            "{name}: relaxed rf {:.3} vs sequenced rf {:.3}",
            quality.replication_factor, ref_quality.replication_factor
        );
        // Epoch-stale replica views inflate replication: workers duplicate
        // placements the sequenced run would have shared. 3x is the sanity
        // ceiling; the experiments quantify the real per-algorithm drift.
        assert!(
            quality.replication_factor <= ref_quality.replication_factor * 3.0,
            "{name}: relaxed replication factor {:.3} drifted beyond 3x the \
             sequenced {:.3}",
            quality.replication_factor,
            ref_quality.replication_factor
        );
    }
}

#[test]
fn relaxed_clugp_over_a_pack_with_uneven_block_shares_completes() {
    // Regression: with an odd block count, two workers get uneven block
    // ranges, the larger share saturates its slice of the load cap, the
    // slice grows — and the monotone reroute cursor, already past the
    // partitions that just regained room, used to run off the load array.
    use clugp_graph::pack::{write_pack, PackOptions, ShardedPackReader};
    let (n, edges) = test_web_graph(1_500, 50);
    let dir = std::env::temp_dir().join("clugp_dist_relaxed_pack");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uneven.clugpz");
    write_pack(
        &path,
        n,
        &edges,
        &PackOptions {
            block_bytes: 8192,
            ..Default::default()
        },
    )
    .unwrap();
    let blocks = ShardedPackReader::open(&path).unwrap().index().num_blocks();
    assert_eq!(blocks % 2, 1, "need an odd block count, got {blocks}");

    let k = 8;
    let out = run_distributed(
        &DistAlgo::clugp(),
        DistInput::Pack(&path),
        k,
        &DistConfig {
            workers: 2,
            mode: AmpcMode::Relaxed,
            ..Default::default()
        },
    )
    .expect("relaxed CLUGP over an unevenly shared pack");
    out.partitioning.validate().unwrap();
    assert_eq!(out.partitioning.assignments.len(), edges.len());
    std::fs::remove_file(&path).ok();
}

/// Splitmix-style generator so the permutation property test is seeded and
/// reproducible without external crates.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = x;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[test]
fn commutative_upsert_batch_order_cannot_change_table_state() {
    // Property: for the commutative merge ops the engine uses for
    // cross-worker accumulation (Add / Max / BitOr), the order in which
    // upsert batches land on a shard must not change the final table — so
    // any interleaving of worker state traffic yields the same scan.
    let mut rng = XorShift(0xA11CE5);
    for trial in 0..50 {
        for merge in [MergeOp::Add, MergeOp::Max, MergeOp::BitOr] {
            for layout in [Layout::Range { span: 64 }, Layout::Striped { stripe: 8 }] {
                // A batch workload of (key, row) updates over a small keyspace
                // so collisions are common.
                let batches: Vec<(Vec<u64>, Vec<u64>)> = (0..12)
                    .map(|_| {
                        let keys: Vec<u64> = (0..(1 + rng.next() % 16))
                            .map(|_| rng.next() % 256)
                            .collect();
                        let rows: Vec<u64> =
                            (0..keys.len() * 2).map(|_| rng.next() % 1024).collect();
                        (keys, rows)
                    })
                    .collect();
                let build = |order: &[usize]| {
                    let mut shard = match layout {
                        Layout::Range { .. } => StateShard::range(0, 2),
                        Layout::Striped { .. } => StateShard::striped(2),
                    };
                    for &b in order {
                        let (keys, rows) = &batches[b];
                        shard.upsert_batch(merge, keys, rows).unwrap();
                    }
                    let mut out = Vec::new();
                    shard.scan(|key, row| {
                        out.push((key, row.to_vec()));
                    });
                    out
                };
                let forward: Vec<usize> = (0..batches.len()).collect();
                let reference = build(&forward);
                let mut shuffled = forward.clone();
                rng.shuffle(&mut shuffled);
                assert_eq!(
                    build(&shuffled),
                    reference,
                    "trial {trial}: {merge:?}/{layout:?}: batch order changed the table"
                );
            }
        }
    }
}
