//! Distributed-vs-monolith equivalence: the coordinator/worker engine must
//! produce byte-identical partitions to the monolithic CLUGP — and its
//! ablations — at every worker count and at any pack block size (which sets
//! the chunks a worker pulls), and refuse every other algorithm. Worker
//! processes over Unix sockets are `cli_contract`'s `*unix` cells. This is the
//! correctness anchor of the AMPC engine: sharding the state tables and
//! sequencing the stream across workers is a pure refactoring of the
//! placement pipeline, never a semantic change.

use clugp::ampc::checkpoint::Checkpoint;
use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::proto::VERBS;
use clugp::ampc::{run_distributed, AmpcMode, DistConfig, DistInput};
use clugp::clugp::ClugpConfig;
use clugp::error::PartitionError;
use clugp::state::ReplicaTable;
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::types::{Edge, VertexId};
use clugp_repro::{
    assignment_hash, clugp_part_exe, fnv1a, monolith, outcome, roster, scratch_dir, test_web_graph,
    web_fixture, Case, Family, Input, Mode,
};
use std::process::Command;

/// A pack of `block_bytes`-byte blocks, read serially: the engine hands its
/// workers block ranges, and a worker's pull never spans a block.
fn pack(block_bytes: usize) -> Input {
    Input::Pack {
        block_bytes,
        prefetch: 0,
    }
}

#[test]
fn every_clugp_row_is_bit_identical_across_workers_and_block_sizes() {
    for (name, algo) in clugp_roster() {
        let case = Case::new(algo.clone(), 1_500, 41);
        for workers in [1u32, 2, 4] {
            // Inline ranges pulled `chunk_edges()` at a time, and block
            // ranges pulled a few edges or a few thousand at a time.
            for input in [Input::Memory, pack(64), pack(65_536)] {
                let mode = Mode::Sequenced { workers };
                Case {
                    input,
                    mode,
                    ..case.clone()
                }
                .check()
                .unwrap();
            }
        }
        // Relaxed mode at one worker has no frontier to merge and the whole
        // load cap as its slice, so it too must equal the monolith.
        let (n, edges) = case.edges();
        let input = DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        };
        let out = run_distributed(&algo, input, 8, &relaxed_cfg(1))
            .unwrap_or_else(|e| panic!("{name}: relaxed, 1 worker: {e}"));
        assert_eq!(
            outcome(out.partitioning),
            case.reference(),
            "{name}: relaxed mode at 1 worker diverged from the monolith"
        );
    }
}

#[test]
fn multi_worker_runs_actually_exchange_state() {
    // Sanity that the equivalence above is not vacuous: a 4-worker CLUGP run
    // must route real state traffic through the coordinator.
    let mode = Mode::Sequenced { workers: 4 };
    let case = Case {
        mode,
        ..Case::new(DistAlgo::clugp(), 1_000, 42)
    };
    let out = case.check().unwrap().expect("a sequenced run");
    assert!(
        out.net.bytes_sent > 0 && out.net.frames_sent > 0,
        "4-worker run exchanged no state: {:?}",
        out.net
    );
}

#[test]
fn sequenced_exchange_stays_under_a_third_of_the_old_relay() {
    // The one-op-per-frame relay the lent tables replaced moved, at 4
    // workers and k = 32, 127.7 bytes per edge for CLUGP on a web crawl and
    // 180.6 on a BA graph, counting every byte sent and received over every
    // coordinator link. The exchange must stay under a third of that.
    // Density is per edge, so a small graph is comparable. Counts only —
    // nothing here is timed.
    use clugp_graph::gen::{generate_ba, BaConfig};
    let (web_n, web) = test_web_graph(1_500, 47);
    let ba = generate_ba(&BaConfig {
        vertices: 1_500,
        edges_per_vertex: 16,
        seed: 47,
    });
    let social = ordered_edges(&ba, StreamOrder::Bfs);
    let cells = [
        ("web", web_n, &web, 42.6),
        ("social", ba.num_vertices(), &social, 60.2),
    ];
    for (graph, n, edges, cap) in cells {
        let input = DistInput::Edges {
            num_vertices: n,
            edges,
        };
        let cfg = DistConfig {
            workers: 4,
            ..Default::default()
        };
        let out = run_distributed(&DistAlgo::clugp(), input, 32, &cfg)
            .unwrap_or_else(|e| panic!("{graph}: {e}"));
        let bytes = out.net.bytes_sent + out.net.bytes_received;
        let density = bytes as f64 / edges.len() as f64;
        eprintln!("{graph}: {density:.1} bytes/edge (cap {cap})");
        assert!(
            density <= cap,
            "{graph}: {density:.1} bytes/edge at 4 workers, above a third \
             of the old relay's ({cap})"
        );
    }
}

#[test]
fn tracing_records_nothing_when_off_and_changes_no_bits_when_on() {
    // Tracing is off by default and inert (DESIGN.md §12): off, not one
    // event is recorded; on, events are, and the partition is the same.
    let (n, edges) = test_web_graph(1_000, 48);
    let run = |trace: bool| {
        let input = DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        };
        let cfg = DistConfig {
            workers: 4,
            trace,
            ..Default::default()
        };
        run_distributed(&DistAlgo::clugp(), input, 8, &cfg)
            .unwrap_or_else(|e| panic!("trace {trace}: {e}"))
    };
    let (off, on) = (run(false), run(true));
    assert!(
        off.trace.events.is_empty(),
        "tracing off recorded {} events",
        off.trace.events.len()
    );
    assert!(!on.trace.events.is_empty(), "tracing on recorded nothing");
    assert_eq!(
        (on.partitioning.assignments, on.partitioning.loads),
        (off.partitioning.assignments, off.partitioning.loads),
        "tracing changed the partition"
    );
}

#[test]
fn sequenced_state_traffic_is_bounded_by_touched_keys_not_by_chunk_count() {
    // Every sequenced stage is lent its tables (DESIGN.md §7): the state a
    // turn writes rides the token as one frame, so what the wire carries
    // follows the keys the ranges touch and never the chunking. A worker
    // pulls a pack's blocks one at a time, so 64-byte blocks cut its range
    // into a few edges a pull and 64 KiB ones into thousands. Every verb
    // sends as many frames at either size. One worker is handed the whole
    // pack whatever its blocks, so its bytes per verb are the same too;
    // several workers are handed block ranges, cut where the blocks fall,
    // and those carry the frontiers and pairs partials of their own ranges.
    // Counts only — nothing here is timed.
    let (n, edges) = test_web_graph(500, 41);
    let k = 8;
    let algo = DistAlgo::clugp();
    let canonical = clugp_graph::pack::canonical_order(&edges);
    let reference = monolith(&algo, n, &canonical, k).0;
    // One path for every block size, so every `Configure` has one length.
    let dir = scratch_dir("dist_traffic_by_block");
    for workers in [1u32, 2, 4] {
        let mut traffic = Vec::new();
        for block_bytes in [64usize, 2048, 65_536] {
            let path = web_fixture(&dir, pack(block_bytes), 500, 41);
            let what = format!("{workers}w/{block_bytes}-byte blocks");
            let cfg = DistConfig {
                workers,
                ..Default::default()
            };
            let out = run_distributed(&algo, DistInput::Pack(&path), k, &cfg)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(out.partitioning.assignments, reference, "{what}: diverged");
            traffic.push((what, out.net.by_verb));
        }
        for (what, by_verb) in &traffic[1..] {
            let (first, want) = &traffic[0];
            for (tag, (got, want)) in by_verb.iter().zip(want).enumerate() {
                let verb = clugp::ampc::proto::Msg::verb_name(tag);
                assert_eq!(got.frames, want.frames, "{what}: {verb} frames vs {first}");
                if workers == 1 {
                    assert_eq!(got.bytes, want.bytes, "{what}: {verb} bytes vs {first}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clusters_minted_on_one_worker_are_read_on_the_next() {
    // A small Vmax makes pass 1 split and migrate constantly, so worker 0
    // mints most raw clusters and the volumes in the frontier it hands on are
    // what worker 1 splits and migrates against — those of clusters that did
    // not exist when the stage began included.
    for vmax_factor in [0.02, 0.2] {
        let algo = DistAlgo::Clugp(ClugpConfig {
            vmax_factor,
            ..Default::default()
        });
        for (workers, input) in [(2u32, Input::Memory), (2, pack(64)), (3, Input::Memory)] {
            let mode = Mode::Sequenced { workers };
            let case = Case::new(algo.clone(), 1_500, 45);
            Case {
                input,
                mode,
                ..case
            }
            .check()
            .unwrap();
        }
    }
}

#[test]
fn pack_input_matches_monolith_on_the_same_pack_stream() {
    // Pack streams replay the canonical (src, dst) order, so the monolith
    // reference runs over that sequence. Small blocks so 4 workers get
    // non-trivial block ranges.
    for (_, algo) in clugp_roster() {
        for workers in [1u32, 4] {
            let case = Case {
                input: pack(2048),
                mode: Mode::Sequenced { workers },
                ..Case::new(algo.clone(), 1_200, 43)
            };
            case.check().unwrap();
        }
    }
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
    // The engine runs CLUGP only: every other algorithm is refused, in either
    // mode and at any worker count, before a worker is spawned.
    let baselines = [
        DistAlgo::hashing(),
        DistAlgo::dbh(),
        DistAlgo::greedy(),
        DistAlgo::hdrf(),
        DistAlgo::mint(),
    ];
    for algo in &baselines {
        for mode in [AmpcMode::Sequenced, AmpcMode::Relaxed] {
            for workers in [1, 2] {
                let cfg = DistConfig {
                    workers,
                    mode,
                    ..Default::default()
                };
                let err = run_distributed(algo, input, 4, &cfg).unwrap_err();
                let needle = format!("engine runs CLUGP only, not {}", algo.name());
                assert!(
                    matches!(&err, PartitionError::InvalidParam(msg) if msg.contains(&needle)),
                    "{mode:?}, {workers} workers: {err}"
                );
            }
        }
    }
}

#[test]
fn empty_stream_matches_monolith_at_any_worker_count() {
    for (_, algo) in clugp_roster() {
        for workers in [1u32, 3] {
            let case = Case {
                family: Family::Empty,
                k: 4,
                mode: Mode::Sequenced { workers },
                ..Case::new(algo.clone(), 0, 0)
            };
            case.check().unwrap();
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
    use clugp_graph::pack::{crc32, PackedEdgeStream};

    let path = web_fixture(&scratch_dir("dist_corrupt"), pack(2048), 900, 45);
    // Flip a payload byte of the middle block; metadata stays valid so the
    // pack opens fine and dies mid-stream, on a worker.
    let entries = PackedEdgeStream::open(&path)
        .unwrap()
        .index()
        .entries()
        .to_vec();
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
    let monolith_err = DistAlgo::clugp()
        .monolith()
        .partition(&mut s, 8)
        .unwrap_err();
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
// Relaxed concurrent mode, which runs CLUGP only: pass 1 clusters every range
// at once and the coordinator merges the frontiers, and the transform caps
// each worker at a slice of the load cap. The contract is weaker than
// sequenced — not bit-identity with the monolith, but (a) determinism for a
// fixed worker count and (b) bounded quality drift with internally
// consistent outputs.
// ---------------------------------------------------------------------------

fn relaxed_cfg(workers: u32) -> DistConfig {
    DistConfig {
        workers,
        mode: AmpcMode::Relaxed,
        ..Default::default()
    }
}

/// The roster's CLUGP rows: the only ones relaxed mode runs.
fn clugp_roster() -> impl Iterator<Item = (&'static str, DistAlgo)> {
    roster()
        .into_iter()
        .filter(|(_, algo)| matches!(algo, DistAlgo::Clugp(_)))
}

#[test]
fn relaxed_mode_is_deterministic_and_transport_independent() {
    // Relaxed mode trades bit-identity with the monolith for concurrency,
    // but it must stay a *function* of (algorithm, input, worker count):
    // repeated runs yield the same bits, and so do worker threads over
    // channels and worker processes over Unix sockets.
    let (n, edges) = test_web_graph(1_500, 46);
    let k = 8;
    for (name, algo) in clugp_roster() {
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
    }
    // The transports are the CLI's: `--transport unix` spawns worker
    // processes, `channel` hosts worker threads.
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping the transport leg: clugp-part binary not built");
        return;
    };
    let dir = scratch_dir("dist_relaxed_transports");
    let graph = web_fixture(&dir, Input::Text, 1_500, 46);
    let tsv = |transport: &str| {
        let out = dir.join(format!("{transport}.tsv"));
        let run = Command::new(&exe)
            .arg(&graph)
            .args(["--k", "8", "--algo", "clugp", "--workers", "4"])
            .args(["--ampc-mode", "relaxed", "--transport", transport])
            .args(["--socket-dir", &dir.join("socks").to_string_lossy()])
            .arg("--output")
            .arg(&out)
            .output()
            .expect("spawn clugp-part");
        assert!(
            run.status.success(),
            "{transport}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        std::fs::read(&out).unwrap()
    };
    let unix = tsv("unix");
    assert!(!unix.is_empty(), "the relaxed unix run wrote no TSV");
    assert!(
        unix == tsv("channel"),
        "relaxed output depends on the transport"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn relaxed_clugp_rows_match_their_recorded_golden_hashes() {
    // Relaxed runs are otherwise only compared with themselves, so a driver
    // rewrite could change their bits unnoticed. The CLUGP hashes were
    // recorded at 7b32848, before the read-only CLUGP stages were rewritten.
    let (n, edges) = test_web_graph(1_500, 46);
    // Per CLUGP row of the roster (CLUGP, CLUGP-S, CLUGP-G, CLUGP/paper),
    // at 2 and 4 workers.
    let golden: [[u64; 2]; 4] = [
        [0x784d_a5bd_8541_5212, 0xa3c5_cf6f_04cb_b0f1],
        [0x55ea_f5bc_9058_4dd2, 0x2980_052f_9e99_43c2],
        [0x5b9e_4826_6592_41c2, 0x172f_7e4c_3148_2ea3],
        [0x0053_9d18_84bb_7182, 0xfb32_9b1d_48dd_c2d2],
    ];
    let rows: Vec<_> = clugp_roster().map(|(name, _)| name).collect();
    assert_eq!(rows, ["CLUGP", "CLUGP-S", "CLUGP-G", "CLUGP/paper"]);
    for ((name, algo), hashes) in clugp_roster().zip(golden) {
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
                assignment_hash(&out.partitioning.assignments),
                want,
                "{name}: relaxed {workers}-worker placement changed \
                 (got {:#018x})",
                assignment_hash(&out.partitioning.assignments)
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
    // order every edge meets a placed endpoint, so the replication term
    // always wins and the whole stream lands on partition 0 (one hash for
    // three cells); the random order is the one that exercises the balance
    // term.
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 1_500,
        seed: 46,
        ..Default::default()
    });
    let golden: [(StreamOrder, u32, u64); 6] = [
        (StreamOrder::Bfs, 4, 0x093a_c462_7974_7f55),
        (StreamOrder::Bfs, 32, 0x093a_c462_7974_7f55),
        (StreamOrder::Bfs, 130, 0x093a_c462_7974_7f55),
        (StreamOrder::Random(46), 4, 0x7411_01fd_3aeb_e0b4),
        (StreamOrder::Random(46), 32, 0xa2d1_eb26_b859_3169),
        (StreamOrder::Random(46), 130, 0x2d2c_7b8d_a575_dbfa),
    ];
    for (order, k, want) in golden {
        let edges = ordered_edges(&g, order);
        let (assignments, _, _) = monolith(&DistAlgo::hdrf(), g.num_vertices(), &edges, k);
        assert_eq!(
            assignment_hash(&assignments),
            want,
            "HDRF {order:?} k={k}: monolithic placement changed (got {:#018x})",
            assignment_hash(&assignments)
        );
    }
}

#[test]
fn greedy_monolith_matches_its_recorded_golden_hashes() {
    // As for HDRF above: the other Greedy checks compare the kernel with
    // itself. These hashes were recorded at c5dd2a9 from the four-case rule
    // over `argmin_among`, before its least-loaded members became integer
    // class minima, and pin the monolith to that rule's placements. In CSR
    // order at k = 130 only 45 partitions are ever used; the random order
    // reaches every partition and every case.
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 1_500,
        seed: 46,
        ..Default::default()
    });
    let golden: [(StreamOrder, [u64; 3]); 2] = [
        (
            StreamOrder::Random(46),
            [
                0x3779_afe8_b5ad_3e07,
                0x0a14_de03_2dcd_3f12,
                0x4132_f315_9be4_bda0,
            ],
        ),
        (
            StreamOrder::AsIs,
            [
                0x465e_acd4_04ed_70c5,
                0x18f9_c760_d33d_09f0,
                0x57c3_d737_9dda_2586,
            ],
        ),
    ];
    for (order, hashes) in golden {
        let edges = ordered_edges(&g, order);
        for (k, want) in [4u32, 32, 130].into_iter().zip(hashes) {
            let greedy = DistAlgo::greedy();
            let (assignments, _, _) = monolith(&greedy, g.num_vertices(), &edges, k);
            assert_eq!(
                assignment_hash(&assignments),
                want,
                "Greedy {order:?} k={k}: monolithic placement changed (got {:#018x})",
                assignment_hash(&assignments)
            );
        }
    }
}

#[test]
fn relaxed_mode_drift_is_bounded_and_outputs_are_consistent() {
    // Every relaxed run must still be a *valid* partition of the full edge
    // stream — every edge placed, loads exactly the assignment histogram —
    // and its replication factor must stay within 2x of the monolith's.
    use clugp::metrics::PartitionQuality;
    let (n, edges) = test_web_graph(1_500, 49);
    let k = 8;
    for (name, algo) in clugp_roster() {
        let (ref_assign, _, ref_vertices) = monolith(&algo, n, &edges, k);
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
        // Concurrent clustering inflates replication: workers cluster their
        // ranges apart where the sequenced run shared clusters. 3x is the
        // sanity ceiling; `clugp-part --ampc-mode relaxed --workers N` prints the
        // replication factor of a real graph to set against the sequenced run.
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
    use clugp_graph::pack::PackedEdgeStream;
    let (_, edges) = test_web_graph(1_500, 50);
    let path = web_fixture(&scratch_dir("dist_relaxed_pack"), pack(8192), 1_500, 50);
    let blocks = PackedEdgeStream::open(&path).unwrap().index().num_blocks();
    assert_eq!(blocks % 2, 1, "need an odd block count, got {blocks}");

    for workers in [2, 4] {
        let run = || {
            let out = run_distributed(
                &DistAlgo::clugp(),
                DistInput::Pack(&path),
                8,
                &DistConfig {
                    workers,
                    mode: AmpcMode::Relaxed,
                    ..Default::default()
                },
            )
            .expect("relaxed CLUGP over an unevenly shared pack");
            out.partitioning.validate().unwrap();
            assert_eq!(out.partitioning.assignments.len(), edges.len());
            out.partitioning.assignments
        };
        assert_eq!(
            run(),
            run(),
            "{workers} relaxed workers are not deterministic"
        );
    }
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

/// The non-zero rows of `table`, ascending by vertex: rows a table was never
/// grown to and rows nothing was recorded in both read as absent.
fn replica_rows(table: &ReplicaTable) -> Vec<(VertexId, Vec<u64>)> {
    let mut row = vec![0; table.words_per_row()];
    (0..table.num_vertices() as VertexId)
        .filter_map(|v| {
            table.export_row(v, &mut row);
            row.iter().any(|&w| w != 0).then(|| (v, row.clone()))
        })
        .collect()
}

#[test]
fn commutative_upsert_batch_order_cannot_change_table_state() {
    // Property: replica masks only ever gain bits, so the order in which
    // batches of placed edges are recorded on a `ReplicaTable` must not
    // change the final table.
    let k = 70; // two words per row
    let mut rng = XorShift(0xA11CE5);
    for trial in 0..50 {
        // A batch workload over a small keyspace so collisions are common.
        let batches: Vec<(Vec<Edge>, Vec<u32>)> = (0..12)
            .map(|_| {
                let len = 1 + rng.next() % 16;
                let edges: Vec<Edge> = (0..len)
                    .map(|_| Edge::new((rng.next() % 256) as u32, (rng.next() % 256) as u32))
                    .collect();
                let parts: Vec<u32> = (0..len)
                    .map(|_| (rng.next() % u64::from(k)) as u32)
                    .collect();
                (edges, parts)
            })
            .collect();
        let recorded = |order: &[usize]| {
            let mut table = ReplicaTable::new(0, k).unwrap();
            for &b in order {
                let (edges, parts) = &batches[b];
                table.record(edges, parts).unwrap();
            }
            replica_rows(&table)
        };
        let forward: Vec<usize> = (0..batches.len()).collect();
        let reference = recorded(&forward);
        let mut shuffled = forward.clone();
        rng.shuffle(&mut shuffled);
        assert_eq!(
            recorded(&shuffled),
            reference,
            "trial {trial}: record order changed the table"
        );
    }
}

/// Bytes a 2-worker CLUGP run writes, recorded before frames were moved
/// rather than copied and before `Checkpoint::encode` sized its buffer up
/// front: the barrier-3 `CLUGPCK1` file (length and FNV-1a) and the bytes
/// and frames of every verb. A change to how frames travel or how a
/// checkpoint is written must leave both as they are.
#[test]
fn checkpoint_and_wire_bytes_are_pinned() {
    let (n, edges) = test_web_graph(400, 11);
    let dir = scratch_dir("engine_bytes_pin");
    let cfg = DistConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..Default::default()
    };
    let input = DistInput::Edges {
        num_vertices: n,
        edges: &edges,
    };
    let out = run_distributed(&DistAlgo::clugp(), input, 8, &cfg).unwrap();
    let ck = std::fs::read(dir.join(Checkpoint::file_name(3))).unwrap();
    let ck = (ck.len(), fnv1a(ck.iter().copied()));
    assert_eq!(ck, (13_638, 0x93B2_445C_C7F7_65BE), "{:#018X}", ck.1);
    let by_verb: Vec<(&str, u64, u64)> = VERBS
        .iter()
        .zip(&out.net.by_verb)
        .filter(|(_, t)| t.frames > 0)
        .map(|(&verb, t)| (verb, t.bytes, t.frames))
        .collect();
    let pinned = [
        ("Configure", 37_626, 2),
        ("ConfigureOk", 2, 2),
        ("RunStage", 554, 6),
        ("StageDone", 11_832, 6),
        ("Shutdown", 2, 2),
        ("Pass1Frontier", 6_363, 3),
        ("TableCast", 3_380, 4),
    ];
    assert_eq!(by_verb, pinned);
    std::fs::remove_dir_all(&dir).ok();
}
