//! CI guard on a *ratio*, not on seconds (ROADMAP item 1): sequenced AMPC
//! CLUGP at one worker against `Clugp::partition`, over the same in-memory
//! web edges (the graph of `hdrf_greedy_ratio`). Both run the same three
//! per-edge kernels on the same stream, so host speed cancels; what the
//! ratio watches is the engine's 1-worker tax creeping back towards a fetch
//! and a write-back of every touched row per chunk (3.8–4.1x with per-chunk
//! round trips, 1.55–1.75x with the scratch resident for the stage,
//! 1.45–1.55x with windowed admission and the narrow `StageDone`; the
//! monolith then got faster, 1.61–1.68x, 1.47–1.58x since the coordinator
//! owns the vertex table after pass 1, and 1.36–1.38x since pass 1 is lent
//! the table instead of paging it and every stage steps the lent chunk).
//!
//! The tax is a near-constant cost per edge (the `Configure` copy of the
//! inline edges, the pairs partial, one frontier and one cast between
//! passes), so the ratio is higher where the kernels are cheaper: the same
//! graph in BFS order reads 1.55–1.65x (1.87–2.05x while pass 1 paged its
//! rows through the shards, 2.26–2.33x while every barrier and cast scanned
//! them, 4.3–4.8x with per-chunk round trips). Both orders are measured, each
//! against its own limit — its reading plus a third, the margin of
//! `crc_decode_ratio` — so that neither sits on the line and neither hides
//! behind the other's.
//!
//! `#[ignore]`d because a timing is only meaningful in a release build:
//! `cargo test --release --test ampc1_monolith_ratio -- --ignored`. The
//! frame count next to it needs no clock and runs in every build.

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::proto::Msg;
use clugp::ampc::{run_distributed, DistConfig, DistInput};
use clugp::clugp::Clugp;
use clugp::partitioner::Partitioner;
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;
use std::time::Instant;

/// Stream orders measured, each with its highest accepted `AMPC-1 seconds /
/// monolith seconds`.
const ORDERS: [(&str, StreamOrder, f64); 2] = [
    ("random", StreamOrder::Random(13), 1.8),
    ("bfs", StreamOrder::Bfs, 2.1),
];

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn one_worker_ampc_stays_within_a_constant_factor_of_the_monolith() {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 40_000,
        seed: 13,
        ..Default::default()
    });
    let n = g.num_vertices();
    for (name, order, max_ratio) in ORDERS {
        let edges = ordered_edges(&g, order);
        let mut stream = InMemoryStream::new(n, edges.clone());
        let mut monolith_run = || {
            let t = Instant::now();
            let run = Clugp::default()
                .partition(&mut stream, 32)
                .expect("monolith");
            (t.elapsed().as_secs_f64(), run.partitioning.assignments)
        };
        let ampc_run = || {
            let input = DistInput::Edges {
                num_vertices: n,
                edges: &edges,
            };
            let cfg = DistConfig {
                workers: 1,
                ..Default::default()
            };
            let t = Instant::now();
            let out = run_distributed(&DistAlgo::clugp(), input, 32, &cfg).expect("AMPC-1");
            (t.elapsed().as_secs_f64(), out.partitioning.assignments)
        };
        // Best of five, the two interleaved so that a slow spell of the
        // host falls on both.
        let (mut ampc, mut monolith) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let (a, distributed) = ampc_run();
            let (m, reference) = monolith_run();
            assert!(
                distributed == reference,
                "{name} order: AMPC-1 diverged from the monolith"
            );
            ampc = ampc.min(a);
            monolith = monolith.min(m);
        }
        let ratio = ampc / monolith;
        println!("{name} order: AMPC-1 {ampc:.4} s / monolith {monolith:.4} s = {ratio:.2}");
        assert!(
            ratio <= max_ratio,
            "{name} order: 1-worker AMPC takes {ratio:.2}x the monolith's time (limit \
             {max_ratio}): is a CLUGP stage paging rows, or copying its chunks, again?"
        );
    }
}

/// The count that goes with the ratio, checked in every build: a sequenced
/// CLUGP run pages nothing. Its frames are the handshake, three stages'
/// tokens, the pass-1 state handed from turn to turn and the casts between
/// passes — a number the worker count sets, whatever the stream is cut into.
/// Same graph, two workers, 64-edge chunks: some 3 700 chunks a range, which
/// was sixty admission windows, each up to two fetch rounds of four frames,
/// while pass 1 paged its rows.
#[test]
fn sequenced_frames_follow_windows_not_chunks() {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 40_000,
        seed: 13,
        ..Default::default()
    });
    let edges = ordered_edges(&g, StreamOrder::Random(13));
    let workers = 2u64;
    let run = |chunk_edges: usize| {
        let cfg = DistConfig {
            workers: workers as u32,
            chunk_edges,
            ..Default::default()
        };
        let input = DistInput::Edges {
            num_vertices: g.num_vertices(),
            edges: &edges,
        };
        run_distributed(&DistAlgo::clugp(), input, 32, &cfg).expect("AMPC-2")
    };
    let out = run(64);
    let tally = |verb: &str| {
        let slot = (0..out.net.by_verb.len())
            .find(|&tag| Msg::verb_name(tag) == verb)
            .expect("known verb");
        out.net.by_verb[slot]
    };
    let frames = |verb: &str| tally(verb).frames;
    // No stage fetches a row or writes one back, and nothing is scanned.
    for verb in [
        "RouteBatch",
        "RouteReply",
        "StateReqBatch",
        "StateRespBatch",
        "StateReq",
        "StateResp",
        "Scan",
        "ScanResp",
    ] {
        assert_eq!(frames(verb), 0, "a CLUGP run sent {verb}");
    }
    // Per worker: Configure and its ack, three RunStage and three StageDone,
    // two casts, its own frontier, Shutdown — and, for every worker but the
    // first, the frontier before its own as its seed.
    let total = |out: &clugp::ampc::DistOutcome| out.net.frames_sent + out.net.frames_received;
    assert_eq!(total(&out), 12 * workers + (workers - 1), "frames in all");
    assert_eq!(total(&out), total(&run(4096)), "frames at 4096-edge chunks");
    // The vertex table makes one trip per turn while pass 1 writes it, the
    // last of them to the coordinator, which owns it from there on and casts
    // it to every worker once, for both read-only stages; the cluster →
    // partition map (a few bytes a cluster, not one a vertex) follows ahead of
    // the transform. Nothing is published to a shard and no barrier scans one.
    assert_eq!(
        frames("Pass1Frontier"),
        2 * workers - 1,
        "one hand-off a turn"
    );
    assert_eq!(frames("TableCast"), 2 * workers, "two casts per worker");
    let n = g.num_vertices();
    for (verb, trips) in [("TableCast", workers), ("Pass1Frontier", 2 * workers - 1)] {
        let bytes = tally(verb).bytes;
        assert!(
            bytes < 8 * n * trips,
            "{bytes} {verb} bytes for {n} vertices and {workers} workers: \
             more than {trips} trips of the vertex rows?"
        );
    }
    let cast_bytes = tally("TableCast").bytes;
    assert!(cast_bytes >= 3 * n * workers, "{cast_bytes} cast bytes");
}
