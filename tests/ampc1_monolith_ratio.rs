//! CI guard on a *ratio*, not on seconds (ROADMAP item 1): sequenced AMPC
//! CLUGP at one worker against `Clugp::partition`, over the same in-memory
//! web edges (the graph of `hdrf_greedy_ratio`). Both run the same three
//! per-edge kernels on the same stream, so host speed cancels; what the
//! ratio watches is the engine's 1-worker tax — the state traffic a worker
//! pays to reach rows it owns itself — creeping back towards a fetch and a
//! write-back of every touched row per chunk (3.8–4.1x with per-chunk round
//! trips, 1.55–1.75x with the scratch resident for the stage, 1.45–1.55x
//! with windowed admission and the narrow `StageDone`; the monolith then got
//! faster, 1.61–1.68x, and 1.47–1.58x since the coordinator owns the vertex
//! table after pass 1).
//!
//! The tax is a near-constant cost per edge (the `Configure` copy of the
//! inline edges, the seen-bitmap probe, the pairs partial, one scan and one
//! cast between passes), so the ratio is higher where the kernels are
//! cheaper: the same graph in BFS order reads 1.87–2.05x (2.26–2.33x while
//! every barrier and cast scanned the shards, 4.3–4.8x with per-chunk round
//! trips). Both orders are measured, each against its own limit — its reading
//! plus a third, the margin of `crc_decode_ratio` — so that neither sits on
//! the line and neither hides behind the other's.
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
    ("random", StreamOrder::Random(13), 2.0),
    ("bfs", StreamOrder::Bfs, 2.6),
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
             {max_ratio}): is the worker fetching and writing back its rows per chunk again?"
        );
    }
}

/// The count that goes with the ratio, checked in every build: a sequenced
/// stage that writes shared tables pays a fetch round per admission window
/// (64 chunks) and key group, not per chunk, and one that only reads them
/// pays none. Same graph, two workers, 64-edge chunks so that a range is
/// some sixty 4 096-edge windows — or 3 700 chunks.
#[test]
fn sequenced_frames_follow_windows_not_chunks() {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 40_000,
        seed: 13,
        ..Default::default()
    });
    let edges = ordered_edges(&g, StreamOrder::Random(13));
    let (workers, chunk_edges) = (2u64, 64u64);
    let cfg = DistConfig {
        workers: workers as u32,
        chunk_edges: chunk_edges as usize,
        ..Default::default()
    };
    let input = DistInput::Edges {
        num_vertices: g.num_vertices(),
        edges: &edges,
    };
    let out = run_distributed(&DistAlgo::clugp(), input, 32, &cfg).expect("AMPC-2");
    let windows = workers * (edges.len() as u64).div_ceil(workers * 64 * chunk_edges);
    let tally = |verb: &str| {
        let slot = (0..out.net.by_verb.len())
            .find(|&tag| Msg::verb_name(tag) == verb)
            .expect("known verb");
        out.net.by_verb[slot]
    };
    let frames = |verb: &str| tally(verb).frames;
    // Two key groups are admitted per window, both by pass 1 (vertex rows
    // and the volumes of the clusters they name), each at most one round to
    // the one remote owner; the pairs and transform stages read casts and
    // fetch nothing.
    let rounds = frames("RouteReply");
    assert!(
        rounds <= 2 * windows,
        "{rounds} fetch rounds for {windows} windows: is admission per chunk again, \
         or a read-only stage fetching?"
    );
    // A round is four frames (worker → coordinator → owner and back); what
    // is left — handshake, tokens, stage-end write-back in 4 096-key slices,
    // one scan and the casts between passes — does not grow with the stream.
    let total = out.net.frames_sent + out.net.frames_received;
    assert!(
        total <= 4 * 2 * windows + 128,
        "{total} frames for {windows} windows"
    );
    // Between passes the vertex table makes one trip each way: the
    // coordinator scans every shard once, after pass 1, owns the table from
    // there on, and casts it to every worker once, for both read-only stages;
    // the cluster → partition map (a few bytes a cluster, not one a vertex)
    // follows ahead of the transform. Nothing is published back to a shard
    // and no barrier scans one.
    assert_eq!(frames("Scan"), workers, "one scan of the vertex rows");
    assert_eq!(frames("ScanResp"), workers);
    assert_eq!(frames("TableCast"), 2 * workers, "two casts per worker");
    assert_eq!(frames("StateReq") + frames("StateResp"), 0);
    let (cast_bytes, n) = (tally("TableCast").bytes, g.num_vertices());
    assert!(
        (3 * n * workers..8 * n * workers).contains(&cast_bytes),
        "{cast_bytes} cast bytes for {n} vertices and {workers} workers: \
         more than one cast of the vertex rows per worker?"
    );
}
