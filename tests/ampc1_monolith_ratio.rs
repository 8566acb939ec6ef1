//! CI guard on a *ratio*, not on seconds (ROADMAP item 1): sequenced AMPC
//! CLUGP at one worker against `Clugp::partition`, over the same in-memory
//! web edges (the graph and order of `hdrf_greedy_ratio`). Both run the same
//! three per-edge kernels on the same stream, so host speed cancels; what
//! the ratio watches is the engine's 1-worker tax — the state traffic a
//! worker pays to reach rows it owns itself — creeping back towards a fetch
//! and a write-back of every touched row per chunk (3.8–4.1x with per-chunk
//! round trips, 1.55–1.75x with the scratch resident for the stage).
//!
//! The tax is a near-constant cost per edge (the `Configure` copy of the
//! inline edges, the seen-bitmap probe, `StageDone`'s assignment vector), so
//! the ratio is higher where the kernels are cheaper: the same graph in BFS
//! order reads 2.2–2.5x (4.3–4.8x before). Random order is used here because
//! it keeps both sides of the 2.5x line at a distance.
//!
//! `#[ignore]`d because a timing is only meaningful in a release build:
//! `cargo test --release --test ampc1_monolith_ratio -- --ignored`.

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::{run_distributed, DistConfig, DistInput};
use clugp::clugp::Clugp;
use clugp::partitioner::Partitioner;
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;
use std::time::Instant;

/// Highest accepted `AMPC-1 seconds / monolith seconds`.
const MAX_RATIO: f64 = 2.5;

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn one_worker_ampc_stays_within_a_constant_factor_of_the_monolith() {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 40_000,
        seed: 13,
        ..Default::default()
    });
    let (n, edges) = (g.num_vertices(), ordered_edges(&g, StreamOrder::Random(13)));
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
    // Best of five, the two interleaved so that a slow spell of the host
    // falls on both.
    let (mut ampc, mut monolith) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let (a, distributed) = ampc_run();
        let (m, reference) = monolith_run();
        assert!(
            distributed == reference,
            "AMPC-1 diverged from the monolith"
        );
        ampc = ampc.min(a);
        monolith = monolith.min(m);
    }
    let ratio = ampc / monolith;
    println!("AMPC-1 {ampc:.4} s / monolith {monolith:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "1-worker AMPC takes {ratio:.2}x the monolith's time (limit {MAX_RATIO}): \
         is the worker fetching and writing back its rows per chunk again?"
    );
}
