//! CI guard on a *ratio*, not on seconds (ROADMAP item 1): CLUGP against
//! DBH, both through `Partitioner::partition`, on one generated web graph
//! at k = 32 in BFS order. Both are O(1) per edge over the same in-memory
//! stream — three passes against one — so host speed cancels; what the
//! ratio watches is the per-edge work of CLUGP's three kernels (pass 1's
//! step, the cluster-graph count, pass 3's step) creeping back up: ≈ 6.4–6.7
//! with the sort-based cluster graph, the four-way transform `match` and
//! pass 1 re-reading its tables, ≈ 3.6 with the count matrix, the key
//! compare and the clusters in locals.
//!
//! The graph is site-structured (the parameters of the benchmark's `web`
//! input), not the default crawl of the other ratio guards: at 40 000
//! vertices that one clusters into m = 1 329 over 462 594 edges, 3.8 matrix
//! cells per edge, so pass 2a rightly stays on the sort path and the ratio
//! only moves 10.1–10.6 → 9.2–9.6. Here m = 911 over 1 426 003 edges.
//!
//! `#[ignore]`d because a timing is only meaningful in a release build:
//! `cargo test --release --test clugp_dbh_ratio -- --ignored`.

use clugp::baselines::Dbh;
use clugp::clugp::Clugp;
use clugp::partitioner::Partitioner;
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;
use std::time::Instant;

/// Highest accepted `CLUGP seconds / DBH seconds`.
const MAX_RATIO: f64 = 5.0;

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn clugp_stays_within_a_constant_factor_of_dbh() {
    let vertices = 40_000;
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices,
        mean_out_degree: 36.6,
        intra_site_fraction: 0.88,
        site_size_alpha: 1.8,
        min_site_size: 32,
        max_site_size: vertices / 40,
        out_degree_alpha: 2.1,
        max_out_degree: 1 << 12,
        seed: 13,
    });
    // BFS order: the order the paper streams web graphs in.
    let edges = ordered_edges(&g, StreamOrder::Bfs);
    let mut stream = InMemoryStream::new(g.num_vertices(), edges);
    let mut time = |p: &mut dyn Partitioner| {
        let t = Instant::now();
        p.partition(&mut stream, 32).expect("partition");
        t.elapsed().as_secs_f64()
    };
    // Best of five, the two interleaved so that a slow spell of the host
    // falls on both.
    let (mut clugp, mut dbh) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        clugp = clugp.min(time(&mut Clugp::default()));
        dbh = dbh.min(time(&mut Dbh::default()));
    }
    let ratio = clugp / dbh;
    println!("CLUGP {clugp:.4} s / DBH {dbh:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "CLUGP takes {ratio:.2}x DBH's time (limit {MAX_RATIO}): \
         did one of its three per-edge kernels get heavier?"
    );
}
