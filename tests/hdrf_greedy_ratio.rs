//! CI guards on *ratios*, not on seconds (ROADMAP item 1), over one
//! generated web graph, every run through `Partitioner::partition`:
//!
//! * HDRF against Greedy at k = 32. The two kernels read the same replica
//!   table and the same loads, so host speed cancels; what the ratio
//!   watches is HDRF's per-edge work creeping back towards one score per
//!   partition (≈ 4.0 with the per-partition loop, ≈ 1.2–1.4 walking every
//!   replica class, ≈ 1.05–1.15 walking only the classes whose bound can
//!   still win).
//! * HDRF at k = 256 against HDRF at k = 8. What grows with k is the walk
//!   over the set bits of the two replica rows (≈ 2.8–3.4 walking every
//!   class, ≈ 1.4–1.5 walking only the classes that can still win).
//!
//! `#[ignore]`d because a timing is only meaningful in a release build:
//! `cargo test --release --test hdrf_greedy_ratio -- --ignored`.

use clugp::baselines::{Greedy, Hdrf};
use clugp::partitioner::Partitioner;
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;
use std::time::Instant;

/// Highest accepted `HDRF seconds / Greedy seconds`.
const MAX_RATIO: f64 = 2.5;

/// Highest accepted `HDRF seconds at k = 256 / HDRF seconds at k = 8`.
const MAX_K_GROWTH: f64 = 2.2;

/// The guards' graph, in Random order: in BFS order HDRF at the default
/// lambda never leaves partition 0 and the guards would time a degenerate
/// run.
fn web_stream() -> InMemoryStream {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 40_000,
        seed: 13,
        ..Default::default()
    });
    InMemoryStream::new(g.num_vertices(), ordered_edges(&g, StreamOrder::Random(13)))
}

/// Seconds of one `partition` call.
fn seconds(p: &mut dyn Partitioner, stream: &mut InMemoryStream, k: u32) -> f64 {
    let t = Instant::now();
    p.partition(stream, k).expect("partition");
    t.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn hdrf_stays_within_a_constant_factor_of_greedy() {
    let mut stream = web_stream();
    // Best of five, the two interleaved so that a slow spell of the host
    // falls on both.
    let (mut hdrf, mut greedy) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        hdrf = hdrf.min(seconds(&mut Hdrf::default(), &mut stream, 32));
        greedy = greedy.min(seconds(&mut Greedy::new(), &mut stream, 32));
    }
    let ratio = hdrf / greedy;
    println!("HDRF {hdrf:.4} s / Greedy {greedy:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "HDRF takes {ratio:.2}x Greedy's time (limit {MAX_RATIO}): \
         is it scoring every partition per edge again?"
    );
}

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn hdrf_cost_stays_flat_in_k() {
    let mut stream = web_stream();
    // Best of five, interleaved as above.
    let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        small = small.min(seconds(&mut Hdrf::default(), &mut stream, 8));
        large = large.min(seconds(&mut Hdrf::default(), &mut stream, 256));
    }
    let ratio = large / small;
    println!("HDRF k=256 {large:.4} s / k=8 {small:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_K_GROWTH,
        "HDRF at k = 256 takes {ratio:.2}x its k = 8 time (limit {MAX_K_GROWTH}): \
         is it walking replica classes that cannot win?"
    );
}
