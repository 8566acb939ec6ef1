//! CI guard on a *ratio*, not on seconds (ROADMAP item 1): packing one
//! generated web graph with `pack_edge_stream` against one full drain of the
//! pack it wrote (`ChecksumPolicy::Full`, every payload CRC verified). The
//! graph arrives in adjacency order — sources ascending, each adjacency list
//! as generated — and `spill_edges` is set below its edge count, so the
//! writer sorts, spills two runs and a tail, and merges them. Both sides
//! touch every edge once and the same page-cached file, so host speed
//! cancels; what the ratio watches is the writer sliding back to a full
//! `(src, dst)` sort of a buffer that only needed its adjacency lists
//! ordered, to a heap operation per merged edge, or to 8-byte run reads.
//!
//! Readings on this graph — the 5.9 M-edge `web` input of `benchmark/`,
//! three runs a side: 11.60–11.77 at the parent of this guard (pack
//! 0.370–0.380 s / drain 0.032 s), 5.27–5.35 with the run-aware sort, slab
//! runs, the in-memory tail and the galloping merge (0.165–0.168 s /
//! 0.031 s). Under default `PackOptions` (one spilled run and a tail, what
//! `benchmark/` times as `pack.encode_s`) the same two read ≈ 12.8–13.5
//! and ≈ 5.8. The limit sits between them, half again above the change.
//!
//! `#[ignore]`d because a timing is only meaningful in a release build:
//! `cargo test --release --test pack_encode_ratio -- --ignored`.

use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::pack::{pack_edge_stream, ChecksumPolicy, PackOptions, PackedEdgeStream};
use clugp_graph::stream::{for_each_chunk, InMemoryStream};
use clugp_graph::types::Edge;
use std::time::Instant;

/// Highest accepted `pack seconds / drain seconds`.
const MAX_RATIO: f64 = 8.0;

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn packing_stays_within_a_constant_factor_of_one_checked_drain() {
    // The `web` input of `benchmark/` (its it-s parameters, ≈ 5.9 M edges).
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 160_000,
        mean_out_degree: 36.6,
        intra_site_fraction: 0.88,
        site_size_alpha: 1.8,
        min_site_size: 32,
        max_site_size: 4_000,
        out_degree_alpha: 2.1,
        max_out_degree: 1 << 12,
        seed: 15,
    });
    let edges: Vec<Edge> = g.edges().collect();
    assert!(
        edges.windows(2).all(|w| w[0].src <= w[1].src),
        "the generator no longer hands out adjacency order"
    );
    let opts = PackOptions {
        spill_edges: edges.len() * 2 / 5,
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!("clugp_pack_ratio_{}.clugpz", std::process::id()));
    let pack = || {
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let t = Instant::now();
        let stats = pack_edge_stream(&mut s, &path, &opts).expect("pack");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(stats.spill_runs, 3, "two spilled runs and a tail");
        secs
    };
    let drain = || {
        let t = Instant::now();
        let mut s = PackedEdgeStream::open_with(&path, ChecksumPolicy::Full).expect("open");
        let mut seen = 0usize;
        for_each_chunk(&mut s, 4096, |chunk| {
            seen += std::hint::black_box(chunk).len()
        });
        assert_eq!(seen, edges.len(), "drain lost edges");
        t.elapsed().as_secs_f64()
    };
    // Best of five, the two interleaved so that a slow spell of the host
    // falls on both.
    let (mut packed, mut drained) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        packed = packed.min(pack());
        drained = drained.min(drain());
    }
    std::fs::remove_file(&path).ok();
    let ratio = packed / drained;
    println!("pack {packed:.4} s / drain {drained:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "packing costs {ratio:.2}x a checked drain of the result (limit {MAX_RATIO}): is the \
         writer sorting whole buffers by (src, dst), or merging a heap operation per edge, again?"
    );
}
