//! CI guard on a *ratio*, not on seconds (ROADMAP item 1): packing one
//! generated web graph with `pack_edge_stream` against one full drain of the
//! pack it wrote (`ChecksumPolicy::Full`, every payload CRC verified), on
//! both of the writer's paths. `spill_edges` is set below the edge count.
//! In adjacency order — sources ascending, each adjacency list as generated
//! — the writer streams: each list is sorted as the next source starts and
//! encoded on a second thread, and nothing spills. A seeded shuffle of the
//! same edges hands over to the external sort at its first descent, which
//! spills two runs, keeps a tail and merges them. Both sides touch every
//! edge once and the same page-cached file, so host speed cancels; what the
//! ratio watches is the writer sliding back to buffering and spilling input
//! that only needed its lists ordered, to a heap operation per merged edge,
//! or to a serial encoder.
//!
//! Readings on this graph — the 5.9 M-edge `web` input of `benchmark/`:
//! 11.60–11.77 at the parent of this guard (pack 0.370–0.380 s / drain
//! 0.032 s), 5.27–5.35 with the run-aware sort, slab runs, the in-memory
//! tail and the galloping merge, and 3.45–5.12 (median 3.6) once each
//! buffer sorted on both CPUs. On a 2-vCPU Xeon shared with other work,
//! three runs of the parent of the streaming writer read 3.72–4.03 in
//! adjacency order (pack 0.204–0.214 s, two spilled runs and a tail) and
//! 9.52–10.72 on the shuffle (0.518–0.544 s), which this limit would have
//! failed. Four runs with the streamed path, the merge tree and the merge
//! encoded on a second thread: 2.31–2.67 in adjacency order (0.109–0.118 s)
//! and 5.28–6.60 on the shuffle (0.226–0.289 s). The limit stays where it
//! was, a fifth above the slowest shuffle reading.
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
    let pack = |input: &[Edge], spill_runs: usize, what: &str| {
        let mut s = InMemoryStream::new(g.num_vertices(), input.to_vec());
        let t = Instant::now();
        let stats = pack_edge_stream(&mut s, &path, &opts).expect("pack");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(stats.spill_runs, spill_runs, "{what}");
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
    let shuffle = shuffled(edges.clone(), 44);
    for (what, input, spill_runs) in [
        ("adjacency order, streamed", &edges, 0),
        ("shuffled, two spilled runs and a tail", &shuffle, 3),
    ] {
        // Best of five, the two interleaved so that a slow spell of the host
        // falls on both.
        let (mut packed, mut drained) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            packed = packed.min(pack(input, spill_runs, what));
            drained = drained.min(drain());
        }
        let ratio = packed / drained;
        println!("{what}: pack {packed:.4} s / drain {drained:.4} s = {ratio:.2}");
        assert!(
            ratio <= MAX_RATIO,
            "{what}: packing costs {ratio:.2}x a checked drain of the result (limit {MAX_RATIO}): \
             is the writer sorting whole buffers by (src, dst) where lists would do, or merging a \
             heap operation per edge, again?"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Fisher–Yates over a fixed LCG.
fn shuffled(mut edges: Vec<Edge>, seed: u64) -> Vec<Edge> {
    let mut state = seed;
    for i in (1..edges.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        edges.swap(i, (state >> 33) as usize % (i + 1));
    }
    edges
}
