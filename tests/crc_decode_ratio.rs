//! CI guard on a *ratio*, not on seconds (ROADMAP item 1): a full drain of
//! one generated web pack through `PackedEdgeStream` with every block's
//! payload CRC verified (`ChecksumPolicy::Full`, the default) against the
//! same drain with none (`ChecksumPolicy::Off`). Both sides read the same
//! page-cached file and run the same varint decoder, so host speed
//! cancels; what the ratio watches is the CRC kernel creeping back towards
//! one table lookup per byte (≈ 1.95–2.15 with the byte-at-a-time walk,
//! ≈ 1.2 with slicing-by-16).
//!
//! `#[ignore]`d because a timing is only meaningful in a release build:
//! `cargo test --release --test crc_decode_ratio -- --ignored`.

use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::pack::{write_pack, ChecksumPolicy, PackOptions, PackedEdgeStream};
use clugp_graph::stream::for_each_chunk;
use clugp_graph::types::Edge;
use std::time::Instant;

/// Highest accepted `Full seconds / Off seconds`.
const MAX_RATIO: f64 = 1.6;

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn full_crc_decode_stays_within_a_constant_factor_of_unchecked_decode() {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 40_000,
        seed: 15,
        ..Default::default()
    });
    let edges: Vec<Edge> = g.edges().collect();
    let path = std::env::temp_dir().join(format!("clugp_crc_ratio_{}.clugpz", std::process::id()));
    write_pack(&path, g.num_vertices(), &edges, &PackOptions::default()).expect("pack");
    let drain = |policy: ChecksumPolicy| {
        let t = Instant::now();
        let mut s = PackedEdgeStream::open_with(&path, policy).expect("open");
        let mut seen = 0usize;
        for_each_chunk(&mut s, 4096, |chunk| {
            seen += std::hint::black_box(chunk).len()
        });
        assert_eq!(seen, edges.len(), "{policy:?} drain lost edges");
        t.elapsed().as_secs_f64()
    };
    // Best of five, the two interleaved so that a slow spell of the host
    // falls on both.
    let (mut full, mut off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        full = full.min(drain(ChecksumPolicy::Full));
        off = off.min(drain(ChecksumPolicy::Off));
    }
    std::fs::remove_file(&path).ok();
    let ratio = full / off;
    println!("full {full:.4} s / off {off:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "verifying payload CRCs makes a drain {ratio:.2}x an unchecked one \
         (limit {MAX_RATIO}): is crc32 walking one byte per step again?"
    );
}
