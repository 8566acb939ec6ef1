//! CI guards on *ratios*, not on seconds (ROADMAP item 1), over one
//! generated web pack read from the page cache, so host speed cancels.
//!
//! - A full drain through `PackedEdgeStream` with every block's payload CRC
//!   verified (`ChecksumPolicy::Full`, the default) against the same drain
//!   with none (`ChecksumPolicy::Off`). Both run the same varint decoder;
//!   what the ratio watches is the CRC kernel creeping back towards one
//!   table lookup per byte (≈ 1.95–2.15 with the byte-at-a-time walk,
//!   ≈ 1.2 with slicing-by-16).
//! - A checked drain through `PipelinedPackStream` against a checked drain
//!   through `PackedEdgeStream`, on two CPUs or more. A bare drain is
//!   decode-bound, so it only gains when the consumer decodes blocks too
//!   instead of waiting on the decode thread (≈ 0.9–1.1 when it waited,
//!   ≈ 0.5–0.7 with both sides decoding).
//!
//! `#[ignore]`d because a timing is only meaningful in a release build:
//! `cargo test --release --test crc_decode_ratio -- --ignored`.

use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::pack::{
    write_pack, ChecksumPolicy, DecodeOptions, PackOptions, PackedEdgeStream, PipelinedPackStream,
};
use clugp_graph::stream::{for_each_chunk, EdgeStream};
use clugp_graph::types::Edge;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Held by each guard for its whole run: the harness runs tests on parallel
/// threads, and a guard that shares the CPUs with the other one's packing
/// times the host, not the reader.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Highest accepted `Full seconds / Off seconds`.
const MAX_RATIO: f64 = 1.6;

/// Highest accepted `decode-ahead seconds / serial seconds`, both checked.
const MAX_AHEAD_RATIO: f64 = 0.8;

/// Writes the generated web pack a guard drains; returns its path and edge
/// count.
fn web_pack(name: &str) -> (PathBuf, usize) {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 40_000,
        seed: 15,
        ..Default::default()
    });
    let edges: Vec<Edge> = g.edges().collect();
    let path = std::env::temp_dir().join(format!("clugp_{name}_{}.clugpz", std::process::id()));
    write_pack(&path, g.num_vertices(), &edges, &PackOptions::default()).expect("pack");
    (path, edges.len())
}

/// Seconds to open a stream and pull it to its end; asserts it lost no
/// edge.
fn drain<S: EdgeStream>(open: impl FnOnce() -> S, edges: usize, what: &str) -> f64 {
    let t = Instant::now();
    let mut stream = open();
    let mut seen = 0usize;
    for_each_chunk(&mut stream, 4096, |chunk| {
        seen += std::hint::black_box(chunk).len()
    });
    assert_eq!(seen, edges, "{what} drain lost edges");
    t.elapsed().as_secs_f64()
}

/// Best of five of each side, the two interleaved so that a slow spell of
/// the host falls on both.
fn best_of_five(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        best_a = best_a.min(a());
        best_b = best_b.min(b());
    }
    (best_a, best_b)
}

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn full_crc_decode_stays_within_a_constant_factor_of_unchecked_decode() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (path, edges) = web_pack("crc_ratio");
    let checked = |policy: ChecksumPolicy| {
        let open = || PackedEdgeStream::open_with(&path, policy).expect("open");
        drain(open, edges, &format!("{policy:?}"))
    };
    let (full, off) = best_of_five(
        || checked(ChecksumPolicy::Full),
        || checked(ChecksumPolicy::Off),
    );
    std::fs::remove_file(&path).ok();
    let ratio = full / off;
    println!("full {full:.4} s / off {off:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "verifying payload CRCs makes a drain {ratio:.2}x an unchecked one \
         (limit {MAX_RATIO}): is crc32 walking one byte per step again?"
    );
}

#[test]
#[ignore = "timing: run with --release -- --ignored"]
fn decode_ahead_drain_beats_the_serial_reader() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        println!("skipped: decode-ahead needs a second CPU, this process may use {cpus}");
        return;
    }
    let (path, edges) = web_pack("ahead_ratio");
    let ahead = || PipelinedPackStream::open(&path, DecodeOptions::default()).expect("open");
    let serial = || PackedEdgeStream::open(&path).expect("open");
    let (ahead, serial) = best_of_five(
        || drain(ahead, edges, "decode-ahead"),
        || drain(serial, edges, "serial"),
    );
    std::fs::remove_file(&path).ok();
    let ratio = ahead / serial;
    println!("decode-ahead {ahead:.4} s / serial {serial:.4} s = {ratio:.2}");
    assert!(
        ratio <= MAX_AHEAD_RATIO,
        "a checked decode-ahead drain takes {ratio:.2}x a serial one (limit \
         {MAX_AHEAD_RATIO}): does the consumer wait on the decode thread again?"
    );
}
