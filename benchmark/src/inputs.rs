//! Set-up: generate a graph from the seed and pack it to disk.
//!
//! The program under test only ever sees the packed file. The seed is mixed
//! into the generator seeds and nowhere else, so one seed always yields the
//! same two files.

use crate::spec::{Input, Sizes};
use clugp_graph::gen::{generate_ba, generate_web_crawl, BaConfig, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::pack::{pack_edge_stream, PackOptions, PackStats};
use clugp_graph::stream::InMemoryStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A packed input and what making it cost.
#[derive(Debug, Clone)]
pub struct PackedInput {
    pub pack: PathBuf,
    /// Generate + pack, the benchmark's `setup_s`.
    pub setup_s: f64,
    /// The `pack_edge_stream` call alone (`pack.encode_s`).
    pub encode_s: f64,
    pub stats: PackStats,
}

fn mix(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Generates `input` at its size for `seed` and writes it as a `CLUGPZ`
/// pack with `pack_edge_stream` defaults to `dir/<input>.clugpz`. Packs
/// replay in canonical `(src, dst)` order, so that is the order every
/// workload streams.
pub fn build(input: Input, sizes: Sizes, seed: u64, dir: &Path) -> Result<PackedInput, String> {
    let start = Instant::now();
    let vertices = sizes.vertices(input);
    let graph = match input {
        // The it-s and twitter-s parameters of crates/bench/src/datasets.rs,
        // except the site-size cap: the issue sized its 16 384 for 640 000
        // vertices, and at this size one such site would be a tenth of the
        // graph, which makes replication factor swing ±8 % from seed to
        // seed. The cap keeps the issue's 1/40 share of the vertices.
        Input::Web => generate_web_crawl(&WebCrawlConfig {
            vertices,
            mean_out_degree: 36.6,
            intra_site_fraction: 0.88,
            site_size_alpha: 1.8,
            min_site_size: 32,
            max_site_size: (vertices / 40).max(64),
            out_degree_alpha: 2.1,
            max_out_degree: 1 << 12,
            seed: mix(0x17_2004, seed),
        }),
        Input::Social => generate_ba(&BaConfig {
            vertices,
            edges_per_vertex: 34,
            seed: mix(0x0771_77e4, seed),
        }),
    };
    let mut stream = InMemoryStream::new(
        graph.num_vertices(),
        ordered_edges(&graph, StreamOrder::AsIs),
    );
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let pack = dir.join(format!("{}.clugpz", input.name()));
    let encode = Instant::now();
    let stats = pack_edge_stream(&mut stream, &pack, &PackOptions::default())
        .map_err(|e| format!("packing {}: {e}", pack.display()))?;
    Ok(PackedInput {
        pack,
        setup_s: start.elapsed().as_secs_f64(),
        encode_s: encode.elapsed().as_secs_f64(),
        stats,
    })
}
