//! Memory guard for the CLI's streamed path: the same graph as a pack
//! (`asis`: streamed from the file, O(|V|) tables + 4 B/edge of assignment
//! resident) and as flat binary (`asis` there is a sort, so the edges are
//! held: 12 B/edge at every point of the run) must give one TSV, and the
//! streamed run's peak RSS must stay under half of the materialised run's.
//! The ratio tends to 1/3 from above as edges outgrow the per-vertex tables
//! and the binary's own pages (≈ 0.4x here); a streamed path that held the
//! edges after all would read ≈ 1.0x. No clock.
//!
//! `#[ignore]`d like the timing guards — allocator behaviour of a debug
//! build proves nothing: `cargo test --release --test cli_stream_ratio --
//! --ignored --nocapture`.

use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::io::binary::write_binary_graph;
use clugp_graph::pack::{write_pack, PackOptions};
use clugp_repro::clugp_part_exe;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `--order asis --algo clugp` over `input`; returns the `peak rss`
/// the binary reports on stderr, in MiB.
fn peak_rss_mib(exe: &Path, input: &Path, tsv: &Path) -> f64 {
    let out = Command::new(exe)
        .arg(input)
        .args([
            "--k", "32", "--algo", "clugp", "--order", "asis", "--output",
        ])
        .arg(tsv)
        .output()
        .expect("spawn clugp-part");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", input.display());
    stderr
        .lines()
        .find_map(|l| {
            l.strip_prefix("peak rss = ")?
                .strip_suffix(" MiB")?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no peak rss line in:\n{stderr}"))
}

#[test]
#[ignore = "memory guard: meaningful in release only (CI runs it with --release --ignored)"]
fn streamed_pack_peaks_under_half_of_the_materialised_run() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipping: peak rss is read from /proc");
        return;
    }
    let exe = clugp_part_exe().expect("build clugp-part first (cargo build --release)");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_stream_ratio");
    std::fs::create_dir_all(&dir).unwrap();
    // The density of the benchmark's `web` input, in a pack's own order.
    let graph = generate_web_crawl(&WebCrawlConfig {
        vertices: 60_000,
        mean_out_degree: 36.6,
        seed: 23,
        ..Default::default()
    });
    let n = graph.num_vertices();
    let mut edges = graph.edge_vec();
    drop(graph);
    edges.sort_unstable_by_key(|e| (e.src, e.dst));
    assert!(edges.len() >= 1_000_000, "{} edges", edges.len());
    let (pack, flat) = (dir.join("web.clugpz"), dir.join("web.bin"));
    write_pack(&pack, n, &edges, &PackOptions::default()).unwrap();
    write_binary_graph(&flat, n, &edges).unwrap();
    let m = edges.len();
    drop(edges);

    let (streamed_tsv, held_tsv) = (dir.join("streamed.tsv"), dir.join("held.tsv"));
    let streamed = peak_rss_mib(&exe, &pack, &streamed_tsv);
    let held = peak_rss_mib(&exe, &flat, &held_tsv);
    println!(
        "{m} edges: streamed {streamed:.1} MiB, materialised {held:.1} MiB ({:.2}x)",
        streamed / held
    );
    assert_eq!(
        std::fs::read(&streamed_tsv).unwrap(),
        std::fs::read(&held_tsv).unwrap(),
        "a pack's asis and a flat file's asis of the same graph are one order"
    );
    assert!(
        streamed <= 0.5 * held,
        "streamed peak {streamed:.1} MiB exceeds half of the materialised {held:.1} MiB"
    );
    std::fs::remove_dir_all(&dir).ok();
}
