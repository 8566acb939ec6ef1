//! `clugp-pack` — build, inspect, and verify `CLUGPZ` compressed graph
//! packs (see `clugp_graph::pack` and DESIGN.md §6).
//!
//! ```text
//! clugp-pack pack <in> <out.clugpz> [options]
//!
//! <in>              text edge list, flat binary (CLUGPGR1), or an existing
//!                   pack — detected by magic, never by extension
//! --block-bytes N   target payload bytes per block (default 65536)
//! --spill-edges N   in-memory sort buffer before a run spills (default 4Mi)
//! --sparse          input is a text edge list of arbitrary 64-bit ids;
//!                   they are remapped onto the dense internal space in
//!                   first-appearance order before packing (the pack stores
//!                   the dense relabeling)
//! --checksums <p>   full (default) | header | off — CRC verification when
//!                   the *input* is itself a pack
//! --trace-out <f>   write a single-lane Chrome trace-event JSON of the
//!                   pack run (pack:drain_spill and pack:merge_encode
//!                   spans, spill counter); loads in Perfetto or
//!                   chrome://tracing
//!
//! clugp-pack info <file.clugpz> [--checksums p]
//!                   header + block statistics, bytes/edge; echoes the
//!                   read policy (off lets a pack with damaged metadata
//!                   CRCs still be inspected)
//! clugp-pack verify <file.clugpz>
//!                   full decode of every block: checksums, canonical
//!                   order, counts, id ranges — reports *every* failing
//!                   block with its index and byte offset, not just the
//!                   first
//! ```
//!
//! Exit codes: 0 success, 1 runtime error (including verify failures),
//! 2 usage error.

use clugp_graph::io::{open_edge_stream, open_sparse_edge_stream, sniff_format};
use clugp_graph::pack::{
    pack_edge_stream, read_pack_summary_with, set_decode_options, verify_pack_report,
    ChecksumPolicy, DecodeOptions, PackOptions, PackStats,
};
use clugp_graph::stream::{EdgeStream, RestreamableStream};
use clugp_obs as obs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone)]
struct PackArgs {
    input: String,
    output: String,
    block_bytes: usize,
    spill_edges: usize,
    sparse: bool,
    checksums: ChecksumPolicy,
    trace_out: Option<String>,
}

fn parse_pack_args(args: &[String]) -> Result<PackArgs, String> {
    let mut out = PackArgs {
        input: String::new(),
        output: String::new(),
        block_bytes: clugp_graph::pack::DEFAULT_BLOCK_BYTES,
        spill_edges: clugp_graph::pack::DEFAULT_SPILL_EDGES,
        sparse: false,
        checksums: ChecksumPolicy::Full,
        trace_out: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--block-bytes" => {
                out.block_bytes = value("--block-bytes")?
                    .parse()
                    .map_err(|e| format!("--block-bytes: {e}"))?;
                if out.block_bytes == 0 {
                    return Err("--block-bytes must be >= 1".into());
                }
            }
            "--spill-edges" => {
                out.spill_edges = value("--spill-edges")?
                    .parse()
                    .map_err(|e| format!("--spill-edges: {e}"))?;
                if out.spill_edges == 0 {
                    return Err("--spill-edges must be >= 1".into());
                }
            }
            "--sparse" => out.sparse = true,
            "--checksums" => {
                out.checksums = value("--checksums")?
                    .parse()
                    .map_err(|e| format!("--checksums: {e}"))?;
            }
            "--trace-out" => out.trace_out = Some(value("--trace-out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(a.clone()),
        }
    }
    match positional.as_slice() {
        [input, output] => {
            out.input = input.clone();
            out.output = output.clone();
        }
        _ => return Err("pack expects exactly <in> and <out> paths".into()),
    }
    Ok(out)
}

fn report_stats(stats: &PackStats, sparse_distinct: Option<u64>) {
    println!("vertices       = {}", stats.num_vertices);
    if let Some(d) = sparse_distinct {
        println!("distinct ids   = {d} (remapped, first-appearance order)");
    }
    println!("edges          = {}", stats.num_edges);
    println!("blocks         = {}", stats.num_blocks);
    println!("payload bytes  = {}", stats.payload_bytes);
    println!("file bytes     = {}", stats.file_bytes);
    println!(
        "bytes per edge = {:.3} (flat binary: 8.000)",
        stats.bytes_per_edge()
    );
    println!("spill runs     = {}", stats.spill_runs);
}

fn run_pack(args: &PackArgs) -> Result<(), String> {
    let input = Path::new(&args.input);
    let output = Path::new(&args.output);
    let opts = PackOptions {
        block_bytes: args.block_bytes,
        spill_edges: args.spill_edges,
    };
    if args.trace_out.is_some() {
        obs::set_enabled(true);
    }
    if args.sparse {
        let mut stream = open_sparse_edge_stream(input).map_err(|e| format!("--sparse: {e}"))?;
        let distinct = stream.id_map().len();
        let (stats, secs) = timed_pack(&mut stream, output, &opts)?;
        surface_stream_errors(&mut stream, output)?;
        report_cost(&stats, secs);
        report_stats(&stats, Some(distinct));
    } else {
        let fmt = sniff_format(input).map_err(|e| e.to_string())?;
        eprintln!("input format: {}", fmt.name());
        // Applies when the input is itself a pack: how much CRC checking
        // its decode performs (the *output* is always fully checksummed).
        set_decode_options(DecodeOptions {
            checksums: args.checksums,
            ..DecodeOptions::default()
        });
        let mut stream = open_edge_stream(input).map_err(|e| e.to_string())?;
        let (stats, secs) = timed_pack(stream.as_mut(), output, &opts)?;
        surface_stream_errors(stream.as_mut(), output)?;
        report_cost(&stats, secs);
        report_stats(&stats, None);
    }
    if let Some(path) = &args.trace_out {
        write_trace(path)?;
        obs::set_enabled(false);
    }
    Ok(())
}

/// `pack_edge_stream`, and the seconds it took.
fn timed_pack(
    stream: &mut dyn EdgeStream,
    output: &Path,
    opts: &PackOptions,
) -> Result<(PackStats, f64), String> {
    let started = Instant::now();
    let stats = pack_edge_stream(stream, output, opts).map_err(|e| e.to_string())?;
    Ok((stats, started.elapsed().as_secs_f64()))
}

/// Says on stderr what the `pack_edge_stream` call cost, and records the
/// spill counter beside the `pack:drain_spill` / `pack:merge_encode` spans
/// the call left in the process-wide sink (no-op unless `--trace-out`
/// enabled recording).
fn report_cost(stats: &PackStats, secs: f64) {
    eprintln!(
        "packed {} edges in {secs:.3} s ({:.0} edges/s), spill runs = {}",
        stats.num_edges,
        stats.num_edges as f64 / secs.max(1e-9),
        stats.spill_runs
    );
    obs::record_instant("spill_runs", stats.spill_runs as u64);
}

/// Drains the sink and writes a single-lane Chrome trace-event JSON.
fn write_trace(path: &str) -> Result<(), String> {
    let (events, dropped) = obs::take_events();
    let rec = obs::TraceRecord {
        events: events
            .into_iter()
            .map(|e| (obs::LANE_COORDINATOR, e))
            .collect(),
        dropped,
    };
    let json = obs::export::chrome_trace(&rec, 0, None);
    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
    Ok(())
}

/// File-backed sources end early with their error *parked* (the crate-wide
/// stream contract, reported by the next `reset`) — without this check a
/// damaged input would silently pack to a truncated but valid-looking
/// output. On a parked error the partial output is removed.
fn surface_stream_errors(stream: &mut dyn RestreamableStream, output: &Path) -> Result<(), String> {
    stream.reset().map_err(|e| {
        std::fs::remove_file(output).ok();
        format!("input ended early, output discarded: {e}")
    })
}

fn run_info(path: &str, policy: ChecksumPolicy) -> Result<(), String> {
    let sum = read_pack_summary_with(Path::new(path), policy).map_err(|e| e.to_string())?;
    println!("format         = CLUGPZ v1");
    println!(
        "checksums      = {} ({})",
        policy.name(),
        match policy {
            ChecksumPolicy::Full => "metadata CRCs verified at open, payload CRCs on decode",
            ChecksumPolicy::HeaderAndIndex => {
                "metadata CRCs verified at open, payload CRCs skipped"
            }
            ChecksumPolicy::Off => "CRCs not compared; structure only",
        }
    );
    println!("vertices       = {}", sum.header.num_vertices);
    println!("edges          = {}", sum.header.num_edges);
    println!("blocks         = {}", sum.num_blocks);
    println!("block target   = {} bytes", sum.header.block_target);
    println!(
        "block bytes    = min {} / max {}",
        sum.min_block_bytes, sum.max_block_bytes
    );
    println!("edges per blk  = {:.1} mean", sum.mean_block_edges);
    println!("payload bytes  = {}", sum.payload_bytes);
    println!("file bytes     = {}", sum.file_bytes);
    println!(
        "bytes per edge = {:.3} (flat binary: 8.000)",
        sum.bytes_per_edge()
    );
    Ok(())
}

fn run_verify(path: &str) -> Result<(), String> {
    let report = verify_pack_report(Path::new(path)).map_err(|e| e.to_string())?;
    if report.is_ok() {
        println!(
            "OK: {} edges in {} blocks, all checksums and invariants verified",
            report.decoded_edges, report.num_blocks
        );
        return Ok(());
    }
    // Every damaged block, not just the first: index + byte offset locate
    // each one for surgical re-packing or forensics.
    for f in &report.failures {
        println!(
            "FAIL block {} at byte offset {}: {}",
            f.block, f.byte_offset, f.error
        );
    }
    for g in &report.global_errors {
        println!("FAIL pack-wide: {g}");
    }
    Err(format!(
        "{} of {} blocks failed verification ({} pack-wide violations); \
         {} of {} edges decoded from the blocks that passed",
        report.failures.len(),
        report.num_blocks,
        report.global_errors.len(),
        report.decoded_edges,
        report.num_edges
    ))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: clugp-pack pack <in> <out.clugpz> [--block-bytes N] [--spill-edges N] [--sparse] \
         [--checksums full|header|off] [--trace-out file]\n\
         \x20      clugp-pack info <file.clugpz> [--checksums full|header|off]\n\
         \x20      clugp-pack verify <file.clugpz>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let result = match args[0].as_str() {
        "pack" => match parse_pack_args(&args[1..]) {
            Ok(p) => run_pack(&p),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        "info" if args.len() == 2 => run_info(&args[1], ChecksumPolicy::Full),
        "info" if args.len() == 4 && args[2] == "--checksums" => match args[3].parse() {
            Ok(policy) => run_info(&args[1], policy),
            Err(e) => {
                eprintln!("error: --checksums: {e}");
                return ExitCode::from(2);
            }
        },
        "verify" if args.len() == 2 => run_verify(&args[1]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clugp_graph::pack::{write_pack, PackOptions};
    use clugp_graph::stream::EdgeStream;
    use clugp_graph::types::Edge;
    use std::path::PathBuf;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clugp_pack_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parses_pack_args() {
        let p = parse_pack_args(&strs(&[
            "in.txt",
            "out.clugpz",
            "--block-bytes",
            "1024",
            "--spill-edges",
            "100",
            "--sparse",
        ]))
        .unwrap();
        assert_eq!(p.input, "in.txt");
        assert_eq!(p.output, "out.clugpz");
        assert_eq!(p.block_bytes, 1024);
        assert_eq!(p.spill_edges, 100);
        assert!(p.sparse);
    }

    #[test]
    fn pack_args_parse_checksums_policy() {
        let p = parse_pack_args(&strs(&["a", "b"])).unwrap();
        assert_eq!(p.checksums, ChecksumPolicy::Full);
        let p = parse_pack_args(&strs(&["a", "b", "--checksums", "off"])).unwrap();
        assert_eq!(p.checksums, ChecksumPolicy::Off);
        let p = parse_pack_args(&strs(&["a", "b", "--checksums", "HEADER"])).unwrap();
        assert_eq!(p.checksums, ChecksumPolicy::HeaderAndIndex);
        assert!(parse_pack_args(&strs(&["a", "b", "--checksums", "some"])).is_err());
    }

    #[test]
    fn verify_names_every_damaged_block() {
        let edges: Vec<Edge> = (0..4_000u32).map(|i| Edge::new(i / 7, i % 97)).collect();
        let path = tmp("verify_multi_damage.clugpz");
        write_pack(
            &path,
            0,
            &edges,
            &PackOptions {
                block_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let sum = clugp_graph::pack::read_pack_summary(&path).unwrap();
        assert!(sum.num_blocks >= 3, "need a multi-block pack");
        // Flip one payload byte in the first block and one in the last.
        let mut data = std::fs::read(&path).unwrap();
        data[36 + 10] ^= 0xFF;
        data[36 + sum.payload_bytes as usize - 10] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let err = run_verify(&path.to_string_lossy()).unwrap_err();
        assert!(
            err.starts_with(&format!("2 of {} blocks failed", sum.num_blocks)),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn info_off_policy_reads_a_pack_with_damaged_header_crc() {
        let path = tmp("info_damaged_header.clugpz");
        write_pack(
            &path,
            3,
            &[Edge::new(0, 1), Edge::new(1, 2)],
            &PackOptions::default(),
        )
        .unwrap();
        // Flip a byte of the stored header CRC (bytes 32..36): the full
        // policy refuses the file, the off policy still inspects it.
        let mut data = std::fs::read(&path).unwrap();
        data[33] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let err = run_info(&path.to_string_lossy(), ChecksumPolicy::Full).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        run_info(&path.to_string_lossy(), ChecksumPolicy::Off).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_pack_args() {
        assert!(parse_pack_args(&strs(&["only-one"])).is_err());
        assert!(parse_pack_args(&strs(&["a", "b", "c"])).is_err());
        assert!(parse_pack_args(&strs(&["a", "b", "--block-bytes", "0"])).is_err());
        assert!(parse_pack_args(&strs(&["a", "b", "--spill-edges", "0"])).is_err());
        assert!(parse_pack_args(&strs(&["a", "b", "--bogus"])).is_err());
    }

    #[test]
    fn pack_info_verify_round_trip_from_text() {
        let input = tmp("in.txt");
        let output = tmp("out.clugpz");
        std::fs::write(&input, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        let args = PackArgs {
            input: input.to_string_lossy().into_owned(),
            output: output.to_string_lossy().into_owned(),
            block_bytes: 64,
            spill_edges: 2, // force the spill path
            sparse: false,
            checksums: ChecksumPolicy::Full,
            trace_out: None,
        };
        run_pack(&args).unwrap();
        for policy in [
            ChecksumPolicy::Full,
            ChecksumPolicy::HeaderAndIndex,
            ChecksumPolicy::Off,
        ] {
            run_info(&output.to_string_lossy(), policy).unwrap();
        }
        run_verify(&output.to_string_lossy()).unwrap();
        let mut s = clugp_graph::pack::PackedEdgeStream::open(&output).unwrap();
        let edges = clugp_graph::stream::collect_stream(&mut s);
        assert_eq!(
            edges,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 2),
                Edge::new(2, 0)
            ]
        );
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn sparse_pack_remaps_dense() {
        let input = tmp("sparse.txt");
        let output = tmp("sparse.clugpz");
        std::fs::write(
            &input,
            "18446744073709551615 9000000000\n9000000000 1099511627776\n",
        )
        .unwrap();
        let args = PackArgs {
            input: input.to_string_lossy().into_owned(),
            output: output.to_string_lossy().into_owned(),
            block_bytes: clugp_graph::pack::DEFAULT_BLOCK_BYTES,
            spill_edges: clugp_graph::pack::DEFAULT_SPILL_EDGES,
            sparse: true,
            checksums: ChecksumPolicy::Full,
            trace_out: None,
        };
        run_pack(&args).unwrap();
        let mut s = clugp_graph::pack::PackedEdgeStream::open(&output).unwrap();
        assert_eq!(s.num_vertices_hint(), Some(3), "3 distinct ids remapped");
        let edges = clugp_graph::stream::collect_stream(&mut s);
        // First-appearance relabeling (0→1, 1→2), canonically sorted.
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn sparse_rejects_non_text_input() {
        let input = tmp("dense.clugpz");
        write_pack(&input, 2, &[Edge::new(0, 1)], &PackOptions::default()).unwrap();
        let args = PackArgs {
            input: input.to_string_lossy().into_owned(),
            output: tmp("never.clugpz").to_string_lossy().into_owned(),
            block_bytes: 64,
            spill_edges: 64,
            sparse: true,
            checksums: ChecksumPolicy::Full,
            trace_out: None,
        };
        let err = run_pack(&args).unwrap_err();
        assert!(err.contains("--sparse"), "{err}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn packing_a_damaged_input_fails_and_discards_the_output() {
        // Regression: a source that ends early with a *parked* error (the
        // crate-wide file-stream contract) must fail the pack run, not
        // silently write a truncated but valid-looking output.
        let edges: Vec<Edge> = (0..4_000u32).map(|i| Edge::new(i / 7, i % 97)).collect();
        let input = tmp("damaged_in.clugpz");
        write_pack(
            &input,
            0,
            &edges,
            &PackOptions {
                block_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        // Flip a payload byte past the first block: header/index stay
        // valid, so the stream opens fine and dies mid-drain.
        let mut data = std::fs::read(&input).unwrap();
        data[36 + 700] ^= 0xFF;
        std::fs::write(&input, &data).unwrap();
        let output = tmp("damaged_out.clugpz");
        let err = run_pack(&PackArgs {
            input: input.to_string_lossy().into_owned(),
            output: output.to_string_lossy().into_owned(),
            block_bytes: 512,
            spill_edges: 64,
            sparse: false,
            checksums: ChecksumPolicy::Full,
            trace_out: None,
        })
        .unwrap_err();
        assert!(err.contains("ended early"), "{err}");
        assert!(!output.exists(), "partial output must be discarded");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn pack_trace_out_writes_valid_chrome_trace() {
        let input = tmp("trace_in.txt");
        let output = tmp("trace_out.clugpz");
        let trace = tmp("trace.json");
        std::fs::write(&input, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        run_pack(&PackArgs {
            input: input.to_string_lossy().into_owned(),
            output: output.to_string_lossy().into_owned(),
            block_bytes: 64,
            spill_edges: 2,
            sparse: false,
            checksums: ChecksumPolicy::Full,
            trace_out: Some(trace.to_string_lossy().into_owned()),
        })
        .unwrap();
        let json = std::fs::read_to_string(&trace).unwrap();
        obs::json::validate(&json).unwrap_or_else(|e| panic!("trace not valid JSON: {e}"));
        for span in ["pack:drain_spill", "pack:merge_encode"] {
            assert!(json.contains(&format!("\"{span}\"")), "{span} span missing");
        }
        assert!(json.contains("\"spill_runs\""), "spill counter missing");
        for p in [input, output, trace] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn repack_from_binary_and_existing_pack() {
        let edges = vec![Edge::new(2, 1), Edge::new(0, 1), Edge::new(0, 0)];
        let bin = tmp("re.bin");
        clugp_graph::io::write_binary_graph(&bin, 3, &edges).unwrap();
        let out1 = tmp("re1.clugpz");
        run_pack(&PackArgs {
            input: bin.to_string_lossy().into_owned(),
            output: out1.to_string_lossy().into_owned(),
            block_bytes: 64,
            spill_edges: 64,
            sparse: false,
            checksums: ChecksumPolicy::Full,
            trace_out: None,
        })
        .unwrap();
        // Packing an existing pack is idempotent on content.
        let out2 = tmp("re2.clugpz");
        run_pack(&PackArgs {
            input: out1.to_string_lossy().into_owned(),
            output: out2.to_string_lossy().into_owned(),
            block_bytes: 64,
            spill_edges: 64,
            sparse: false,
            checksums: ChecksumPolicy::Full,
            trace_out: None,
        })
        .unwrap();
        let mut a = clugp_graph::pack::PackedEdgeStream::open(&out1).unwrap();
        let mut b = clugp_graph::pack::PackedEdgeStream::open(&out2).unwrap();
        assert_eq!(
            clugp_graph::stream::collect_stream(&mut a),
            clugp_graph::stream::collect_stream(&mut b)
        );
        for p in [bin, out1, out2] {
            std::fs::remove_file(p).ok();
        }
    }
}
