//! Pipelined-vs-serial decode equivalence: the staged decode pipeline
//! (`PipelinedPackStream`) must be *bit-identical* to the serial pack
//! reader from every consumer's point of view — same edges, same chunk
//! boundaries, same partitions — at every decode-thread count, prefetch
//! depth, and source chunk granularity. Concurrency is allowed to change
//! wall-clock time and nothing else.
//!
//! Also pins the failure contract across threads: a CRC mismatch hit by a
//! decode *worker* parks on the consumer exactly like a serial mid-stream
//! error — ordered prefix delivered, early end, error reported by the next
//! `reset`.

use clugp::baselines::{Dbh, Greedy, Grid, Hashing, Hdrf, Mint, MintConfig};
use clugp::clugp::{Clugp, ClugpConfig, ClusterAssignMode};
use clugp::partitioner::Partitioner;
use clugp_graph::pack::{
    crc32, write_pack, ChecksumPolicy, DecodeOptions, PackOptions, PackedEdgeStream,
    PipelinedPackStream, ShardedPackReader,
};
use clugp_graph::stream::{collect_stream, ChunkLimited, EdgeStream, RestreamableStream};
use clugp_repro::test_web_graph;
use std::path::PathBuf;

/// CLUGP (+ablations) and every vertex-cut baseline.
fn roster() -> Vec<(&'static str, Box<dyn Partitioner>)> {
    vec![
        ("Hashing", Box::new(Hashing::default())),
        ("DBH", Box::new(Dbh::default())),
        ("Grid", Box::new(Grid::default())),
        ("Greedy", Box::new(Greedy::new())),
        ("HDRF", Box::new(Hdrf::default())),
        (
            "Mint",
            Box::new(Mint::new(MintConfig {
                batch_size: 97,
                ..Default::default()
            })),
        ),
        ("CLUGP", Box::new(Clugp::default())),
        (
            "CLUGP-S",
            Box::new(Clugp::new(ClugpConfig {
                splitting: false,
                ..Default::default()
            })),
        ),
        (
            "CLUGP-G",
            Box::new(Clugp::new(ClugpConfig {
                assign_mode: ClusterAssignMode::Greedy,
                ..Default::default()
            })),
        ),
    ]
}

fn opts(threads: usize, prefetch: usize) -> DecodeOptions {
    DecodeOptions {
        threads,
        prefetch,
        checksums: ChecksumPolicy::Full,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("clugp_pipelined_equiv");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A many-block pack of a web-like graph (small blocks keep block
/// boundaries — and therefore pipeline hand-offs — in play).
fn write_test_pack(name: &str, vertices: u64, seed: u64) -> PathBuf {
    let (n, edges) = test_web_graph(vertices, seed);
    let path = tmp(name);
    write_pack(
        &path,
        n,
        &edges,
        &PackOptions {
            block_bytes: 1024,
            ..Default::default()
        },
    )
    .unwrap();
    path
}

fn run(
    p: &mut dyn Partitioner,
    stream: &mut dyn RestreamableStream,
    k: u32,
) -> (Vec<u32>, Vec<u64>) {
    let run = p.partition(stream, k).expect("partition");
    (run.partitioning.assignments, run.partitioning.loads)
}

#[test]
fn edge_and_chunk_sequences_match_serial_at_every_thread_count() {
    let path = write_test_pack("chunks.clugpz", 1_200, 41);
    let mut serial = PackedEdgeStream::open(&path).unwrap();
    let want = collect_stream(&mut serial);
    assert!(!want.is_empty());
    for threads in [1usize, 2, 4] {
        for prefetch in [1usize, 4] {
            // Whole-stream equality, twice (reset must restart the pipeline).
            let mut s = PipelinedPackStream::open(&path, opts(threads, prefetch)).unwrap();
            assert_eq!(
                collect_stream(&mut s),
                want,
                "threads={threads} prefetch={prefetch}"
            );
            s.reset().unwrap();
            assert_eq!(collect_stream(&mut s), want, "second pass");

            // Chunk-for-chunk equality against the serial reader at odd
            // caps: boundaries are part of the bit-identity contract.
            for cap in [1usize, 7, 333] {
                let mut serial = PackedEdgeStream::open(&path).unwrap();
                let mut piped = PipelinedPackStream::open(&path, opts(threads, prefetch)).unwrap();
                loop {
                    let (a, b) = (serial.next_chunk(cap), piped.next_chunk(cap));
                    assert_eq!(
                        a, b,
                        "chunk diverged: threads={threads} prefetch={prefetch} cap={cap}"
                    );
                    if a.is_empty() {
                        break;
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_partitioner_is_bit_identical_on_the_pipelined_stream() {
    let path = write_test_pack("partition.clugpz", 1_500, 42);
    let k = 8;
    for (name, mut p) in roster() {
        let mut serial = PackedEdgeStream::open(&path).unwrap();
        let reference = run(p.as_mut(), &mut serial, k);
        for threads in [1usize, 2, 4] {
            for prefetch in [1usize, 4] {
                let mut piped = PipelinedPackStream::open(&path, opts(threads, prefetch)).unwrap();
                assert_eq!(
                    run(p.as_mut(), &mut piped, k),
                    reference,
                    "{name}: pipelined (threads={threads}, prefetch={prefetch}) \
                     diverged from serial"
                );
            }
        }
        // Source chunk granularity on top of the pipeline changes nothing.
        for limit in [1usize, 7, 4096] {
            let mut limited =
                ChunkLimited::new(PipelinedPackStream::open(&path, opts(2, 4)).unwrap(), limit);
            assert_eq!(
                run(p.as_mut(), &mut limited, k),
                reference,
                "{name}: chunk limit {limit} over the pipeline diverged"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pipelined_shards_cover_the_pack_identically_to_serial_shards() {
    let path = write_test_pack("shards.clugpz", 1_000, 43);
    let reader = ShardedPackReader::open(&path).unwrap();
    for want in [2usize, 3] {
        for spec in reader.shards(want) {
            let mut serial = reader.open_shard(&spec).unwrap();
            let mut piped = reader.open_pipelined_shard(&spec, opts(2, 2)).unwrap();
            assert_eq!(
                collect_stream(&mut serial),
                collect_stream(&mut piped),
                "shard {spec:?} diverged"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Corrupts the payload of the middle block and returns (pack path, edges
/// of the blocks before it). Metadata stays valid, so the pack opens fine
/// and dies mid-stream — on a decode *worker* in pipelined mode.
fn corrupt_middle_block(name: &str) -> (PathBuf, usize) {
    let path = write_test_pack(name, 900, 44);
    let reader = ShardedPackReader::open(&path).unwrap();
    let entries = reader.index().entries().to_vec();
    assert!(entries.len() >= 3, "need a multi-block pack");
    let mid = &entries[entries.len() / 2];
    let mut data = std::fs::read(&path).unwrap();
    data[mid.byte_offset as usize] ^= 0xFF;
    assert_ne!(
        crc32(&data[mid.byte_offset as usize..][..mid.byte_len as usize]),
        mid.crc,
        "corruption must be CRC-visible"
    );
    std::fs::write(&path, &data).unwrap();
    (path, mid.edge_offset as usize)
}

#[test]
fn worker_thread_crc_error_parks_exactly_like_the_serial_reader() {
    let (path, good_prefix) = corrupt_middle_block("corrupt.clugpz");
    for threads in [1usize, 4] {
        let mut s = PipelinedPackStream::open(&path, opts(threads, 4)).unwrap();
        // Ordered prefix up to the damaged block, then clean early end.
        let delivered = collect_stream(&mut s);
        assert_eq!(
            delivered.len(),
            good_prefix,
            "threads={threads}: prefix must end exactly at the damaged block"
        );
        let err = s.reset().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The error is cleared by reporting; a restream repeats the prefix.
        assert_eq!(collect_stream(&mut s).len(), good_prefix);
        assert!(s.reset().is_err(), "second pass parks the same error");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn multi_pass_partitioner_surfaces_a_worker_thread_error() {
    // CLUGP resets its stream between passes, so a parked worker-thread
    // error turns into a partition error instead of a silent truncation.
    let (path, _) = corrupt_middle_block("corrupt_clugp.clugpz");
    let mut s = PipelinedPackStream::open(&path, opts(4, 4)).unwrap();
    let err = Clugp::default().partition(&mut s, 8).unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn no_partitioner_returns_a_short_ok_from_a_damaged_pack() {
    // A one-pass partitioner never resets after its only drain, a multi-pass
    // one never after its last: each must still surface the error the reader
    // parked, not hand back the assignments of the good prefix.
    let (path, good_prefix) = corrupt_middle_block("corrupt_roster.clugpz");
    assert!(good_prefix > 0, "a short Ok must have something to return");
    let mut serial = PackedEdgeStream::open(&path).unwrap();
    let mut pipelined = PipelinedPackStream::open(&path, opts(4, 4)).unwrap();
    for (name, mut p) in roster() {
        let readers: [(&str, &mut dyn RestreamableStream); 2] =
            [("serial", &mut serial), ("pipelined", &mut pipelined)];
        for (reader, stream) in readers {
            match p.partition(stream, 8) {
                Ok(run) => panic!(
                    "{name} over the {reader} reader: Ok with {} assignments",
                    run.partitioning.assignments.len()
                ),
                Err(err) => assert!(err.to_string().contains("checksum"), "{name}: {err}"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
