//! Pipelined-vs-serial decode equivalence: decode-ahead
//! (`PipelinedPackStream`) must be *bit-identical* to the serial pack
//! reader from every consumer's point of view — same edges, same chunk
//! boundaries, same partitions — at every ring depth and source chunk
//! granularity, and across a reset or a drop in the middle of a pass.
//! Concurrency is allowed to change wall-clock time and nothing else.
//!
//! Also pins the failure contract across threads: a CRC mismatch hit by the
//! decode thread parks on the consumer exactly like a serial mid-stream
//! error — ordered prefix delivered, early end, error reported by the next
//! `reset`.

use clugp::baselines::{Dbh, Greedy, Hashing, Hdrf, Mint, MintConfig};
use clugp::clugp::{Clugp, ClugpConfig, ClusterAssignMode};
use clugp::partitioner::Partitioner;
use clugp_graph::pack::{
    crc32, write_pack, DecodeOptions, PackOptions, PackedEdgeStream, PipelinedPackStream,
    ShardedPackReader,
};
use clugp_graph::stream::{collect_stream, ChunkLimited, EdgeStream, RestreamableStream};
use clugp_repro::test_web_graph;
use std::path::PathBuf;

/// CLUGP (+ablations) and every vertex-cut baseline.
fn roster() -> Vec<(&'static str, Box<dyn Partitioner>)> {
    vec![
        ("Hashing", Box::new(Hashing::default())),
        ("DBH", Box::new(Dbh::default())),
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

/// Decode-ahead `prefetch` blocks deep.
fn opts(prefetch: usize) -> DecodeOptions {
    DecodeOptions {
        threads: 1,
        prefetch,
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

/// Pulls both streams to the end at `cap`, asserting every chunk equal.
fn assert_same_chunks(
    serial: &mut dyn EdgeStream,
    piped: &mut dyn EdgeStream,
    cap: usize,
    what: &str,
) {
    loop {
        let (a, b) = (serial.next_chunk(cap), piped.next_chunk(cap));
        assert_eq!(a, b, "chunk diverged: {what} cap={cap}");
        if a.is_empty() {
            break;
        }
    }
}

#[test]
fn edge_and_chunk_sequences_match_serial_at_every_ring_depth() {
    let path = write_test_pack("chunks.clugpz", 1_200, 41);
    let mut serial = PackedEdgeStream::open(&path).unwrap();
    let want = collect_stream(&mut serial);
    assert!(!want.is_empty());
    for prefetch in [1usize, 2, 4] {
        // Whole-stream equality, twice (reset must restart the decode).
        let mut s = PipelinedPackStream::open(&path, opts(prefetch)).unwrap();
        assert_eq!(collect_stream(&mut s), want, "prefetch={prefetch}");
        s.reset().unwrap();
        assert_eq!(collect_stream(&mut s), want, "second pass");

        // Chunk-for-chunk equality against the serial reader at odd caps:
        // boundaries are part of the bit-identity contract.
        for cap in [1usize, 7, 333] {
            let mut serial = PackedEdgeStream::open(&path).unwrap();
            let mut piped = PipelinedPackStream::open(&path, opts(prefetch)).unwrap();
            assert_same_chunks(
                &mut serial,
                &mut piped,
                cap,
                &format!("prefetch={prefetch}"),
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_reset_mid_pass_restarts_at_the_first_block() {
    // What every partitioner that fails mid-pass does to its stream: the
    // decode thread is abandoned somewhere in the ring and must start over.
    let path = write_test_pack("reset.clugpz", 1_200, 45);
    let blocks = ShardedPackReader::open(&path).unwrap().index().num_blocks();
    assert!(blocks >= 8, "need a many-block pack, got {blocks}");
    for prefetch in [1usize, 4] {
        for taken in [1, blocks / 2] {
            let mut piped = PipelinedPackStream::open(&path, opts(prefetch)).unwrap();
            // A chunk never spans two blocks: an unbounded pull is one block.
            for _ in 0..taken {
                assert!(!piped.next_chunk(usize::MAX).is_empty());
            }
            piped.reset().unwrap();
            let what = format!("prefetch={prefetch}, reset after {taken} of {blocks} blocks");
            for cap in [7usize, usize::MAX] {
                let mut serial = PackedEdgeStream::open(&path).unwrap();
                assert_same_chunks(&mut serial, &mut piped, cap, &what);
                piped.reset().unwrap();
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// How many of this process's file descriptors are open on `path`.
#[cfg(target_os = "linux")]
fn open_handles(path: &std::path::Path) -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target == path)
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_drop_mid_pass_joins_the_decode_thread() {
    // The decode thread owns the stream's one file handle: once `drop`
    // returns it must be closed, so the thread has exited, not been left
    // detached — whether it was decoding, spinning or parked on a full ring.
    let path = write_test_pack("drop.clugpz", 1_200, 46);
    let path = path.canonicalize().unwrap();
    for prefetch in [1usize, 4] {
        for taken in [0usize, 1, 3] {
            let mut piped = PipelinedPackStream::open(&path, opts(prefetch)).unwrap();
            for _ in 0..taken {
                assert!(!piped.next_chunk(usize::MAX).is_empty());
            }
            assert_eq!(open_handles(&path), 1, "the decode thread reads the pack");
            drop(piped);
            assert_eq!(
                open_handles(&path),
                0,
                "prefetch={prefetch}: dropped after {taken} blocks with the pack still open"
            );
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
        for prefetch in [1usize, 2, 4] {
            let mut piped = PipelinedPackStream::open(&path, opts(prefetch)).unwrap();
            assert_eq!(
                run(p.as_mut(), &mut piped, k),
                reference,
                "{name}: pipelined (prefetch={prefetch}) diverged from serial"
            );
        }
        // Source chunk granularity on top of the pipeline changes nothing.
        for limit in [1usize, 7, 4096] {
            let mut limited =
                ChunkLimited::new(PipelinedPackStream::open(&path, opts(4)).unwrap(), limit);
            assert_eq!(
                run(p.as_mut(), &mut limited, k),
                reference,
                "{name}: chunk limit {limit} over the pipeline diverged"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Corrupts the payload of the middle block and returns (pack path, edges
/// of the blocks before it). Metadata stays valid, so the pack opens fine
/// and dies mid-stream — on the decode thread in pipelined mode.
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
    for prefetch in [1usize, 4] {
        let mut s = PipelinedPackStream::open(&path, opts(prefetch)).unwrap();
        // Ordered prefix up to the damaged block, then clean early end.
        let delivered = collect_stream(&mut s);
        assert_eq!(
            delivered.len(),
            good_prefix,
            "prefetch={prefetch}: prefix must end exactly at the damaged block"
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
    let mut s = PipelinedPackStream::open(&path, opts(4)).unwrap();
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
    let mut pipelined = PipelinedPackStream::open(&path, opts(4)).unwrap();
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
