//! Pipelined-vs-serial decode equivalence: decode-ahead
//! (`PipelinedPackStream`) must be *bit-identical* to the serial pack
//! reader from every consumer's point of view — same edges, same chunk
//! boundaries, same partitions — at every ring depth and source chunk
//! granularity, and across a reset or a drop in the middle of a pass.
//! Concurrency is allowed to change wall-clock time and nothing else.
//!
//! Also pins the failure contract across threads: a CRC mismatch hit by the
//! decode thread or by the consumer parks on the consumer exactly like a
//! serial mid-stream error — ordered prefix delivered, early end, error
//! reported by the next `reset`.

use clugp::ampc::coordinator::DistAlgo;
use clugp_graph::pack::{crc32, PackedEdgeStream};
use clugp_graph::stream::{collect_stream, EdgeStream, RestreamableStream};
use clugp_repro::{roster, scratch_dir, web_fixture, Case, Input, Mode};
use std::path::PathBuf;

/// Packs of 1 KiB blocks: small blocks keep block boundaries, and therefore
/// pipeline hand-offs, in play.
fn pack(prefetch: usize) -> Input {
    Input::Pack {
        block_bytes: 1024,
        prefetch,
    }
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
    let path = web_fixture(&scratch_dir("pipelined_chunks"), pack(0), 1_200, 41);
    let mut serial = pack(0).open(&path, 0, &[]);
    let want = collect_stream(serial.as_mut());
    assert!(!want.is_empty());
    for prefetch in [1usize, 2, 4] {
        // Whole-stream equality, twice (reset must restart the decode).
        let mut s = pack(prefetch).open(&path, 0, &[]);
        assert_eq!(collect_stream(s.as_mut()), want, "prefetch={prefetch}");
        s.reset().unwrap();
        assert_eq!(collect_stream(s.as_mut()), want, "second pass");

        // Chunk-for-chunk equality against the serial reader at odd caps:
        // boundaries are part of the bit-identity contract.
        for cap in [1usize, 7, 333] {
            let mut serial = pack(0).open(&path, 0, &[]);
            let mut piped = pack(prefetch).open(&path, 0, &[]);
            assert_same_chunks(
                serial.as_mut(),
                piped.as_mut(),
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
    let path = web_fixture(&scratch_dir("pipelined_reset"), pack(0), 1_200, 45);
    let blocks = PackedEdgeStream::open(&path).unwrap().index().num_blocks();
    assert!(blocks >= 8, "need a many-block pack, got {blocks}");
    for prefetch in [1usize, 4] {
        for taken in [1, blocks / 2] {
            let mut piped = pack(prefetch).open(&path, 0, &[]);
            // A chunk never spans two blocks: an unbounded pull is one block.
            for _ in 0..taken {
                assert!(!piped.next_chunk(usize::MAX).is_empty());
            }
            piped.reset().unwrap();
            let what = format!("prefetch={prefetch}, reset after {taken} of {blocks} blocks");
            for cap in [7usize, usize::MAX] {
                let mut serial = pack(0).open(&path, 0, &[]);
                assert_same_chunks(serial.as_mut(), piped.as_mut(), cap, &what);
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
    let path = web_fixture(&scratch_dir("pipelined_drop"), pack(0), 1_200, 46);
    let path = path.canonicalize().unwrap();
    for prefetch in [1usize, 4] {
        for taken in [0usize, 1, 3] {
            let mut piped = pack(prefetch).open(&path, 0, &[]);
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
    // At every ring depth, and with source chunk granularity on top of the
    // pipeline, a partition equals the monolith's over the pack's canonical
    // sequence, which is what the serial reader replays
    // (`chunked_equivalence::packed_input_partitions_bit_identical_to_flat_binary`).
    for (_, algo) in roster() {
        let case = |prefetch, chunk_limit| Case {
            input: pack(prefetch),
            mode: Mode::Monolith { chunk_limit },
            ..Case::new(algo.clone(), 1_500, 42)
        };
        for prefetch in [1usize, 2, 4] {
            case(prefetch, usize::MAX).check().unwrap();
        }
        for limit in [1usize, 7, 4096] {
            case(4, limit).check().unwrap();
        }
    }
}

/// Corrupts the payload of block `pick(blocks)` and returns (pack path,
/// edges of the blocks before it). Metadata stays valid, so the pack opens
/// fine and dies mid-stream — on whichever thread decodes that block.
fn corrupt_block(name: &str, pick: impl Fn(usize) -> usize) -> (PathBuf, usize) {
    let path = web_fixture(&scratch_dir(name), pack(0), 900, 44);
    let entries = PackedEdgeStream::open(&path)
        .unwrap()
        .index()
        .entries()
        .to_vec();
    assert!(entries.len() >= 3, "need a multi-block pack");
    let bad = &entries[pick(entries.len())];
    let mut data = std::fs::read(&path).unwrap();
    data[bad.byte_offset as usize] ^= 0xFF;
    assert_ne!(
        crc32(&data[bad.byte_offset as usize..][..bad.byte_len as usize]),
        bad.crc,
        "corruption must be CRC-visible"
    );
    std::fs::write(&path, &data).unwrap();
    (path, bad.edge_offset as usize)
}

fn corrupt_middle_block(name: &str) -> (PathBuf, usize) {
    corrupt_block(name, |blocks| blocks / 2)
}

#[test]
fn worker_thread_crc_error_parks_exactly_like_the_serial_reader() {
    // The consumer decodes a block itself whenever the decode thread has
    // not claimed it, so over repeated drains each side meets the damaged
    // block: wherever it is, and whoever decodes it, the error must park in
    // the same place.
    for which in ["first", "second", "middle", "last"] {
        let pick = |blocks: usize| match which {
            "first" => 0,
            "second" => 1,
            "middle" => blocks / 2,
            _ => blocks - 1,
        };
        let (path, good_prefix) = corrupt_block(&format!("pipelined_corrupt_{which}"), pick);
        for prefetch in [1usize, 4] {
            let what = format!("{which} block damaged, prefetch={prefetch}");
            let mut s = pack(prefetch).open(&path, 0, &[]);
            for drain in 0..20 {
                // Ordered prefix up to the damaged block, then clean early end.
                let delivered = collect_stream(s.as_mut());
                assert_eq!(
                    delivered.len(),
                    good_prefix,
                    "{what}, drain {drain}: prefix must end exactly at the damaged block"
                );
                // Reporting clears the error; the next drain repeats the prefix.
                let err = s.reset().unwrap_err();
                assert!(err.to_string().contains("checksum"), "{what}: {err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn multi_pass_partitioner_surfaces_a_worker_thread_error() {
    // CLUGP resets its stream between passes, so a parked worker-thread
    // error turns into a partition error instead of a silent truncation.
    let (path, _) = corrupt_middle_block("pipelined_corrupt_clugp");
    let mut s = pack(4).open(&path, 0, &[]);
    let err = DistAlgo::clugp()
        .monolith()
        .partition(s.as_mut(), 8)
        .unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn no_partitioner_returns_a_short_ok_from_a_damaged_pack() {
    // A one-pass partitioner never resets after its only drain, a multi-pass
    // one never after its last: each must still surface the error the reader
    // parked, not hand back the assignments of the good prefix.
    let (path, good_prefix) = corrupt_middle_block("pipelined_corrupt_roster");
    assert!(good_prefix > 0, "a short Ok must have something to return");
    let mut serial = pack(0).open(&path, 0, &[]);
    let mut pipelined = pack(4).open(&path, 0, &[]);
    for (name, algo) in roster() {
        let mut p = algo.monolith();
        let readers: [(&str, &mut dyn RestreamableStream); 2] = [
            ("serial", serial.as_mut()),
            ("pipelined", pipelined.as_mut()),
        ];
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
