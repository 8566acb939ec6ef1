//! Hostile `CLUGPZ` packs: a corpus of damaged and forged files built from
//! one valid pack of several blocks, each sent through every pack reader.
//!
//! A case passes when it ends in a typed `GraphError` — at open, at the
//! `reset` after a drain, or in `verify_pack_report` — or in a clean pass
//! over a self-consistent pack. The three streams (serial, two block
//! ranges, decode-ahead) agree: all fail, and then the report fails too, or
//! all yield the same edges, as many as the header promises. Streams check
//! each block's CRC and decode, not the canonical order across blocks, so a
//! forged payload that decodes can stream cleanly where the report names
//! it. No case may panic, take a second, or hold more heap than a fixed
//! multiple of the file length plus a constant.
//!
//! A counting global allocator tracks the live heap of this test binary:
//! each `tests/*.rs` is a crate of its own, and this file holds one test,
//! so no other test allocates beside it.

use clugp_graph::error::GraphError;
use clugp_graph::pack::{
    crc32, verify_pack_report, write_pack, DecodeOptions, PackOptions, PackedEdgeStream,
    PipelinedPackStream,
};
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;
use clugp_repro::{scratch_dir, test_web_graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, keeping the live heap in `LIVE` and its high
/// water mark in `PEAK`.
struct Tracking;

impl Tracking {
    fn grow(&self, bytes: usize) {
        let live = LIVE.fetch_add(bytes as u64, SeqCst) + bytes as u64;
        PEAK.fetch_max(live, SeqCst);
    }

    fn shrink(&self, bytes: usize) {
        LIVE.fetch_sub(bytes as u64, SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; tracking touches only two atomics.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.grow(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.grow(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.grow(new_size);
        self.shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrink(layout.size());
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

const HEADER_LEN: usize = 36;
const FOOTER_LEN: usize = 32;
const ENTRY_LEN: usize = 32;

/// Heap a case may hold beyond the readers' own file-sized buffers: the
/// decode thread's bookkeeping, error messages, the report.
const HEAP_SLACK: u64 = 256 << 10;
/// Heap per file byte a case may hold: a block decodes to at most four
/// times its payload (a record takes at least two bytes, an edge eight),
/// held by the readers and the drained copy.
const HEAP_PER_FILE_BYTE: u64 = 24;

/// The byte layout of the valid pack the corpus is made from.
struct PackLayout {
    /// `(byte_offset, byte_len)` of every block payload.
    payloads: Vec<(usize, usize)>,
    index: usize,
    footer: usize,
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn layout(pack: &[u8]) -> PackLayout {
    let footer = pack.len() - FOOTER_LEN;
    let index = u64_at(pack, footer) as usize;
    let payloads = (index..footer)
        .step_by(ENTRY_LEN)
        .map(|e| (u64_at(pack, e + 24) as usize, u32_at(pack, e + 8) as usize))
        .collect();
    PackLayout {
        payloads,
        index,
        footer,
    }
}

/// Recomputes the CRC of every block payload in its index entry, then the
/// index, footer and header CRCs, so that only the structure and the
/// content can give a forgery away.
fn reseal(pack: &mut [u8]) {
    let footer = pack.len() - FOOTER_LEN;
    let index = u64_at(pack, footer) as usize;
    for e in (index..footer).step_by(ENTRY_LEN) {
        let (at, len) = (u64_at(pack, e + 24) as usize, u32_at(pack, e + 8) as usize);
        if at.checked_add(len).is_some_and(|end| end <= index) {
            let crc = crc32(&pack[at..at + len]);
            pack[e + 12..e + 16].copy_from_slice(&crc.to_le_bytes());
        }
    }
    let crc = crc32(&pack[index..footer]);
    pack[footer + 16..footer + 20].copy_from_slice(&crc.to_le_bytes());
    let crc = crc32(&pack[footer..footer + 20]);
    pack[footer + 20..footer + 24].copy_from_slice(&crc.to_le_bytes());
    let crc = crc32(&pack[..32]);
    pack[32..36].copy_from_slice(&crc.to_le_bytes());
}

/// Every case: a name and the bytes of the file.
fn corpus(pack: &[u8]) -> Vec<(String, Vec<u8>)> {
    let at = layout(pack);
    let mut cases = Vec::new();
    // Every header, index and footer byte flipped, one at a time.
    let metadata = (0..HEADER_LEN).chain(at.index..pack.len());
    for i in metadata {
        let mut b = pack.to_vec();
        b[i] ^= 0xFF;
        cases.push((format!("byte {i} flipped"), b));
    }
    // Truncation at every field boundary, and inside the first and the
    // last payload.
    let mut cuts = vec![0, 8, 16, 24, 28, 32, HEADER_LEN];
    for &(off, len) in &at.payloads {
        cuts.push(off + len);
    }
    let (first, last) = (at.payloads[0], *at.payloads.last().unwrap());
    cuts.extend([first.0 + first.1 / 2, last.0 + last.1 / 2]);
    for e in (at.index..at.footer).step_by(ENTRY_LEN) {
        cuts.extend([e, e + 4, e + 8, e + 12, e + 16, e + 24]);
    }
    cuts.extend([8, 16, 20, 24].map(|f| at.footer + f));
    cuts.push(pack.len() - 1);
    for cut in cuts {
        cases.push((format!("cut at {cut}"), pack[..cut].to_vec()));
    }
    // A payload replaced by other bytes of its length under a valid CRC.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut noise = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    };
    for (block, &(off, len)) in at.payloads.iter().enumerate() {
        let other = at.payloads[(block + 1) % at.payloads.len()];
        let mut shifted = pack[other.0..other.0 + other.1].to_vec();
        shifted.resize(len, 0);
        for (what, fill) in [
            ("zeros", vec![0u8; len]),
            ("0xFF", vec![0xFF; len]),
            ("noise", noise(len)),
            ("the next block's bytes", shifted),
        ] {
            let mut b = pack.to_vec();
            b[off..off + len].copy_from_slice(&fill);
            reseal(&mut b);
            cases.push((format!("block {block} replaced by {what}"), b));
        }
        // The last record's last byte one higher: a payload that decodes.
        let mut b = pack.to_vec();
        if b[off + len - 1] < 0x7F {
            b[off + len - 1] += 1;
            reseal(&mut b);
            cases.push((format!("block {block} ends one dst higher"), b));
        }
    }
    // Two index entries swapped.
    let entries = at.payloads.len();
    for (i, j) in [(0, 1), (1, entries - 1), (0, entries - 1)] {
        let mut b = pack.to_vec();
        let (ei, ej) = (at.index + i * ENTRY_LEN, at.index + j * ENTRY_LEN);
        let entry_i = b[ei..ei + ENTRY_LEN].to_vec();
        b.copy_within(ej..ej + ENTRY_LEN, ei);
        b[ej..ej + ENTRY_LEN].copy_from_slice(&entry_i);
        reseal(&mut b);
        cases.push((format!("entries {i} and {j} swapped"), b));
    }
    // Inflated counts.
    let inflate = |b: &mut Vec<u8>, at: usize, width: usize, to: u64| {
        b[at..at + width].copy_from_slice(&to.to_le_bytes()[..width]);
    };
    for (name, field, width, to) in [
        ("header num_edges + 1", 16, 8, u64_at(pack, 16) + 1),
        ("header num_edges = u64::MAX", 16, 8, u64::MAX),
        (
            "footer num_blocks + 1",
            at.footer + 8,
            8,
            entries as u64 + 1,
        ),
        ("footer num_blocks = 2^59", at.footer + 8, 8, 1 << 59),
    ] {
        let mut b = pack.to_vec();
        inflate(&mut b, field, width, to);
        reseal(&mut b);
        cases.push((name.to_string(), b));
    }
    for block in [0, entries - 1] {
        let e = at.index + block * ENTRY_LEN;
        for (name, field, to) in [
            ("edge_count + 1", e + 4, u64::from(u32_at(pack, e + 4)) + 1),
            ("edge_count = u32::MAX", e + 4, u64::from(u32::MAX)),
            ("byte_len + 1", e + 8, u64::from(u32_at(pack, e + 8)) + 1),
            ("byte_len = u32::MAX", e + 8, u64::from(u32::MAX)),
        ] {
            let mut b = pack.to_vec();
            inflate(&mut b, field, 4, to);
            reseal(&mut b);
            cases.push((format!("entry {block} {name}"), b));
        }
        // The header and the entry both inflated, as a consistent forger
        // would: the edge totals agree again.
        let count = u64::from(u32_at(pack, e + 4));
        for to in [count + 1, u64::from(u32::MAX)] {
            let mut b = pack.to_vec();
            inflate(&mut b, e + 4, 4, to);
            inflate(&mut b, 16, 8, u64_at(pack, 16) - count + to);
            reseal(&mut b);
            cases.push((format!("entry {block} and header edge counts to {to}"), b));
        }
    }
    cases
}

/// How one reader ended a case: the edges of a clean pass, or the typed
/// error it stopped on.
type Outcome = Result<Vec<Edge>, GraphError>;

/// Drains `stream`, then resets it: a parked read error surfaces there.
fn drain(mut stream: impl RestreamableStream) -> Outcome {
    let mut edges = Vec::new();
    loop {
        match stream.next_chunk(4096) {
            [] => break,
            chunk => edges.extend_from_slice(chunk),
        }
    }
    stream.reset().map(|()| edges)
}

/// The outcomes of the three streams over the file at `path`, then the
/// report's: no edge when it is clean.
fn read_every_way(path: &Path) -> Vec<(&'static str, Outcome)> {
    let head = PackedEdgeStream::open_blocks(path, 0..1).and_then(drain);
    let tail = PackedEdgeStream::open_blocks(path, 1..usize::MAX).and_then(drain);
    let split = head.and_then(|mut edges| {
        edges.extend(tail?);
        Ok(edges)
    });
    let report = verify_pack_report(path).and_then(|report| {
        if report.is_ok() {
            Ok(Vec::new())
        } else {
            Err(GraphError::Format(format!(
                "{:?} {:?}",
                report.failures, report.global_errors
            )))
        }
    });
    vec![
        ("serial", PackedEdgeStream::open(path).and_then(drain)),
        ("two block ranges", split),
        (
            "decode-ahead",
            PipelinedPackStream::open(path, DecodeOptions::default()).and_then(drain),
        ),
        ("report", report),
    ]
}

#[test]
fn every_hostile_pack_is_a_typed_error_or_a_self_consistent_pass() {
    let dir = scratch_dir("hostile_pack");
    let (n, edges) = test_web_graph(300, 7);
    let valid = dir.join("valid.clugpz");
    let opts = PackOptions {
        block_bytes: 1024,
        ..Default::default()
    };
    let stats = write_pack(&valid, n, &edges, &opts).unwrap();
    assert!(stats.num_blocks >= 4, "{} blocks", stats.num_blocks);
    let pack = std::fs::read(&valid).unwrap();
    // The valid pack itself passes every reader cleanly.
    let clean = read_every_way(&valid);
    assert!(clean.iter().all(|(_, o)| o.is_ok()), "{clean:?}");

    let path = dir.join("hostile.clugpz");
    let (mut passes, mut errors) = (0, 0);
    for (name, bytes) in corpus(&pack) {
        std::fs::write(&path, &bytes).unwrap();
        let len = bytes.len() as u64;
        drop(bytes);
        let base = LIVE.load(SeqCst);
        PEAK.store(base, SeqCst);
        let start = Instant::now();
        let outcomes = read_every_way(&path);
        let (took, peak) = (start.elapsed(), PEAK.load(SeqCst) - base);
        assert!(took < Duration::from_secs(1), "{name}: took {took:?}");
        assert!(
            peak <= HEAP_PER_FILE_BYTE * len + HEAP_SLACK,
            "{name}: {peak} bytes of heap over a {len}-byte file"
        );
        let (streams, report) = outcomes.split_at(3);
        let report = &report[0].1;
        if streams.iter().all(|(_, o)| o.is_err()) {
            assert!(
                report.is_err(),
                "{name}: the streams failed, the report is clean"
            );
            errors += 1;
            continue;
        }
        // A stream read it cleanly: then every stream must, and agree.
        let promised = PackedEdgeStream::open(&path).unwrap().header().num_edges;
        let serial = streams[0].1.as_ref().ok();
        for (reader, outcome) in streams {
            match outcome {
                Ok(got) => assert_eq!(got.len() as u64, promised, "{name}: {reader}"),
                Err(e) => panic!("{name}: {reader} failed ({e}) where another passed"),
            }
            assert_eq!(outcome.as_ref().ok(), serial, "{name}: {reader}");
        }
        // Content that decodes under valid CRCs but breaks the canonical
        // order across a block boundary streams; verification names it.
        match report {
            Ok(_) => passes += 1,
            Err(_) => errors += 1,
        }
    }
    // Both endings occur: most cases fail, a payload that decodes passes.
    assert!(errors > 0 && passes > 0, "{errors} errors, {passes} passes");
    std::fs::remove_dir_all(&dir).ok();
}
