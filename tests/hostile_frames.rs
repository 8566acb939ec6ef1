//! Hostile wire frames: a corpus of damaged and forged frames built from one
//! valid frame of each of the protocol's 13 verbs, each sent through
//! `Msg::decode`.
//!
//! Each frame is cut at every byte, has each bit of its first 64 bytes
//! flipped in turn, has each count field set to `u64::MAX` and to one more
//! than the bytes behind it, and gets one trailing byte. A case passes when
//! it decodes to a typed error, or to a message that encodes back to the
//! same bytes: the decoder accepts only what the encoder writes. No case may
//! panic or hold more heap than a fixed multiple of the frame's length plus
//! a constant, and the whole corpus decodes in under a second.
//!
//! A counting global allocator tracks the live heap of this test binary:
//! each `tests/*.rs` is a crate of its own, and this file holds one test,
//! so no other test allocates beside it.

use clugp::ampc::proto::{
    AlgoSpec, InputSpec, Msg, PairsPayload, PartIds, Stage, Token, WorkerSetup, VERBS,
};
use clugp::ampc::AmpcMode;
use clugp::clugp::MigrationPolicy;
use clugp::error::PartitionError;
use clugp_graph::types::Edge;
use clugp_obs::{Event, EventKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// Heap a case may hold beyond what its frame's length pays for: the error
/// message, a decoded message's small vectors.
const HEAP_SLACK: u64 = 64 << 10;
/// Heap per frame byte a case may hold: a one-byte varint widens to an
/// eight-byte word, and a trace event of five bytes to a 56-byte `Event` in
/// a vector that grows by doubling.
const HEAP_PER_FRAME_BYTE: u64 = 32;

/// A count field of a frame: where it starts, whether it is a LEB128
/// varint (the compact verbs) or a fixed `u64`, and the count it holds.
#[derive(Clone, Copy)]
struct Count {
    at: usize,
    varint: bool,
    holds: u64,
}

fn u64_count(at: usize, holds: u64) -> Count {
    Count {
        at,
        varint: false,
        holds,
    }
}

fn varint_count(at: usize, holds: u64) -> Count {
    Count {
        at,
        varint: true,
        holds,
    }
}

/// The count at `at` and the offset behind it.
fn read_count(frame: &[u8], Count { at, varint, .. }: Count) -> (u64, usize) {
    if !varint {
        let word = frame[at..at + 8].try_into().unwrap();
        return (u64::from_le_bytes(word), at + 8);
    }
    let len = frame[at..].iter().position(|&b| b < 0x80).unwrap() + 1;
    let value = frame[at..at + len]
        .iter()
        .rev()
        .fold(0, |v, &b| v << 7 | u64::from(b & 0x7F));
    (value, at + len)
}

/// Bytes of a `Token` on the wire: the loads' count and words, the cursor,
/// five counters and the retired carry slot's empty count.
fn token_len(loads: usize) -> usize {
    8 + 8 * loads + 4 + 5 * 8 + 8
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// One valid frame of every verb, in tag order, with its count fields.
fn frames() -> Vec<(Msg, Vec<Count>)> {
    let token = Token {
        loads: vec![3, 1, 4],
        cursor: 1,
        next_raw: 5,
        splits: 2,
        migrations: 6,
        reroutes: 5,
        table_len: 9,
    };
    let setup = WorkerSetup {
        worker: 1,
        workers: 2,
        k: 4,
        heartbeat_ms: 250,
        algo: AlgoSpec {
            splitting: true,
            migration: MigrationPolicy::Anchored,
            max_vertices: 64,
        },
        input: InputSpec::Inline {
            edges: vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(1, 2)],
        },
        trace: false,
    };
    let mut ids = PartIds::for_k(4);
    [0, 3, 1, 2, 2].into_iter().for_each(|p| ids.push(p));
    let done_token = Token {
        loads: vec![2, 1, 2, 0],
        ..Default::default()
    };
    // Token counts, then the id count behind the width byte, then the
    // pairs' two counts.
    let done_ids = 1 + token_len(4) + 1;
    let done_pairs = done_ids + 8 + 5 + 1;
    let event = |name: &str, ts_us| Event {
        name: name.into(),
        kind: EventKind::Span,
        ts_us,
        dur_us: 3,
        arg: 7,
    };
    // now_us and dropped, then the names' count, each name's length, and
    // the events' count.
    let names = ["chunk", "stage:pass1"];
    let mut trace_counts = vec![varint_count(3, 2)];
    let mut at = 4;
    for name in names {
        trace_counts.push(u64_count(at, name.len() as u64));
        at += 8 + name.len();
    }
    trace_counts.push(varint_count(at, 3));
    vec![
        (Msg::Hello { worker: 3 }, vec![]),
        (Msg::Configure(Box::new(setup)), vec![u64_count(28, 3)]),
        (Msg::ConfigureOk, vec![]),
        (
            Msg::RunStage {
                stage: Stage::ClugpTransform { lmax: 9 },
                token,
                mode: AmpcMode::Sequenced,
            },
            vec![u64_count(10, 3), u64_count(10 + token_len(3) - 8, 0)],
        ),
        (
            Msg::StageDone {
                token: done_token,
                assignments: ids,
                pairs: Some(PairsPayload {
                    intra: vec![(0, 3), (2, 1)],
                    agg: vec![(1 << 32 | 2, 4)],
                }),
            },
            vec![
                u64_count(1, 4),
                u64_count(1 + token_len(4) - 8, 0),
                u64_count(done_ids, 5),
                u64_count(done_pairs, 2),
                u64_count(done_pairs + 8 + 2 * 16, 1),
            ],
        ),
        (Msg::Shutdown, vec![]),
        (
            Msg::Err {
                msg: "worker 1: boom".into(),
            },
            vec![u64_count(1, 14)],
        ),
        (Msg::Heartbeat, vec![]),
        (Msg::ResetTables, vec![]),
        (Msg::ResetOk, vec![]),
        // Every key delta, row word and volume below 64: one byte each.
        (
            Msg::Pass1Frontier {
                keys: vec![0, 3, 4],
                rows: vec![1, 2, 0, 0, 1, 1, 2, 4, 0],
                vol: vec![6, 4],
            },
            vec![varint_count(1, 3), varint_count(5, 9), varint_count(15, 2)],
        ),
        (
            Msg::TableCast {
                table: 0,
                keys: vec![0, 1, 2],
                rows: vec![1, 2, 0, 2, 2, 0, 1, 3, 1],
            },
            vec![varint_count(2, 3), varint_count(6, 9)],
        ),
        (
            Msg::TraceEvents {
                now_us: 5,
                dropped: 0,
                events: vec![
                    event("chunk", 10),
                    event("stage:pass1", 11),
                    event("chunk", 12),
                ],
            },
            trace_counts,
        ),
    ]
}

/// Every mutation of `frame`: a name and the bytes.
fn corpus(frame: &[u8], counts: &[Count]) -> Vec<(String, Vec<u8>)> {
    let mut cases = Vec::new();
    for cut in 0..frame.len() {
        cases.push((format!("cut at {cut}"), frame[..cut].to_vec()));
    }
    for i in 0..frame.len().min(64) {
        for bit in 0..8 {
            let mut b = frame.to_vec();
            b[i] ^= 1 << bit;
            cases.push((format!("byte {i} bit {bit} flipped"), b));
        }
    }
    for &count in counts {
        let (at, end) = (count.at, read_count(frame, count).1);
        let behind = (frame.len() - end) as u64;
        for (what, to) in [("u64::MAX", u64::MAX), ("the bytes behind + 1", behind + 1)] {
            let field = if count.varint {
                varint(to)
            } else {
                to.to_le_bytes().to_vec()
            };
            let mut b = frame[..at].to_vec();
            b.extend_from_slice(&field);
            b.extend_from_slice(&frame[end..]);
            cases.push((format!("count at {at} set to {what}"), b));
        }
    }
    let mut b = frame.to_vec();
    b.push(0);
    cases.push(("one trailing byte".into(), b));
    cases
}

/// Frames an encoder writes only when handed what no caller hands it: a
/// trace frame whose one long name is named by every event. Each decoded
/// event holds its own copy of its name, so such a frame would decode to
/// heap quadratic in its length.
fn forged() -> Vec<(String, Vec<u8>)> {
    let event = |name: &str| Event {
        name: name.into(),
        kind: EventKind::Instant,
        ts_us: 1,
        dur_us: 0,
        arg: 0,
    };
    [65, 1_000]
        .into_iter()
        .map(|len| {
            let name = "x".repeat(len);
            let events = (0..2_000).map(|_| event(&name)).collect();
            let msg = Msg::TraceEvents {
                now_us: 1,
                dropped: 0,
                events,
            };
            (format!("TraceEvents of one {len}-byte name"), msg.encode())
        })
        .collect()
}

/// Decodes `bytes` as the case `case`: a typed error (`true`) or a message
/// that encodes back to the same bytes (`false`), never a panic, and never
/// more heap than the frame's length pays for. Returns that and the heap.
fn decode_case(case: &str, bytes: Vec<u8>) -> (bool, u64) {
    let len = bytes.len() as u64;
    let copy = bytes.clone();
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let outcome = catch_unwind(AssertUnwindSafe(|| Msg::decode(copy).map(|m| m.encode())));
    let peak = PEAK.load(SeqCst) - base;
    let outcome = outcome.unwrap_or_else(|_| panic!("{case}: decode panicked"));
    assert!(
        peak <= HEAP_PER_FRAME_BYTE * len + HEAP_SLACK,
        "{case}: {peak} bytes of heap over a {len}-byte frame"
    );
    match outcome {
        Err(PartitionError::InvalidParam(_)) => (true, peak),
        Err(other) => panic!("{case}: untyped error {other}"),
        Ok(again) => {
            assert_eq!(again, bytes, "{case}: decodes, and encodes otherwise");
            (false, peak)
        }
    }
}

#[test]
fn every_hostile_frame_is_a_typed_error_or_encodes_back_to_itself() {
    let frames = frames();
    assert_eq!(frames.len(), VERBS.len());
    let start = Instant::now();
    let (mut errors, mut decoded, mut largest) = (0, 0, (0, 0));
    for (tag, (msg, counts)) in frames.iter().enumerate() {
        let frame = msg.encode();
        assert_eq!(frame[0] as usize, tag, "{}", msg.kind());
        assert_eq!(&Msg::decode(frame.clone()).unwrap(), msg, "{tag}");
        for &count in counts {
            let (holds, _) = read_count(&frame, count);
            assert_eq!(holds, count.holds, "{}: count at {}", msg.kind(), count.at);
        }
        for (name, bytes) in corpus(&frame, counts) {
            let len = bytes.len() as u64;
            let (errored, peak) = decode_case(&format!("{} {name}", msg.kind()), bytes);
            largest = largest.max((peak, len));
            (errors, decoded) = (
                errors + usize::from(errored),
                decoded + usize::from(!errored),
            );
        }
    }
    for (case, bytes) in forged() {
        assert!(decode_case(&case, bytes).0, "{case}: decoded");
    }
    let took = start.elapsed();
    let (peak, len) = largest;
    println!(
        "{errors} typed errors, {decoded} frames that encode back to themselves, \
         largest heap {peak} B (a {len}-byte frame), in {took:?}"
    );
    assert!(took < Duration::from_secs(1), "the corpus took {took:?}");
    // Both endings occur: a flipped tag bit can name another verb that
    // decodes from the same bytes (Shutdown's 5 becomes Heartbeat's 7).
    assert!(
        errors > 0 && decoded > 0,
        "{errors} errors, {decoded} decoded"
    );
}
