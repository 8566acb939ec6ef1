//! What the coordinator/worker engine holds, as a ratio of peak live heap
//! and with no clock: sequenced CLUGP on 2 worker threads with barrier
//! checkpoints on disk against `Clugp::partition`, over one web pack.
//!
//! Both hold the same O(n) tables and return the same 4-byte-per-edge
//! assignment; the engine also holds a mirror of the vertex rows per worker,
//! its workers' one-byte parts and the frames in flight. While every frame
//! was copied on send and on decode, the assignment regrew by doubling and
//! the last barrier's tables stayed dumped in memory, the ratio read 2.389
//! here in ten runs; with frames moved, the assignment sized once and the
//! dump dropped once written, 1.487-1.494 in ten. The bound sits between.
//!
//! A counting global allocator tracks the live heap of this test binary,
//! every thread's: each `tests/*.rs` is a crate of its own, and this file
//! holds one test, so no other test allocates beside it.

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::{run_distributed, DistConfig, DistInput};
use clugp::clugp::Clugp;
use clugp::partitioner::Partitioner;
use clugp_graph::pack::{write_pack, PackOptions, PackedEdgeStream};
use clugp_repro::{scratch_dir, supervised, test_web_graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

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

/// The engine's peak over the monolith's may not exceed this.
const BOUND: f64 = 1.6;

/// Peak live heap, on any thread, while `run` runs, above what was live
/// when it started.
fn peak_of(run: impl FnOnce()) -> u64 {
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    run();
    PEAK.load(SeqCst) - base
}

#[test]
fn sequenced_engine_peak_heap_stays_within_a_bound_of_the_monolith() {
    let dir = scratch_dir("engine_peak_heap");
    let path = dir.join("web.clugpz");
    let (n, edges) = test_web_graph(30_000, 3);
    write_pack(&path, n, &edges, &PackOptions::default()).unwrap();
    let m = edges.len();
    drop(edges);
    let k = 32;

    let monolith = peak_of(|| {
        let mut stream = PackedEdgeStream::open(&path).unwrap();
        let run = Clugp::default().partition(&mut stream, k).unwrap();
        assert_eq!(run.partitioning.assignments.len(), m);
    });
    // The benchmark's engine settings: deadlines and retries on, so every
    // frame takes the channel's deadline path, and a barrier file per pass.
    let cfg = DistConfig {
        workers: 2,
        supervise: supervised(30_000, 2),
        checkpoint_dir: Some(dir.join("checkpoints")),
        ..Default::default()
    };
    let engine = peak_of(|| {
        let out = run_distributed(&DistAlgo::clugp(), DistInput::Pack(&path), k, &cfg).unwrap();
        assert_eq!(out.partitioning.assignments.len(), m);
    });
    let ratio = engine as f64 / monolith as f64;
    let mib = |b: u64| b as f64 / f64::from(1 << 20);
    println!(
        "{m} edges: engine {:.2} MiB, monolith {:.2} MiB, ratio {ratio:.3} (bound {BOUND})",
        mib(engine),
        mib(monolith)
    );
    assert!(
        ratio < BOUND,
        "the engine peaks at {ratio:.3}x the monolith's heap"
    );
    std::fs::remove_dir_all(&dir).ok();
}
