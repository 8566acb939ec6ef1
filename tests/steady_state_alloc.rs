//! Steady-state decode allocates nothing: once a pack stream's first pass
//! has sized its buffers, every later pass — reset, drain — allocates no
//! byte on any thread, whether the stream decodes in the consumer or ahead
//! of it on its own thread.
//!
//! A counting global allocator sees every allocation of this test binary:
//! each `tests/*.rs` is a crate of its own, and this file holds one test,
//! so no other test allocates beside it.

use clugp_graph::pack::{
    write_pack, DecodeOptions, PackOptions, PackedEdgeStream, PipelinedPackStream,
};
use clugp_graph::stream::{EdgeStream, RestreamableStream};
use clugp_repro::test_web_graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, adding the bytes of every allocation to
/// `ALLOCATED` while `COUNTING` is on.
struct Counting;

impl Counting {
    fn count(&self, bytes: usize) {
        if COUNTING.load(SeqCst) {
            ALLOCATED.fetch_add(bytes as u64, SeqCst);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Pulls `stream` to its end and returns how many edges went by.
fn drain(stream: &mut dyn EdgeStream) -> usize {
    let mut edges = 0;
    loop {
        match stream.next_chunk(4096).len() {
            0 => return edges,
            n => edges += n,
        }
    }
}

/// Bytes allocated, on any thread, by the second and third passes.
fn steady_state_bytes(stream: &mut dyn RestreamableStream, edges: usize) -> u64 {
    assert_eq!(drain(stream), edges, "first pass");
    stream.reset().expect("first pass parked an error");
    ALLOCATED.store(0, SeqCst);
    COUNTING.store(true, SeqCst);
    for _ in 0..2 {
        let drained = drain(stream);
        let reset = stream.reset();
        if drained != edges || reset.is_err() {
            COUNTING.store(false, SeqCst);
            panic!("a steady-state pass drained {drained} of {edges} edges: {reset:?}");
        }
    }
    COUNTING.store(false, SeqCst);
    ALLOCATED.load(SeqCst)
}

#[test]
fn passes_after_the_first_allocate_nothing() {
    let (n, edges) = test_web_graph(2_000, 48);
    let dir = std::env::temp_dir().join("clugp_steady_state_alloc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("steady.clugpz");
    let small_blocks = PackOptions {
        block_bytes: 1024,
        ..Default::default()
    };
    write_pack(&path, n, &edges, &small_blocks).unwrap();

    let mut serial = PackedEdgeStream::open(&path).unwrap();
    assert_eq!(steady_state_bytes(&mut serial, edges.len()), 0, "serial");
    for prefetch in [1, 4] {
        let ahead = DecodeOptions {
            threads: 1,
            prefetch,
            ..Default::default()
        };
        let mut piped = PipelinedPackStream::open(&path, ahead).unwrap();
        assert_eq!(
            steady_state_bytes(&mut piped, edges.len()),
            0,
            "decode-ahead, prefetch={prefetch}"
        );
    }
    std::fs::remove_file(&path).ok();
}
