//! I/O and streaming integration: file-backed restreaming must be
//! indistinguishable (in results) from in-memory streaming, and the formats
//! must round-trip.

use clugp::clugp::Clugp;
use clugp::partitioner::Partitioner;
use clugp_graph::io::binary::{write_binary_graph, FileEdgeStream};
use clugp_graph::io::edge_list::{write_edge_list, TextEdgeStream};
use clugp_graph::stream::{
    collect_stream, EdgeStream, InMemoryStream, RestreamableStream, TimedStream,
};
use clugp_graph::types::Edge;
use clugp_repro::{scratch_dir, test_web_graph};

#[test]
fn file_stream_partition_equals_memory_stream_partition() {
    let (n, edges) = test_web_graph(3_000, 21);
    let path = scratch_dir("io_equal").join("g.bin");
    write_binary_graph(&path, n, &edges).unwrap();

    let mut mem = InMemoryStream::new(n, edges.clone());
    let mem_run = Clugp::default().partition(&mut mem, 16).unwrap();

    let mut file = FileEdgeStream::open(&path).unwrap();
    let file_run = Clugp::default().partition(&mut file, 16).unwrap();

    assert_eq!(
        mem_run.partitioning.assignments,
        file_run.partitioning.assignments
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_round_trip_at_scale() {
    let (n, edges) = test_web_graph(5_000, 22);
    let path = scratch_dir("io_roundtrip_bin").join("g.bin");
    write_binary_graph(&path, n, &edges).unwrap();
    let mut s = FileEdgeStream::open(&path).unwrap();
    assert_eq!(s.num_vertices_hint(), Some(n));
    assert_eq!(collect_stream(&mut s), edges);
    std::fs::remove_file(&path).ok();
}

#[test]
fn text_round_trip_preserves_multiset() {
    let (_, edges) = test_web_graph(500, 23);
    let path = scratch_dir("io_roundtrip_txt").join("g.txt");
    write_edge_list(&path, &edges).unwrap();
    let edges2 = collect_stream(&mut TextEdgeStream::open(&path).unwrap());
    assert_eq!(edges, edges2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn timed_stream_measures_file_io() {
    let (n, edges) = test_web_graph(2_000, 24);
    let path = scratch_dir("io_timed").join("g.bin");
    write_binary_graph(&path, n, &edges).unwrap();
    let file = FileEdgeStream::open(&path).unwrap();
    let mut timed = TimedStream::new(file);
    let collected = collect_stream(&mut timed);
    assert_eq!(collected, edges);
    assert!(timed.io_time().as_nanos() > 0);
    std::fs::remove_file(&path).ok();
}

/// A stream that counts the edges it lends, across resets.
struct Counted<S> {
    inner: S,
    pulled: u64,
}

impl<S: EdgeStream> EdgeStream for Counted<S> {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        let chunk = self.inner.next_chunk(cap);
        self.pulled += chunk.len() as u64;
        chunk
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

impl<S: RestreamableStream> RestreamableStream for Counted<S> {
    fn reset(&mut self) -> clugp_graph::Result<()> {
        self.inner.reset()
    }
}

#[test]
fn three_pass_restreaming_reads_file_three_times() {
    let (n, edges) = test_web_graph(2_000, 25);
    let path = scratch_dir("io_threepass").join("g.bin");
    write_binary_graph(&path, n, &edges).unwrap();
    let mut file = Counted {
        inner: FileEdgeStream::open(&path).unwrap(),
        pulled: 0,
    };
    let file_run = Clugp::default().partition(&mut file, 8).unwrap();
    // Clustering, the cluster graph and the transform each read the whole
    // file once, and nothing else reads it.
    assert_eq!(file.pulled, 3 * edges.len() as u64, "edges pulled");
    let mut mem = InMemoryStream::new(n, edges);
    let mem_run = Clugp::default().partition(&mut mem, 8).unwrap();
    assert_eq!(
        file_run.partitioning.assignments,
        mem_run.partitioning.assignments
    );
    std::fs::remove_file(&path).ok();
}
