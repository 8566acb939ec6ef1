//! The edge-streaming graph model (paper Definition 1).
//!
//! A streaming partitioner consumes edges through [`EdgeStream`]. One-pass
//! algorithms (Hashing, DBH, Greedy, HDRF) need only that; CLUGP's
//! three-pass restreaming architecture additionally needs
//! [`RestreamableStream::reset`] to rewind the stream between passes.
//!
//! # One pull
//!
//! The model has one operation — read the next edges of the stream — and so
//! has the trait: [`EdgeStream::next_chunk`] *lends* the next block of edges
//! as a slice of storage the source already holds (the vector of an
//! [`InMemoryStream`], the decoded block of a pack) or owns and fills (the
//! record buffer of a file reader). Nothing is copied on the way to the
//! consumer, and no buffer is sized by the number the consumer asks for.
//! Consumers drive streams with [`for_each_chunk`] and iterate tight
//! `&[Edge]` loops, paying one virtual dispatch per *chunk*.
//!
//! Chunk boundaries are **not semantic**: a source may lend fewer than the
//! requested number of edges at any time (block boundaries, internal buffer
//! sizes); only an empty chunk means exhaustion. Consumers must therefore be
//! insensitive to where chunks split — all in-tree consumers produce
//! bit-identical results for any chunking of the same edge sequence (see
//! `tests/chunked_equivalence.rs`).
//!
//! Two concrete sources are provided here and in [`crate::io::binary`]:
//! [`InMemoryStream`] over a `Vec<Edge>` and `FileEdgeStream` over the
//! on-disk binary format. The latter is what the Figure 10(a) experiment
//! uses to separate I/O cost from computation cost. [`ChunkLimited`] wraps
//! any stream to force an arbitrary chunk granularity — the lever of the
//! equivalence suite.
//!
//! Because only the *empty* chunk is semantic, a source is free to produce
//! its chunks on other threads, as `crate::pack::PipelinedPackStream` does:
//! pack blocks decode on workers ahead of the consumer while deliveries stay
//! in block order, so the chunk sequence — and therefore every consumer's
//! result — is bit-identical to the serial reader at any thread count
//! (`tests/pipelined_equivalence.rs`).

use crate::error::Result;
use crate::types::Edge;

/// Default number of edges per chunk pull.
///
/// 4096 edges = 32 KiB of `Edge` payload — large enough to amortize the
/// virtual dispatch and buffer bookkeeping to noise, small enough to stay
/// L1/L2-resident while the consumer's tables are hot (the committed sweep,
/// `results/BENCH_throughput.json`, is flat from 64 edges per pull up).
///
/// Consumers read the effective size through [`chunk_edges`], which starts
/// at this constant and can be overridden process-wide (the `clugp-part
/// --chunk-size` flag).
pub const DEFAULT_CHUNK_EDGES: usize = 4096;

static CHUNK_EDGES: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(DEFAULT_CHUNK_EDGES);

/// The effective edges-per-chunk every in-tree consumer passes to
/// [`for_each_chunk`]/[`try_for_each_chunk`]: [`DEFAULT_CHUNK_EDGES`]
/// unless overridden by [`set_chunk_edges`].
#[inline]
pub fn chunk_edges() -> usize {
    CHUNK_EDGES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Overrides the process-wide chunk size ([`chunk_edges`]). A CLI-level
/// tuning knob: chunk granularity never changes any partition (pinned by
/// `tests/chunked_equivalence.rs`), only the dispatch/buffering amortization.
///
/// # Errors
///
/// Rejects `0` — a zero cap would read as an exhaustion signal.
pub fn set_chunk_edges(edges: usize) -> Result<()> {
    if edges == 0 {
        return Err(crate::error::GraphError::InvalidConfig(
            "chunk size must be >= 1 edge".into(),
        ));
    }
    CHUNK_EDGES.store(edges, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// A single-pass stream of directed edges.
///
/// Implementors yield edges in *stream order*; the order is significant
/// (the paper evaluates BFS order for CLUGP/Mint and random order for the
/// other baselines).
pub trait EdgeStream {
    /// Lends the next block of up to `cap` edges and advances past it.
    ///
    /// An empty slice means the stream is exhausted — implementations treat
    /// `cap == 0` as 1, so an empty chunk *always* means exhaustion, even
    /// for consumers that compute `cap` dynamically. A source **may** lend
    /// fewer than `cap` edges while more remain (e.g. at an internal block
    /// boundary) — consumers must keep pulling until an empty chunk and must
    /// not attach meaning to chunk boundaries. The slice lives in storage
    /// the source holds; a source that fills a buffer grows it by what its
    /// input yields, never to `cap`.
    fn next_chunk(&mut self, cap: usize) -> &[Edge];

    /// Total number of edges this stream will yield over a full pass, if
    /// known. Partitioners use it to pre-size tables (e.g. `Vmax = |E|/k`).
    fn len_hint(&self) -> Option<u64>;

    /// Number of vertices of the underlying graph, if known. Streaming
    /// algorithms conventionally know `|V|` up front so per-vertex state can
    /// be array-backed (the paper's `clu[]`/`deg[]` arrays).
    fn num_vertices_hint(&self) -> Option<u64>;
}

/// An [`EdgeStream`] that can be rewound to the beginning, enabling
/// multi-pass (restreaming) algorithms.
pub trait RestreamableStream: EdgeStream {
    /// Rewinds the stream so the next pull yields the first edge again.
    fn reset(&mut self) -> Result<()>;
}

impl<T: EdgeStream + ?Sized> EdgeStream for &mut T {
    #[inline]
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        (**self).next_chunk(cap)
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        (**self).num_vertices_hint()
    }
}

impl<T: RestreamableStream + ?Sized> RestreamableStream for &mut T {
    fn reset(&mut self) -> Result<()> {
        (**self).reset()
    }
}

/// Drives `stream` to exhaustion in chunks of (at most) `cap` edges, calling
/// `f` on each non-empty chunk.
///
/// This is the consumer-side hot loop: one virtual dispatch per chunk, then
/// a tight borrow-checked iteration over the lent `&[Edge]`.
pub fn for_each_chunk(stream: &mut dyn EdgeStream, cap: usize, mut f: impl FnMut(&[Edge])) {
    // One drain loop to maintain: the infallible version is the fallible
    // one at an uninhabited error type (compiles to the same code).
    let Ok(()) = try_for_each_chunk::<std::convert::Infallible>(stream, cap, |chunk| {
        f(chunk);
        Ok(())
    });
}

/// Fallible variant of [`for_each_chunk`]: drives `stream` to exhaustion in
/// chunks, stopping at the first `Err` from `f` and propagating it.
///
/// This is the hot loop of consumers whose per-vertex state can refuse to
/// grow (the `max_vertices` guards against adversarial id explosions): the
/// chunk structure and dispatch cost are identical to [`for_each_chunk`],
/// plus one branch per chunk.
pub fn try_for_each_chunk<E>(
    stream: &mut dyn EdgeStream,
    cap: usize,
    mut f: impl FnMut(&[Edge]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    loop {
        let chunk = stream.next_chunk(cap);
        if chunk.is_empty() {
            return Ok(());
        }
        f(chunk)?;
    }
}

/// In-memory stream over an owned edge vector.
///
/// The cheapest resettable source; all experiments except the I/O-cost
/// breakdown use it. Chunks are lent straight out of the vector.
#[derive(Debug, Clone)]
pub struct InMemoryStream {
    edges: Vec<Edge>,
    cursor: usize,
    num_vertices: u64,
}

impl InMemoryStream {
    /// Creates a stream over `edges` with an explicit vertex count.
    pub fn new(num_vertices: u64, edges: Vec<Edge>) -> Self {
        InMemoryStream {
            edges,
            cursor: 0,
            num_vertices,
        }
    }

    /// Creates a stream inferring the vertex count from the maximum id.
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        let n = crate::types::implied_num_vertices(&edges);
        Self::new(n, edges)
    }

    /// Read-only view of the backing edges (in stream order).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Consumes the stream, returning the backing vector.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }
}

impl EdgeStream for InMemoryStream {
    #[inline]
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        let n = cap.max(1).min(self.edges.len() - self.cursor);
        let s = &self.edges[self.cursor..self.cursor + n];
        self.cursor += n;
        s
    }

    #[inline]
    fn len_hint(&self) -> Option<u64> {
        Some(self.edges.len() as u64)
    }

    #[inline]
    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.num_vertices)
    }
}

impl RestreamableStream for InMemoryStream {
    fn reset(&mut self) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }
}

/// Drains a stream into a vector (one full pass from the current position).
pub fn collect_stream(stream: &mut dyn EdgeStream) -> Vec<Edge> {
    let mut out = match stream.len_hint() {
        Some(n) => Vec::with_capacity(n as usize),
        None => Vec::new(),
    };
    for_each_chunk(stream, chunk_edges(), |chunk| {
        out.extend_from_slice(chunk);
    });
    out
}

/// A stream wrapper that counts wall-clock time spent *inside* the source,
/// separating I/O cost from the consumer's computation (Figure 10a).
///
/// Time is accumulated per *pull*: one `Instant` read-pair per chunk, so the
/// accounting overhead does not distort the I/O share it is meant to
/// measure.
pub struct TimedStream<S> {
    inner: S,
    io_time: std::time::Duration,
}

impl<S: EdgeStream> TimedStream<S> {
    /// Wraps `inner`, starting with zero accumulated I/O time.
    pub fn new(inner: S) -> Self {
        TimedStream {
            inner,
            io_time: std::time::Duration::ZERO,
        }
    }

    /// Total time spent pulling edges from the wrapped source.
    pub fn io_time(&self) -> std::time::Duration {
        self.io_time
    }

    /// Returns the wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EdgeStream> EdgeStream for TimedStream<S> {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        let t = std::time::Instant::now();
        let chunk = self.inner.next_chunk(cap);
        self.io_time += t.elapsed();
        chunk
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

impl<S: RestreamableStream> RestreamableStream for TimedStream<S> {
    fn reset(&mut self) -> Result<()> {
        let t = std::time::Instant::now();
        let r = self.inner.reset();
        self.io_time += t.elapsed();
        r
    }
}

/// Caps every pull at `limit` edges, regardless of what the consumer asks
/// for.
///
/// Simulates a source with its own block granularity (a sharded reader, a
/// small I/O buffer). Consumers must produce identical results under any
/// `limit` — the chunk-size axis of the equivalence suite.
#[derive(Debug, Clone)]
pub struct ChunkLimited<S> {
    inner: S,
    limit: usize,
}

impl<S> ChunkLimited<S> {
    /// Wraps `inner`, capping pulls at `limit` (≥ 1) edges.
    pub fn new(inner: S, limit: usize) -> Self {
        ChunkLimited {
            inner,
            limit: limit.max(1),
        }
    }

    /// Returns the wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EdgeStream> EdgeStream for ChunkLimited<S> {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        self.inner.next_chunk(cap.min(self.limit))
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

impl<S: RestreamableStream> RestreamableStream for ChunkLimited<S> {
    fn reset(&mut self) -> Result<()> {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idmap::{RawInMemoryStream, RemappedStream};
    use crate::types::RawEdge;

    fn sample_edges() -> Vec<Edge> {
        vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]
    }

    /// The path 0 → 1 → … → n as raw and as internal edges.
    fn dense_path(n: u32) -> (Vec<RawEdge>, Vec<Edge>) {
        let raw = (0..u64::from(n)).map(|i| RawEdge::new(i, i + 1)).collect();
        (raw, (0..n).map(|i| Edge::new(i, i + 1)).collect())
    }

    #[test]
    fn in_memory_yields_in_order() {
        let mut s = InMemoryStream::from_edges(sample_edges());
        assert_eq!(s.next_chunk(1), [Edge::new(0, 1)]);
        assert_eq!(s.next_chunk(1), [Edge::new(1, 2)]);
        assert_eq!(s.next_chunk(1), [Edge::new(2, 0)]);
        assert!(s.next_chunk(1).is_empty());
        assert!(s.next_chunk(1).is_empty());
    }

    #[test]
    fn reset_restarts_from_beginning() {
        let mut s = InMemoryStream::from_edges(sample_edges());
        let first_pass = collect_stream(&mut s);
        s.reset().unwrap();
        let second_pass = collect_stream(&mut s);
        assert_eq!(first_pass, second_pass);
        assert_eq!(first_pass.len(), 3);
    }

    #[test]
    fn hints_are_exact_for_in_memory() {
        let s = InMemoryStream::from_edges(sample_edges());
        assert_eq!(s.len_hint(), Some(3));
        assert_eq!(s.num_vertices_hint(), Some(3));
    }

    #[test]
    fn explicit_vertex_count_respected() {
        let s = InMemoryStream::new(100, sample_edges());
        assert_eq!(s.num_vertices_hint(), Some(100));
    }

    #[test]
    fn empty_stream() {
        let mut s = InMemoryStream::from_edges(vec![]);
        assert!(s.next_chunk(4096).is_empty());
        assert_eq!(s.len_hint(), Some(0));
        assert_eq!(s.num_vertices_hint(), Some(0));
    }

    #[test]
    fn zero_cap_is_clamped_never_a_false_exhaustion_signal() {
        // A dynamically computed cap can reach 0 mid-drain; that must not
        // read as "exhausted" while edges remain.
        let mut s = InMemoryStream::from_edges(sample_edges());
        assert_eq!(s.next_chunk(0).len(), 1);
        assert_eq!(ChunkLimited::new(s, 7).next_chunk(0).len(), 1);
    }

    #[test]
    fn in_memory_slice_is_zero_copy_view() {
        let edges = sample_edges();
        let mut s = InMemoryStream::from_edges(edges.clone());
        assert_eq!(s.next_chunk(2), &edges[..2]);
        assert_eq!(s.next_chunk(10), &edges[2..]);
        assert!(s.next_chunk(10).is_empty());
        // Pulls of different sizes share the single cursor.
        s.reset().unwrap();
        assert_eq!(s.next_chunk(1), &edges[..1]);
        assert_eq!(s.next_chunk(10), &edges[1..]);
    }

    #[test]
    fn for_each_chunk_covers_stream_exactly_once() {
        let edges: Vec<Edge> = (0..1000u32).map(|i| Edge::new(i, i + 1)).collect();
        for cap in [1usize, 7, 256, 4096] {
            let mut s = InMemoryStream::from_edges(edges.clone());
            let mut seen = Vec::new();
            for_each_chunk(&mut s, cap, |chunk| seen.extend_from_slice(chunk));
            assert_eq!(seen, edges, "cap={cap}");
        }
    }

    #[test]
    fn no_buffer_is_sized_by_the_cap() {
        // A source that fills its own buffer grows it by what its input
        // yields: the largest cap a caller can name drains it like any other
        // (a buffer of `cap` edges would be a "capacity overflow" panic).
        let (raw, edges) = dense_path(100);
        let mut s = RemappedStream::identity(RawInMemoryStream::new(raw));
        let mut seen = Vec::new();
        for_each_chunk(&mut s, usize::MAX, |chunk| seen.extend_from_slice(chunk));
        assert_eq!(seen, edges);
    }

    #[test]
    fn try_for_each_chunk_covers_stream_and_stops_on_error() {
        let edges: Vec<Edge> = (0..100u32).map(|i| Edge::new(i, i + 1)).collect();
        for cap in [1usize, 7, 4096] {
            // Success path: sees every edge exactly once, like for_each_chunk.
            let mut s = InMemoryStream::from_edges(edges.clone());
            let mut seen = Vec::new();
            let ok: std::result::Result<(), ()> = try_for_each_chunk(&mut s, cap, |chunk| {
                seen.extend_from_slice(chunk);
                Ok(())
            });
            assert!(ok.is_ok());
            assert_eq!(seen, edges, "cap={cap}");
            // Error path: stops at the failing chunk and propagates.
            let mut s = InMemoryStream::from_edges(edges.clone());
            let mut consumed = 0usize;
            let err: std::result::Result<(), &str> = try_for_each_chunk(&mut s, cap, |chunk| {
                consumed += chunk.len();
                if consumed > 50 {
                    Err("cap exceeded")
                } else {
                    Ok(())
                }
            });
            assert_eq!(err, Err("cap exceeded"), "cap={cap}");
            if cap < 50 {
                assert!(consumed < 100, "cap={cap}: error must stop the drain");
            }
        }
    }

    #[test]
    fn chunk_limited_caps_but_preserves_content() {
        let edges: Vec<Edge> = (0..100u32).map(|i| Edge::new(i, i + 1)).collect();
        for limit in [1usize, 7, 4096] {
            let mut s = ChunkLimited::new(InMemoryStream::from_edges(edges.clone()), limit);
            let mut seen = Vec::new();
            for_each_chunk(&mut s, 4096, |chunk| {
                assert!(chunk.len() <= limit);
                seen.extend_from_slice(chunk);
            });
            assert_eq!(seen, edges, "limit={limit}");
        }
    }

    #[test]
    fn timed_stream_accumulates_and_preserves_content() {
        let inner = InMemoryStream::from_edges(sample_edges());
        let mut timed = TimedStream::new(inner);
        let collected = collect_stream(&mut timed);
        assert_eq!(collected, sample_edges());
        // Duration is monotone non-negative; just check the API works.
        let _ = timed.io_time();
        timed.reset().unwrap();
        assert_eq!(collect_stream(&mut timed).len(), 3);
    }

    #[test]
    fn timed_stream_times_chunk_pulls() {
        let mut timed = TimedStream::new(InMemoryStream::from_edges(sample_edges()));
        assert_eq!(timed.next_chunk(2).len(), 2);
        assert_eq!(timed.next_chunk(10), &sample_edges()[2..]);
        let _ = timed.io_time();
    }

    #[test]
    fn chunk_edges_override_rejects_zero_and_round_trips() {
        assert!(set_chunk_edges(0).is_err());
        // The default is live until someone overrides it.
        assert!(chunk_edges() >= 1);
        // Override and restore: results are chunking-invariant everywhere
        // (the equivalence suite), so a transient override is safe even
        // with concurrently running tests.
        set_chunk_edges(777).unwrap();
        assert_eq!(chunk_edges(), 777);
        // `collect_stream` and the remap build pull at the process-wide
        // size; no number typed there sizes a buffer either.
        set_chunk_edges(usize::MAX).unwrap();
        let (raw, edges) = dense_path(100);
        let mut s = RemappedStream::remap(RawInMemoryStream::new(raw)).unwrap();
        assert_eq!(collect_stream(&mut s), edges);
        set_chunk_edges(DEFAULT_CHUNK_EDGES).unwrap();
        assert_eq!(chunk_edges(), DEFAULT_CHUNK_EDGES);
    }

    #[test]
    fn into_edges_round_trips() {
        let s = InMemoryStream::from_edges(sample_edges());
        assert_eq!(s.into_edges(), sample_edges());
    }
}
