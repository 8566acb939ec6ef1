//! The id-space layer: compacting arbitrary sparse 64-bit external ids onto
//! the dense internal [`VertexId`] space every partitioner indexes by.
//!
//! Web corpora ship vertex ids that are hashed URLs or crawl identifiers —
//! sparse values anywhere in `u64`. Per-vertex state in this workspace is
//! array-backed (`VertexTable`, `ReplicaTable`, the clustering tables), so a
//! single edge with id `2^40` would otherwise force a multi-terabyte dense
//! allocation. [`IdMap`] closes that gap: external ids are interned in
//! *first-appearance order*, so the internal id sequence is exactly the
//! dense relabeling of the stream. A multi-pass consumer sees the same
//! internal ids on every pass, and any partitioner's output over the
//! remapped stream is bit-identical to a run over the pre-relabeled dense
//! graph (pinned by `tests/chunked_equivalence.rs` and the proptest
//! round-trip suite). Dense sources need no map: the text reader holds
//! their ids to `u32` as it parses ([`crate::io::TextEdgeStream`]), and the
//! binary and pack formats store `u32` ids by construction.
//!
//! The map carries a configurable `max_vertices` cap on the distinct-id
//! count: interning past it is a clean [`GraphError::TooManyVertices`]
//! instead of an OOM abort — the first line of defense against adversarial
//! id explosions (the second is the `VertexTable` cap inside the
//! partitioners).
//!
//! [`RemappedStream`] is the adapter that puts a map under any
//! [`RawEdgeStream`]: it builds the map in one eager pass, then lends
//! internal [`Edge`]s through [`EdgeStream::next_chunk`] from a buffer it
//! translates each raw chunk into, with `len_hint` flowing through and
//! `num_vertices_hint` the *exact distinct-vertex count*, which is tighter
//! than the `max id + 1` convention of dense sources. Partition output
//! translates back through [`IdMap::external_of`].

use crate::error::{GraphError, Result};
use crate::stream::{chunk_edges, EdgeStream, RestreamableStream};
use crate::types::{Edge, ExternalId, RawEdge, VertexId};
use rustc_hash::FxHashMap;

/// Default cap on internal vertex ids: the full `u32` index space minus the
/// sentinel (`u32::MAX` marks "no cluster" / "not local" across the
/// workspace). Configure a smaller cap to budget per-vertex state.
pub const DEFAULT_MAX_VERTICES: u64 = u32::MAX as u64;

/// A bijection between external 64-bit ids and dense internal [`VertexId`]s,
/// built in first-appearance order.
#[derive(Debug, Clone)]
pub struct IdMap {
    /// Internal → external (push order = first appearance).
    external_of: Vec<ExternalId>,
    /// External → internal.
    internal_of: FxHashMap<ExternalId, VertexId>,
    max_vertices: u64,
}

impl IdMap {
    /// Empty map with the [`DEFAULT_MAX_VERTICES`] cap.
    pub fn remap() -> Self {
        Self::remap_with_cap(DEFAULT_MAX_VERTICES)
    }

    /// Empty map admitting at most `max_vertices` distinct external ids.
    pub fn remap_with_cap(max_vertices: u64) -> Self {
        IdMap {
            external_of: Vec::new(),
            internal_of: FxHashMap::default(),
            max_vertices: max_vertices.min(DEFAULT_MAX_VERTICES),
        }
    }

    /// The configured cap on internal ids.
    pub fn max_vertices(&self) -> u64 {
        self.max_vertices
    }

    /// Number of interned ids.
    pub fn len(&self) -> u64 {
        self.external_of.len() as u64
    }

    /// `true` if no id has been interned.
    pub fn is_empty(&self) -> bool {
        self.external_of.is_empty()
    }

    /// Translates `ext` to its internal id, interning it if new.
    ///
    /// # Errors
    ///
    /// [`GraphError::TooManyVertices`] if the distinct-id count would exceed
    /// the `max_vertices` cap.
    #[inline]
    pub fn intern(&mut self, ext: ExternalId) -> Result<VertexId> {
        if let Some(&i) = self.internal_of.get(&ext) {
            return Ok(i);
        }
        let next = self.len();
        if next >= self.max_vertices {
            return Err(GraphError::TooManyVertices {
                external: ext,
                max_vertices: self.max_vertices,
            });
        }
        self.external_of.push(ext);
        self.internal_of.insert(ext, next as VertexId);
        Ok(next as VertexId)
    }

    /// Read-only lookup: the internal id of `ext`, if known.
    #[inline]
    pub fn resolve(&self, ext: ExternalId) -> Option<VertexId> {
        self.internal_of.get(&ext).copied()
    }

    /// Translates an internal id back to its external id.
    ///
    /// # Panics
    ///
    /// Panics if `internal` was never handed out by this map.
    #[inline]
    pub fn external_of(&self, internal: VertexId) -> ExternalId {
        self.external_of[internal as usize]
    }

    /// Heap bytes held by the map.
    pub fn memory_bytes(&self) -> usize {
        self.external_of.capacity() * std::mem::size_of::<ExternalId>()
            + self.internal_of.capacity()
                * (std::mem::size_of::<ExternalId>() + std::mem::size_of::<VertexId>())
    }
}

/// Scrambles a dense id into a sparse pseudo-random 64-bit external id via
/// the splitmix64 finalizer. The mix is *bijective* on `u64`, so distinct
/// dense ids always get distinct external ids — the generator behind the
/// `sparse-web` dataset (64-bit hashed ids standing in for hashed URLs).
#[inline]
pub fn scramble_id(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Maps a dense internal edge list to sparse external ids via
/// [`scramble_id`].
pub fn scramble_edges(edges: &[Edge]) -> Vec<RawEdge> {
    edges
        .iter()
        .map(|e| RawEdge::new(scramble_id(u64::from(e.src)), scramble_id(u64::from(e.dst))))
        .collect()
}

/// A single-pass stream of [`RawEdge`]s over external 64-bit ids — the raw
/// side of the id-space layer. Mirrors [`EdgeStream`]: one lending pull and
/// the hints.
pub trait RawEdgeStream {
    /// Lends the next block of up to `cap` raw edges (`cap == 0` reads as
    /// 1); an empty slice means exhaustion, a short one means nothing.
    fn next_raw_chunk(&mut self, cap: usize) -> &[RawEdge];

    /// Total number of raw edges over a full pass, if known.
    fn len_hint(&self) -> Option<u64>;

    /// Rewinds to the first raw edge.
    fn reset(&mut self) -> Result<()>;
}

/// In-memory [`RawEdgeStream`] over an owned raw-edge vector.
#[derive(Debug, Clone)]
pub struct RawInMemoryStream {
    edges: Vec<RawEdge>,
    cursor: usize,
}

impl RawInMemoryStream {
    /// Creates a stream over `edges`.
    pub fn new(edges: Vec<RawEdge>) -> Self {
        RawInMemoryStream { edges, cursor: 0 }
    }

    /// Read-only view of the backing raw edges.
    pub fn edges(&self) -> &[RawEdge] {
        &self.edges
    }
}

impl RawEdgeStream for RawInMemoryStream {
    fn next_raw_chunk(&mut self, cap: usize) -> &[RawEdge] {
        let n = cap.max(1).min(self.edges.len() - self.cursor);
        let s = &self.edges[self.cursor..self.cursor + n];
        self.cursor += n;
        s
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.edges.len() as u64)
    }

    fn reset(&mut self) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }
}

/// Adapts a [`RawEdgeStream`] into a resettable internal [`EdgeStream`]
/// through an [`IdMap`].
///
/// [`RemappedStream::remap`] builds the map **eagerly in one extra pass**
/// over the raw source (in stream order, so internal ids are the
/// first-appearance dense relabeling); every later pull is a lookup.
/// CLUGP's restreaming architecture pays this pass once and reuses the map
/// across all three passes. A lookup fails only if the raw source yields an
/// id the build pass never saw; that error is *parked*, the stream ends
/// early, and the next [`RestreamableStream::reset`] reports it.
#[derive(Debug)]
pub struct RemappedStream<S> {
    inner: S,
    map: IdMap,
    /// The translation of the raw chunk last pulled — what `next_chunk`
    /// lends.
    buf: Vec<Edge>,
    error: Option<GraphError>,
}

impl<S: RawEdgeStream> RemappedStream<S> {
    /// Builds the stream and its map with the [`DEFAULT_MAX_VERTICES`] cap.
    ///
    /// # Errors
    ///
    /// Fails on raw-source errors or if the stream holds more than
    /// `max_vertices` distinct external ids.
    pub fn remap(inner: S) -> Result<Self> {
        Self::remap_with_cap(inner, DEFAULT_MAX_VERTICES)
    }

    /// Builds the stream and a map admitting at most `max_vertices` distinct
    /// external ids (see [`RemappedStream::remap`]).
    pub fn remap_with_cap(mut inner: S, max_vertices: u64) -> Result<Self> {
        inner.reset()?;
        let mut map = IdMap::remap_with_cap(max_vertices);
        loop {
            let chunk = inner.next_raw_chunk(chunk_edges());
            if chunk.is_empty() {
                break;
            }
            for e in chunk {
                map.intern(e.src)?;
                map.intern(e.dst)?;
            }
        }
        inner.reset()?;
        Ok(RemappedStream {
            inner,
            map,
            buf: Vec::new(),
            error: None,
        })
    }

    /// The id map (translate output back via [`IdMap::external_of`]).
    pub fn id_map(&self) -> &IdMap {
        &self.map
    }

    /// The error that ended the stream early, if any (also reported by the
    /// next [`RestreamableStream::reset`]).
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }
}

/// Translates one raw edge through `map`. A lookup can only fail if the
/// raw source yields different edges across passes, which the `Format`
/// error makes loud instead of silently mispartitioning.
#[inline]
fn translate(map: &IdMap, e: RawEdge) -> Result<Edge> {
    match (map.resolve(e.src), map.resolve(e.dst)) {
        (Some(src), Some(dst)) => Ok(Edge::new(src, dst)),
        _ => Err(GraphError::Format(format!(
            "raw source yielded edge {e} with an id absent from the remap \
             table built on the first pass (non-deterministic source?)"
        ))),
    }
}

impl<S: RawEdgeStream> EdgeStream for RemappedStream<S> {
    fn next_chunk(&mut self, cap: usize) -> &[Edge] {
        self.buf.clear();
        if self.error.is_some() {
            return &self.buf;
        }
        for &r in self.inner.next_raw_chunk(cap) {
            match translate(&self.map, r) {
                Ok(e) => self.buf.push(e),
                // Park-and-truncate: the translated prefix is still valid.
                Err(err) => {
                    self.error = Some(err);
                    break;
                }
            }
        }
        &self.buf
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    /// The exact distinct-vertex count (the map is complete after the
    /// eager build).
    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.map.len())
    }
}

impl<S: RawEdgeStream> RestreamableStream for RemappedStream<S> {
    /// Rewinds the raw source.
    ///
    /// # Errors
    ///
    /// Fails on raw-source reset errors, or reports (and clears) the
    /// translation error that ended the previous pass early.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.inner.reset()?;
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::collect_stream;

    fn sparse_raw() -> Vec<RawEdge> {
        // First-appearance order: 1e18→0, 7→1, u64::MAX→2, 42→3.
        vec![
            RawEdge::new(1_000_000_000_000_000_000, 7),
            RawEdge::new(u64::MAX, 1_000_000_000_000_000_000),
            RawEdge::new(7, 42),
        ]
    }

    #[test]
    fn remap_interns_in_first_appearance_order() {
        let mut s = RemappedStream::remap(RawInMemoryStream::new(sparse_raw())).unwrap();
        let edges = collect_stream(&mut s);
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(2, 0), Edge::new(1, 3)]
        );
        assert_eq!(s.num_vertices_hint(), Some(4));
        assert_eq!(s.len_hint(), Some(3));
    }

    #[test]
    fn remap_round_trips_external_ids() {
        let s = RemappedStream::remap(RawInMemoryStream::new(sparse_raw())).unwrap();
        let map = s.id_map();
        assert_eq!(map.len(), 4);
        for internal in 0..4u32 {
            let ext = map.external_of(internal);
            assert_eq!(map.resolve(ext), Some(internal));
        }
        assert_eq!(map.external_of(2), u64::MAX);
        assert!(map.memory_bytes() > 0);
    }

    #[test]
    fn remap_is_stable_across_passes() {
        let mut s = RemappedStream::remap(RawInMemoryStream::new(sparse_raw())).unwrap();
        let first = collect_stream(&mut s);
        s.reset().unwrap();
        let second = collect_stream(&mut s);
        assert_eq!(first, second);
    }

    #[test]
    fn remap_accepts_u64_max_but_caps_distinct_count() {
        // u64::MAX as an *id value* is fine in remap mode — that is the
        // point of the layer. Only the distinct count is capped.
        let mut map = IdMap::remap_with_cap(2);
        assert_eq!(map.intern(u64::MAX).unwrap(), 0);
        assert_eq!(map.intern(0).unwrap(), 1);
        assert_eq!(map.intern(u64::MAX).unwrap(), 0); // existing: no growth
        let err = map.intern(5).unwrap_err();
        assert!(matches!(
            err,
            GraphError::TooManyVertices {
                external: 5,
                max_vertices: 2
            }
        ));
    }

    #[test]
    fn remap_build_rejects_id_explosion() {
        let raw: Vec<RawEdge> = (0..10u64).map(|i| RawEdge::new(i * 1_000, i)).collect();
        let err = RemappedStream::remap_with_cap(RawInMemoryStream::new(raw), 5).unwrap_err();
        assert!(matches!(err, GraphError::TooManyVertices { .. }));
    }

    #[test]
    fn chunked_pulls_match_per_edge_pulls() {
        for cap in [1usize, 2, 4096] {
            let mut s = RemappedStream::remap(RawInMemoryStream::new(sparse_raw())).unwrap();
            let mut seen = Vec::new();
            crate::stream::for_each_chunk(&mut s, cap, |chunk| seen.extend_from_slice(chunk));
            assert_eq!(
                seen,
                vec![Edge::new(0, 1), Edge::new(2, 0), Edge::new(1, 3)],
                "cap={cap}"
            );
        }
    }

    #[test]
    fn scramble_is_injective_on_a_range() {
        let mut seen: Vec<u64> = (0..10_000u64).map(scramble_id).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
        // And actually sparse: some ids must leave the u32 range.
        assert!((0..100u64)
            .map(scramble_id)
            .any(|x| x > u64::from(u32::MAX)));
    }

    #[test]
    fn scrambled_edges_remap_back_to_dense_relabeling_of_stream_order() {
        // Scramble a dense edge list, remap it, and check the internal
        // stream equals the first-appearance relabeling of the original.
        let dense = vec![Edge::new(3, 1), Edge::new(1, 0), Edge::new(3, 2)];
        let raw = scramble_edges(&dense);
        let mut s = RemappedStream::remap(RawInMemoryStream::new(raw)).unwrap();
        let remapped = collect_stream(&mut s);
        // First appearances: 3→0, 1→1, 0→2, 2→3.
        assert_eq!(
            remapped,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 3)]
        );
        // External ids round-trip to the scrambled values.
        assert_eq!(s.id_map().external_of(0), scramble_id(3));
    }

    #[test]
    fn empty_raw_stream() {
        let mut s = RemappedStream::remap(RawInMemoryStream::new(vec![])).unwrap();
        assert!(s.next_chunk(16).is_empty());
        assert_eq!(s.num_vertices_hint(), Some(0));
    }
}
