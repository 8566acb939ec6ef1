//! Compact primitives shared across the workspace.
//!
//! Vertex ids are `u32` (the paper's corpora top out at 118M vertices) and an
//! [`Edge`] is exactly 8 bytes, so a 10M-edge stream fits in 80 MB and copies
//! by value everywhere (see the perf-book guidance on small oft-instantiated
//! types).

/// Identifier of a vertex. Dense, 0-based.
///
/// This is the *internal* id space: every structure that keeps per-vertex
/// state indexes by `VertexId`, so ids must be contiguous (or close to it).
/// Sparse 64-bit ids from the wild ([`ExternalId`]) enter through
/// [`crate::idmap::IdMap`], which compacts them onto this space.
pub type VertexId = u32;

/// Identifier of a vertex in an *external* dataset: an arbitrary — possibly
/// sparse — 64-bit value (hashed URL, crawl id, database key). External ids
/// are never used as array indices; [`crate::idmap::IdMap`] translates them
/// to dense internal [`VertexId`]s.
pub type ExternalId = u64;

/// A directed edge over external 64-bit ids, as read from raw datasets
/// before id compaction (16 bytes; the internal [`Edge`] is 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RawEdge {
    /// Source vertex (external id).
    pub src: ExternalId,
    /// Destination vertex (external id).
    pub dst: ExternalId,
}

impl RawEdge {
    /// Creates a raw edge from `src` to `dst`.
    #[inline]
    pub fn new(src: ExternalId, dst: ExternalId) -> Self {
        RawEdge { src, dst }
    }
}

impl From<Edge> for RawEdge {
    #[inline]
    fn from(e: Edge) -> Self {
        RawEdge {
            src: u64::from(e.src),
            dst: u64::from(e.dst),
        }
    }
}

impl std::fmt::Display for RawEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} -> {})", self.src, self.dst)
    }
}

/// A directed edge `src -> dst` of the streamed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
}

impl Edge {
    /// Creates an edge from `src` to `dst`.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// Returns `true` if both endpoints are the same vertex.
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.src == self.dst
    }

    /// Returns the endpoint pair in canonical (sorted) order; useful for
    /// treating the graph as undirected.
    #[inline]
    pub fn canonical(&self) -> (VertexId, VertexId) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }
}

impl From<(VertexId, VertexId)> for Edge {
    #[inline]
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge { src, dst }
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} -> {})", self.src, self.dst)
    }
}

/// Computes the number of vertices implied by an edge list: `max id + 1`,
/// or 0 for an empty list.
pub fn implied_num_vertices(edges: &[Edge]) -> u64 {
    edges
        .iter()
        .map(|e| u64::from(e.src.max(e.dst)) + 1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Edge>(), 8);
    }

    #[test]
    fn self_loop_detection() {
        assert!(Edge::new(3, 3).is_self_loop());
        assert!(!Edge::new(3, 4).is_self_loop());
    }

    #[test]
    fn canonical_orders_endpoints() {
        assert_eq!(Edge::new(5, 2).canonical(), (2, 5));
        assert_eq!(Edge::new(2, 5).canonical(), (2, 5));
    }

    #[test]
    fn implied_vertices_of_empty_is_zero() {
        assert_eq!(implied_num_vertices(&[]), 0);
    }

    #[test]
    fn implied_vertices_uses_max_endpoint() {
        let edges = vec![Edge::new(0, 9), Edge::new(3, 2)];
        assert_eq!(implied_num_vertices(&edges), 10);
    }

    #[test]
    fn tuple_conversion() {
        let e: Edge = (1u32, 2u32).into();
        assert_eq!(e, Edge::new(1, 2));
    }

    #[test]
    fn raw_edge_is_16_bytes_and_converts() {
        assert_eq!(std::mem::size_of::<RawEdge>(), 16);
        let r: RawEdge = Edge::new(3, 4).into();
        assert_eq!(r, RawEdge::new(3, 4));
        assert_eq!(r.to_string(), "(3 -> 4)");
    }

    #[test]
    fn display_format() {
        assert_eq!(Edge::new(1, 2).to_string(), "(1 -> 2)");
    }
}
