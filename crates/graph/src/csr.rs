//! Immutable compressed-sparse-row (CSR) adjacency.
//!
//! [`CsrGraph`] stores the out-adjacency of a directed graph in two flat
//! arrays (offsets + targets), the standard layout for cache-friendly
//! sequential scans. It is the substrate for the generators, BFS ordering,
//! analysis, and the GAS engine's per-machine subgraphs.

use crate::error::{GraphError, Result};
use crate::types::{implied_num_vertices, Edge, VertexId};

/// A directed graph in CSR (out-adjacency) form.
///
/// [`CsrGraph::from_edges`] counting-sorts an edge list by source, so
/// `out_neighbors(v)` is a contiguous slice. A generator that emits its
/// edges source by source (web crawl, BA) skips that sort:
/// it pushes each source's targets and closes its offset entry as it goes,
/// and hands the two arrays to the crate's one in-place constructor,
/// `from_adjacency`; the graph equals `from_edges` over the same edges.
/// Duplicate edges and self-loops are preserved (the streaming model
/// partitions every streamed edge, duplicates included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<u64>,
    /// Concatenated out-neighbor lists.
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list with an explicit vertex count.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is `>=
    /// num_vertices`.
    pub fn from_edges(num_vertices: u64, edges: &[Edge]) -> Result<Self> {
        if num_vertices > u64::from(u32::MAX) + 1 {
            return Err(GraphError::InvalidConfig(format!(
                "num_vertices {num_vertices} exceeds u32 id space"
            )));
        }
        // Checked sizing: on 32-bit-usize targets a u32-ranged count can
        // still overflow the address space; fail cleanly instead of
        // truncating the allocation.
        let n = usize::try_from(num_vertices)
            .ok()
            .filter(|n| n.checked_add(1).is_some())
            .ok_or_else(|| {
                GraphError::InvalidConfig(format!(
                    "num_vertices {num_vertices} exceeds addressable memory on this target"
                ))
            })?;
        for e in edges {
            let max = u64::from(e.src.max(e.dst));
            if max >= num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: max,
                    num_vertices,
                });
            }
        }
        // Counting sort by source: one pass to count, one to place.
        let mut offsets = vec![0u64; n + 1];
        for e in edges {
            offsets[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; edges.len()];
        for e in edges {
            let pos = cursor[e.src as usize];
            targets[pos as usize] = e.dst;
            cursor[e.src as usize] += 1;
        }
        Ok(CsrGraph { offsets, targets })
    }

    /// Wraps adjacency a generator filled in place: `offsets[v]..offsets[v +
    /// 1]` indexes `targets` for each vertex `v`, so there are
    /// `offsets.len() - 1` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, does not start at 0, or does not end at
    /// `targets.len()`; in debug builds also if it descends or a target is
    /// out of range.
    pub(crate) fn from_adjacency(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets start at 0");
        assert_eq!(
            offsets.last().copied(),
            Some(targets.len() as u64),
            "offsets end at the target count"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(targets
            .iter()
            .all(|&t| u64::from(t) < (offsets.len() - 1) as u64));
        CsrGraph { offsets, targets }
    }

    /// Builds a CSR graph, inferring the vertex count from the maximum
    /// endpoint id.
    pub fn from_edges_auto(edges: &[Edge]) -> Self {
        let n = implied_num_vertices(edges);
        // Cannot fail: every endpoint is < n by construction.
        Self::from_edges(n, edges).expect("implied vertex count covers all endpoints")
    }

    /// Number of vertices (including isolated ones if constructed with an
    /// explicit count).
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbors of `v` as a contiguous slice.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Iterates all edges in CSR order (sorted by source).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices() as u32).flat_map(move |v| {
            self.out_neighbors(v)
                .iter()
                .map(move |&d| Edge { src: v, dst: d })
        })
    }

    /// Collects all edges into a vector (CSR order), one target slice per
    /// source.
    pub fn edge_vec(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.targets.len());
        for (src, w) in self.offsets.windows(2).enumerate() {
            let src = src as VertexId;
            let dsts = &self.targets[w[0] as usize..w[1] as usize];
            out.extend(dsts.iter().map(|&dst| Edge { src, dst }));
        }
        out
    }

    /// In-degree array, computed in one pass.
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.num_vertices() as usize];
        for &t in &self.targets {
            deg[t as usize] += 1;
        }
        deg
    }

    /// Total degree (in + out) array, the degree notion used by the
    /// partitioning heuristics on directed streams.
    pub fn total_degrees(&self) -> Vec<u64> {
        let mut deg = self.in_degrees();
        for (v, d) in deg.iter_mut().enumerate() {
            *d += self.offsets[v + 1] - self.offsets[v];
        }
        deg
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_out_degree(&self) -> u64 {
        (0..self.num_vertices() as u32)
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Vec<Edge> {
        vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(1, 3),
            Edge::new(2, 3),
        ]
    }

    #[test]
    fn builds_and_counts() {
        let g = CsrGraph::from_edges(4, &diamond()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn neighbors_are_grouped_by_source() {
        let g = CsrGraph::from_edges(4, &diamond()).unwrap();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(1), &[3]);
        assert_eq!(g.out_neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn edges_iterator_matches_input_multiset() {
        let mut input = diamond();
        let g = CsrGraph::from_edges(4, &input).unwrap();
        let mut output = g.edge_vec();
        input.sort();
        output.sort();
        assert_eq!(input, output);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = CsrGraph::from_edges(2, &[Edge::new(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, .. }
        ));
    }

    #[test]
    fn auto_vertex_count() {
        let g = CsrGraph::from_edges_auto(&[Edge::new(0, 7)]);
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edge_vec(), vec![]);
        assert_eq!(g.max_out_degree(), 0);
    }

    #[test]
    fn preserves_duplicates_and_self_loops() {
        let edges = vec![Edge::new(1, 1), Edge::new(0, 1), Edge::new(0, 1)];
        let g = CsrGraph::from_edges(2, &edges).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
        assert_eq!(g.out_neighbors(1), &[1]);
    }

    #[test]
    fn in_degrees_and_total_degrees() {
        let g = CsrGraph::from_edges(4, &diamond()).unwrap();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
        assert_eq!(g.total_degrees(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn edge_vec_is_the_edge_iterator_collected() {
        // Vertices 0, 2 and 5 are isolated; 5 is the last.
        let edges = vec![
            Edge::new(4, 1),
            Edge::new(1, 3),
            Edge::new(3, 3),
            Edge::new(1, 0),
            Edge::new(4, 4),
        ];
        let g = CsrGraph::from_edges(6, &edges).unwrap();
        assert_eq!(g.edge_vec(), g.edges().collect::<Vec<_>>());
        assert_eq!(g.edge_vec().len(), edges.len());
        let empty = CsrGraph::from_edges(3, &[]).unwrap();
        assert_eq!(empty.edge_vec(), empty.edges().collect::<Vec<_>>());
        let none = CsrGraph::from_edges(0, &[]).unwrap();
        assert_eq!(none.edge_vec(), none.edges().collect::<Vec<_>>());
    }

    #[test]
    fn from_adjacency_equals_from_edges() {
        let g = CsrGraph::from_adjacency(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3]);
        assert_eq!(g, CsrGraph::from_edges(4, &diamond()).unwrap());
        assert_eq!(
            CsrGraph::from_adjacency(vec![0], Vec::new()),
            CsrGraph::from_edges(0, &[]).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "offsets end at the target count")]
    fn from_adjacency_rejects_a_short_offset_table() {
        let _ = CsrGraph::from_adjacency(vec![0, 1], vec![0, 0]);
    }

    #[test]
    fn max_out_degree_found() {
        let g = CsrGraph::from_edges(4, &diamond()).unwrap();
        assert_eq!(g.max_out_degree(), 2);
    }
}
