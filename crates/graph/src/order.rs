//! Edge stream orders.
//!
//! The paper assumes web-graph streams arrive in BFS (crawl) order
//! (footnote 1, following Mint and Gemini), and gives each baseline its best
//! order: random for Hashing/DBH/Greedy/HDRF, BFS for Mint/CLUGP (the core
//! crate's `DistAlgo::stream_order` is that one table). This module
//! produces both orders from a materialized graph, plus the BFS vertex
//! relabeling a crawler would induce.

use crate::csr::CsrGraph;
use crate::types::{Edge, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The seed of every [`StreamOrder::Random`] an algorithm is granted by
/// default, and of the CLI's `--order random`.
pub const RANDOM_ORDER_SEED: u64 = 0x5EED;

/// The stream orders evaluated in the paper's experiments (plus DFS, used
/// by the stream-order sensitivity studies of Abbas et al., VLDB'18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum StreamOrder {
    /// Breadth-first crawl order: for each vertex in BFS discovery order,
    /// emit all of its out-edges. Unreached vertices are appended as new BFS
    /// roots in id order, so every edge is emitted exactly once.
    Bfs,
    /// Depth-first order: for each vertex in DFS pre-order, emit all of its
    /// out-edges (same root policy as BFS).
    Dfs,
    /// Uniformly random permutation of the edge multiset, seeded.
    Random(u64),
    /// CSR order (sorted by source id); the "as crawled" order of our
    /// generators, which already label vertices in crawl order.
    AsIs,
}

/// Emits the edge stream of `graph` in the requested order.
pub fn ordered_edges(graph: &CsrGraph, order: StreamOrder) -> Vec<Edge> {
    match order {
        StreamOrder::Bfs => bfs_edge_order(graph),
        StreamOrder::Dfs => dfs_edge_order(graph),
        StreamOrder::Random(seed) => random_edge_order(graph, seed),
        StreamOrder::AsIs => graph.edge_vec(),
    }
}

/// DFS pre-order edge stream: vertices are visited depth-first (iterative,
/// explicit stack); a vertex's whole out-burst is emitted at first visit.
pub fn dfs_edge_order(graph: &CsrGraph) -> Vec<Edge> {
    let n = graph.num_vertices() as usize;
    let mut visited = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut stream = Vec::with_capacity(graph.num_edges() as usize);
    for root in 0..n as u32 {
        if visited[root as usize] {
            continue;
        }
        stack.push(root);
        while let Some(u) = stack.pop() {
            if visited[u as usize] {
                continue;
            }
            visited[u as usize] = true;
            for &v in graph.out_neighbors(u) {
                stream.push(Edge { src: u, dst: v });
            }
            // Push in reverse so the first neighbor is explored first.
            for &v in graph.out_neighbors(u).iter().rev() {
                if !visited[v as usize] {
                    stack.push(v);
                }
            }
        }
    }
    stream
}

/// BFS crawl order over the whole graph (Definition 1's assumed order).
///
/// Starts from vertex 0; when a BFS tree is exhausted, the smallest-id
/// undiscovered vertex seeds the next tree, so disconnected graphs still
/// stream every edge.
pub fn bfs_edge_order(graph: &CsrGraph) -> Vec<Edge> {
    let n = graph.num_vertices() as usize;
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let mut stream = Vec::with_capacity(graph.num_edges() as usize);
    for root in 0..n as u32 {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in graph.out_neighbors(u) {
                stream.push(Edge { src: u, dst: v });
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    stream
}

/// Uniformly random edge order with a fixed seed.
pub fn random_edge_order(graph: &CsrGraph, seed: u64) -> Vec<Edge> {
    let mut edges = graph.edge_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    edges
}

/// BFS discovery ranks: `rank[v]` is the position of `v` in BFS discovery
/// order (roots chosen as in [`bfs_edge_order`]).
pub fn bfs_ranks(graph: &CsrGraph) -> Vec<VertexId> {
    let n = graph.num_vertices() as usize;
    let mut rank = vec![VertexId::MAX; n];
    let mut next_rank: VertexId = 0;
    let mut queue = VecDeque::new();
    for root in 0..n as u32 {
        if rank[root as usize] != VertexId::MAX {
            continue;
        }
        rank[root as usize] = next_rank;
        next_rank += 1;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in graph.out_neighbors(u) {
                if rank[v as usize] == VertexId::MAX {
                    rank[v as usize] = next_rank;
                    next_rank += 1;
                    queue.push_back(v);
                }
            }
        }
    }
    rank
}

/// Relabels all vertices by BFS discovery rank, producing the graph a web
/// crawler would have recorded. After relabeling, [`StreamOrder::AsIs`] on
/// the result approximates a crawl stream.
pub fn relabel_by_bfs(graph: &CsrGraph) -> CsrGraph {
    let rank = bfs_ranks(graph);
    let edges: Vec<Edge> = graph
        .edges()
        .map(|e| Edge {
            src: rank[e.src as usize],
            dst: rank[e.dst as usize],
        })
        .collect();
    CsrGraph::from_edges(graph.num_vertices(), &edges)
        .expect("relabeling is a bijection on the same vertex range")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_branch() -> CsrGraph {
        // 0 -> 1 -> 2, 0 -> 3, plus island 4 -> 5
        CsrGraph::from_edges(
            6,
            &[
                Edge::new(0, 1),
                Edge::new(0, 3),
                Edge::new(1, 2),
                Edge::new(4, 5),
            ],
        )
        .unwrap()
    }

    fn sorted(mut v: Vec<Edge>) -> Vec<Edge> {
        v.sort();
        v
    }

    #[test]
    fn bfs_order_is_a_permutation_of_edges() {
        let g = chain_with_branch();
        let bfs = bfs_edge_order(&g);
        assert_eq!(sorted(bfs), sorted(g.edge_vec()));
    }

    #[test]
    fn bfs_order_emits_source_before_descendants() {
        let g = chain_with_branch();
        let bfs = bfs_edge_order(&g);
        // All of vertex 0's edges precede vertex 1's edges.
        let pos_01 = bfs.iter().position(|e| *e == Edge::new(0, 1)).unwrap();
        let pos_12 = bfs.iter().position(|e| *e == Edge::new(1, 2)).unwrap();
        assert!(pos_01 < pos_12);
    }

    #[test]
    fn bfs_covers_disconnected_components() {
        let g = chain_with_branch();
        let bfs = bfs_edge_order(&g);
        assert!(bfs.contains(&Edge::new(4, 5)));
    }

    #[test]
    fn random_order_is_permutation_and_seed_deterministic() {
        let g = chain_with_branch();
        let a = random_edge_order(&g, 7);
        let b = random_edge_order(&g, 7);
        let c = random_edge_order(&g, 8);
        assert_eq!(a, b);
        assert_eq!(sorted(a.clone()), sorted(g.edge_vec()));
        assert_eq!(sorted(c.clone()), sorted(g.edge_vec()));
    }

    #[test]
    fn ordered_edges_dispatches() {
        let g = chain_with_branch();
        assert_eq!(ordered_edges(&g, StreamOrder::AsIs), g.edge_vec());
        assert_eq!(
            sorted(ordered_edges(&g, StreamOrder::Bfs)),
            sorted(g.edge_vec())
        );
        assert_eq!(
            sorted(ordered_edges(&g, StreamOrder::Random(3))),
            sorted(g.edge_vec())
        );
    }

    #[test]
    fn bfs_ranks_are_a_bijection() {
        let g = chain_with_branch();
        let ranks = bfs_ranks(&g);
        let mut seen = vec![false; ranks.len()];
        for &r in &ranks {
            assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
        // Root keeps rank 0.
        assert_eq!(ranks[0], 0);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = chain_with_branch();
        let r = relabel_by_bfs(&g);
        assert_eq!(r.num_vertices(), g.num_vertices());
        assert_eq!(r.num_edges(), g.num_edges());
        // Degree multiset is preserved under relabeling.
        let mut dg: Vec<u64> = (0..g.num_vertices() as u32)
            .map(|v| g.out_degree(v))
            .collect();
        let mut dr: Vec<u64> = (0..r.num_vertices() as u32)
            .map(|v| r.out_degree(v))
            .collect();
        dg.sort_unstable();
        dr.sort_unstable();
        assert_eq!(dg, dr);
    }

    #[test]
    fn empty_graph_orders() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        assert!(bfs_edge_order(&g).is_empty());
        assert!(dfs_edge_order(&g).is_empty());
        assert!(random_edge_order(&g, 1).is_empty());
        assert!(bfs_ranks(&g).is_empty());
    }

    #[test]
    fn dfs_order_is_a_permutation_of_edges() {
        let g = chain_with_branch();
        assert_eq!(sorted(dfs_edge_order(&g)), sorted(g.edge_vec()));
        assert_eq!(
            sorted(ordered_edges(&g, StreamOrder::Dfs)),
            sorted(g.edge_vec())
        );
    }

    #[test]
    fn dfs_explores_depth_first() {
        // 0 -> {1, 3}, 1 -> 2: DFS emits 1's burst before returning to 3's
        // subtree, so e(1,2) precedes any edge out of 3.
        let g = CsrGraph::from_edges(
            5,
            &[
                Edge::new(0, 1),
                Edge::new(0, 3),
                Edge::new(1, 2),
                Edge::new(3, 4),
            ],
        )
        .unwrap();
        let dfs = dfs_edge_order(&g);
        let pos_12 = dfs.iter().position(|e| *e == Edge::new(1, 2)).unwrap();
        let pos_34 = dfs.iter().position(|e| *e == Edge::new(3, 4)).unwrap();
        assert!(
            pos_12 < pos_34,
            "DFS should finish 1's subtree first: {dfs:?}"
        );
    }

    #[test]
    fn dfs_covers_disconnected_components() {
        let g = chain_with_branch();
        assert!(dfs_edge_order(&g).contains(&Edge::new(4, 5)));
    }
}
