//! PageRank — the paper's headline workload (Fig. 4(b), Fig. 8).
//!
//! PowerGraph-style non-normalized PageRank: each superstep computes
//! `rank(v) = (1 − d) + d · Σ_{u→v} rank(u) / outdeg(u)` for a fixed number
//! of iterations (the paper runs PageRank to a fixed iteration budget).
//! Dangling vertices contribute nothing, matching PowerGraph's default.

use crate::runtime::{VertexCtx, VertexProgram};
use clugp_graph::csr::CsrGraph;
use clugp_graph::types::VertexId;

/// The PageRank vertex program.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Damping factor `d` (0.85 in the paper's systems).
    pub damping: f64,
    /// Number of iterations (supersteps).
    pub iterations: usize,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            iterations: 10,
        }
    }
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Accum = f64;

    fn init(&self, _v: VertexId, _ctx: &VertexCtx) -> f64 {
        1.0
    }

    fn gather(&self, neighbor: &f64, ctx: &VertexCtx) -> f64 {
        // Contribution of an in-neighbor: rank / out-degree. The out-degree
        // is ≥ 1 for any gathered neighbor (it has this out-edge).
        neighbor / ctx.out_degree as f64
    }

    fn merge(&self, a: &mut f64, b: f64) {
        *a += b;
    }

    fn apply(&self, _v: VertexId, _old: &f64, acc: Option<f64>, _ctx: &VertexCtx) -> f64 {
        (1.0 - self.damping) + self.damping * acc.unwrap_or(0.0)
    }

    fn max_supersteps(&self) -> usize {
        self.iterations
    }
}

/// Sequential reference PageRank with identical semantics.
pub fn sequential_pagerank(graph: &CsrGraph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    let mut rank = vec![1.0f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        for v in 0..n as u32 {
            let d = graph.out_degree(v);
            if d == 0 {
                continue;
            }
            let share = rank[v as usize] / d as f64;
            for &t in graph.out_neighbors(v) {
                next[t as usize] += share;
            }
        }
        for v in 0..n {
            rank[v] = (1.0 - damping) + damping * next[v];
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::DistributedGraph;
    use crate::runtime::Engine;
    use clugp::baselines::Hashing;
    use clugp::Partitioner;
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < 1e-9 * x.abs().max(1.0),
                "vertex {i}: engine {x} vs reference {y}"
            );
        }
    }

    #[test]
    fn matches_reference_on_cycle() {
        let edges: Vec<Edge> = (0..6).map(|i| Edge::new(i, (i + 1) % 6)).collect();
        let g = CsrGraph::from_edges_auto(&edges);
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let run = Hashing.partition(&mut s, 3).unwrap();
        let d = DistributedGraph::place(&edges, &run.partitioning);
        let engine = Engine::new(&d);
        let (values, _) = engine.run(&PageRank::default());
        let reference = sequential_pagerank(&g, 0.85, 10);
        assert_close(&values, &reference);
    }

    #[test]
    fn dangling_vertices_keep_base_rank() {
        let edges = vec![Edge::new(0, 1)];
        let g = CsrGraph::from_edges(3, &edges).unwrap();
        let reference = sequential_pagerank(&g, 0.85, 5);
        // Vertex 2 is isolated: rank = 1 - d.
        assert!((reference[2] - 0.15).abs() < 1e-12);
        // Vertex 0 has no in-edges: also base rank.
        assert!((reference[0] - 0.15).abs() < 1e-12);
        assert!(reference[1] > reference[0]);
    }

    #[test]
    fn rank_mass_flows_to_sinks_of_a_star() {
        let edges: Vec<Edge> = (1..=5).map(|i| Edge::new(i, 0)).collect();
        let g = CsrGraph::from_edges_auto(&edges);
        let r = sequential_pagerank(&g, 0.85, 10);
        assert!(r[0] > r[1] * 3.0, "hub should dominate: {r:?}");
    }

    #[test]
    fn iteration_count_is_respected() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 0)];
        let g = CsrGraph::from_edges_auto(&edges);
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let run = Hashing.partition(&mut s, 2).unwrap();
        let d = DistributedGraph::place(&edges, &run.partitioning);
        let engine = Engine::new(&d);
        let (_, stats) = engine.run(&PageRank {
            damping: 0.85,
            iterations: 7,
        });
        assert_eq!(stats.num_supersteps(), 7);
    }
}
