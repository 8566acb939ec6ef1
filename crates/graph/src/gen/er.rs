//! Erdős–Rényi `G(n, m)` random graphs.
//!
//! The degenerate control: no skew, no locality. Useful for tests (every
//! partitioner behaves ~like Hashing here) and for property-test inputs.

use crate::csr::CsrGraph;
use crate::types::Edge;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration for the Erdős–Rényi generator.
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Number of vertices.
    pub vertices: u64,
    /// Number of directed edges to draw (uniformly, with replacement;
    /// self-loops are rejected and redrawn).
    pub edges: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            vertices: 10_000,
            edges: 100_000,
            seed: 0xE2,
        }
    }
}

/// Generates a `G(n, m)` digraph with `m` uniform non-loop edges.
///
/// # Panics
///
/// Panics if `vertices < 2` while `edges > 0`.
pub fn generate_er(cfg: &ErConfig) -> CsrGraph {
    assert!(
        cfg.edges == 0 || cfg.vertices >= 2,
        "need at least two vertices to draw non-loop edges"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut edges = Vec::with_capacity(cfg.edges as usize);
    while (edges.len() as u64) < cfg.edges {
        let src = rng.gen_range(0..cfg.vertices) as u32;
        let dst = rng.gen_range(0..cfg.vertices) as u32;
        if src != dst {
            edges.push(Edge { src, dst });
        }
    }
    CsrGraph::from_edges(cfg.vertices.max(1), &edges).expect("generator stays in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = generate_er(&ErConfig {
            vertices: 100,
            edges: 500,
            seed: 4,
        });
        assert_eq!(g.num_edges(), 500);
        assert_eq!(g.num_vertices(), 100);
    }

    #[test]
    fn deterministic() {
        let cfg = ErConfig::default();
        assert_eq!(generate_er(&cfg), generate_er(&cfg));
    }

    #[test]
    fn zero_edges_allowed() {
        let g = generate_er(&ErConfig {
            vertices: 1,
            edges: 0,
            seed: 0,
        });
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "two vertices")]
    fn rejects_impossible_config() {
        let _ = generate_er(&ErConfig {
            vertices: 1,
            edges: 5,
            seed: 0,
        });
    }
}
