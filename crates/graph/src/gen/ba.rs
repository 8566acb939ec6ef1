//! Barabási–Albert preferential attachment — the Twitter substitute.
//!
//! Social graphs lack the crawl locality of web graphs: links attach to
//! globally popular vertices rather than to a copied neighborhood. BA
//! reproduces exactly the property the paper leans on when explaining why
//! CLUGP's clustering wins less on Twitter than on web corpora (Figure 4).

use crate::csr::CsrGraph;
use crate::types::VertexId;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration for the Barabási–Albert generator.
#[derive(Debug, Clone)]
pub struct BaConfig {
    /// Number of vertices.
    pub vertices: u64,
    /// Edges added per arriving vertex (the `m` parameter); the final graph
    /// has `≈ vertices * edges_per_vertex` edges.
    pub edges_per_vertex: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaConfig {
    fn default() -> Self {
        BaConfig {
            vertices: 10_000,
            edges_per_vertex: 12,
            seed: 0xBA,
        }
    }
}

/// Generates a BA preferential-attachment graph. Each new vertex attaches
/// `edges_per_vertex` out-edges to targets drawn proportionally to degree.
///
/// # Panics
///
/// Panics if `vertices == 0` or `edges_per_vertex == 0`.
pub fn generate_ba(cfg: &BaConfig) -> CsrGraph {
    assert!(cfg.vertices > 0, "BA needs at least one vertex");
    assert!(
        cfg.edges_per_vertex > 0,
        "BA needs at least one edge per vertex"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let m = cfg.edges_per_vertex as usize;
    // Vertices arrive in id order, so the CSR fills in place; vertex 0
    // attaches nothing.
    let mut offsets: Vec<u64> = Vec::with_capacity(cfg.vertices as usize + 1);
    offsets.extend([0, 0]);
    let mut targets: Vec<VertexId> = Vec::with_capacity(cfg.vertices as usize * m);
    // Degree-proportional pool: each endpoint occurrence is one ticket.
    let mut pool: Vec<VertexId> = Vec::with_capacity(2 * cfg.vertices as usize * m);
    pool.push(0);

    for v in 1..cfg.vertices as u32 {
        let attach = m.min(v as usize);
        for _ in 0..attach {
            let target = pool[rng.gen_range(0..pool.len())];
            if target == v {
                continue;
            }
            targets.push(target);
            pool.push(target);
            pool.push(v);
        }
        offsets.push(targets.len() as u64);
        // Ensure every vertex has at least one pool ticket so isolated
        // vertices cannot occur.
        pool.push(v);
    }

    CsrGraph::from_adjacency(offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = BaConfig {
            vertices: 2_000,
            edges_per_vertex: 5,
            seed: 9,
        };
        assert_eq!(generate_ba(&cfg), generate_ba(&cfg));
    }

    #[test]
    fn edge_count_near_target() {
        let cfg = BaConfig {
            vertices: 5_000,
            edges_per_vertex: 6,
            seed: 1,
        };
        let g = generate_ba(&cfg);
        let target = cfg.vertices * cfg.edges_per_vertex;
        assert!(
            g.num_edges() > target * 8 / 10,
            "{} vs {}",
            g.num_edges(),
            target
        );
        assert!(g.num_edges() <= target);
    }

    #[test]
    fn hub_emerges() {
        let g = generate_ba(&BaConfig {
            vertices: 10_000,
            edges_per_vertex: 4,
            seed: 2,
        });
        let in_deg = g.in_degrees();
        let max_in = *in_deg.iter().max().unwrap();
        assert!(max_in > 100, "expected a hub, max in-degree was {max_in}");
    }

    #[test]
    fn no_self_loops() {
        let g = generate_ba(&BaConfig {
            vertices: 1_000,
            edges_per_vertex: 3,
            seed: 3,
        });
        assert!(g.edges().all(|e| !e.is_self_loop()));
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn rejects_empty() {
        let _ = generate_ba(&BaConfig {
            vertices: 0,
            ..Default::default()
        });
    }
}
