//! Kumar et al. copying model — the web-graph substitute (DESIGN.md §4).
//!
//! Vertices arrive one at a time (crawl order). Each new page picks a random
//! *prototype* among existing pages and emits a power-law number of
//! out-links; each link is, with probability `copy_probability`, copied from
//! the prototype's out-links, and otherwise points to a page chosen by
//! preferential attachment on in-degree. Copying is what produces both the
//! power-law in-degrees and the dense link-locality (communities) that web
//! crawls exhibit — the two properties CLUGP's clustering step exploits.

use super::degree::CalibratedPowerLaw;
use crate::csr::CsrGraph;
use crate::types::VertexId;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of the copying-model generator.
#[derive(Debug, Clone)]
pub struct CopyingModelConfig {
    /// Number of pages (vertices) to create.
    pub vertices: u64,
    /// Target mean out-degree; per-vertex out-degrees are power-law with this
    /// mean (so `|E| ≈ vertices * mean_out_degree`).
    pub mean_out_degree: f64,
    /// Probability that a link is copied from the prototype instead of drawn
    /// by preferential attachment. Higher values yield stronger locality.
    pub copy_probability: f64,
    /// Power-law exponent for out-degrees.
    pub out_degree_alpha: f64,
    /// Maximum out-degree of a single page.
    pub max_out_degree: u64,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
}

impl Default for CopyingModelConfig {
    fn default() -> Self {
        CopyingModelConfig {
            vertices: 10_000,
            mean_out_degree: 12.0,
            copy_probability: 0.6,
            out_degree_alpha: 2.1,
            max_out_degree: 1 << 14,
            seed: 0xC1_06_9F,
        }
    }
}

/// Generates a copying-model web graph.
///
/// Vertex ids are creation (crawl) order, so streaming the result `AsIs`
/// resembles a crawl; `StreamOrder::Bfs` gives the strict BFS order the
/// paper assumes.
///
/// # Panics
///
/// Panics if `vertices == 0` or probabilities are outside `[0, 1]`.
pub fn generate_copying_model(cfg: &CopyingModelConfig) -> CsrGraph {
    assert!(cfg.vertices > 0, "copying model needs at least one vertex");
    assert!(
        (0.0..=1.0).contains(&cfg.copy_probability),
        "copy_probability must be a probability"
    );
    let n = cfg.vertices as usize;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let sampler = CalibratedPowerLaw::new(
        cfg.out_degree_alpha,
        cfg.mean_out_degree,
        cfg.max_out_degree.max(2),
    );

    // Out-adjacency, filled in place as pages arrive in id order; a
    // prototype's links are its finished slice of `targets`.
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut targets: Vec<VertexId> =
        Vec::with_capacity((cfg.vertices as f64 * cfg.mean_out_degree) as usize);
    // Preferential attachment pool: vertex ids repeated once per in-link,
    // plus one base entry per vertex so new pages are reachable targets.
    let mut pa_pool: Vec<VertexId> = Vec::with_capacity(targets.capacity() + n);

    // Seed page.
    offsets.extend([0, 0]);
    pa_pool.push(0);

    for v in 1..cfg.vertices as u32 {
        let prototype = rng.gen_range(0..v);
        let d = sampler.sample(&mut rng).min(u64::from(v)) as usize;
        let first = targets.len();
        let proto_lo = offsets[prototype as usize] as usize;
        let proto_len = offsets[prototype as usize + 1] as usize - proto_lo;
        for i in 0..d {
            let copied = proto_len > 0 && rng.gen_bool(cfg.copy_probability);
            let target = if copied {
                targets[proto_lo + rng.gen_range(0..proto_len)]
            } else if rng.gen_bool(0.15) {
                // Occasional uniform link keeps the graph connected-ish and
                // mimics navigational cross-site links.
                rng.gen_range(0..v)
            } else {
                pa_pool[rng.gen_range(0..pa_pool.len())]
            };
            // The prototype itself is a natural link target for the first
            // copied link (a page links to the page it was derived from).
            let target = if i == 0 && rng.gen_bool(0.3) {
                prototype
            } else {
                target
            };
            if target != v {
                targets.push(target);
            }
        }
        offsets.push(targets.len() as u64);
        // The pool grows only once the page's links are all drawn.
        pa_pool.extend_from_slice(&targets[first..]);
        pa_pool.push(v);
    }

    CsrGraph::from_adjacency(offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    fn small_cfg() -> CopyingModelConfig {
        CopyingModelConfig {
            vertices: 3_000,
            mean_out_degree: 8.0,
            copy_probability: 0.6,
            out_degree_alpha: 2.1,
            max_out_degree: 512,
            seed: 11,
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate_copying_model(&small_cfg());
        let b = generate_copying_model(&small_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small_cfg();
        let a = generate_copying_model(&cfg);
        cfg.seed = 12;
        let b = generate_copying_model(&cfg);
        assert_ne!(a.edge_vec(), b.edge_vec());
    }

    #[test]
    fn edge_count_tracks_mean_degree() {
        let cfg = small_cfg();
        let g = generate_copying_model(&cfg);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            (mean - cfg.mean_out_degree).abs() < cfg.mean_out_degree * 0.5,
            "mean degree {mean} too far from target {}",
            cfg.mean_out_degree
        );
    }

    #[test]
    fn no_self_loops() {
        let g = generate_copying_model(&small_cfg());
        assert!(g.edges().all(|e| !e.is_self_loop()));
    }

    #[test]
    fn in_degree_distribution_is_heavy_tailed() {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 20_000,
            ..small_cfg()
        });
        let in_deg = g.in_degrees();
        let max_in = *in_deg.iter().max().unwrap();
        let mean_in = in_deg.iter().sum::<u64>() as f64 / in_deg.len() as f64;
        // Power-law in-degree: the hub is orders of magnitude above the mean.
        assert!(
            max_in as f64 > 20.0 * mean_in,
            "max in-degree {max_in} vs mean {mean_in}"
        );
    }

    #[test]
    fn estimated_alpha_is_plausible() {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 20_000,
            ..small_cfg()
        });
        let alpha = analysis::estimate_power_law_alpha(&analysis::total_degree_histogram(&g));
        assert!(
            (1.3..3.5).contains(&alpha),
            "estimated alpha {alpha} outside plausible power-law band"
        );
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn rejects_zero_vertices() {
        let _ = generate_copying_model(&CopyingModelConfig {
            vertices: 0,
            ..Default::default()
        });
    }

    #[test]
    fn single_vertex_graph_is_empty() {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 1,
            ..small_cfg()
        });
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn calibrated_sampler_mean_close_to_target() {
        let cal = super::CalibratedPowerLaw::new(2.1, 12.0, 1 << 14);
        assert!((cal.mean() - 12.0).abs() < 0.6);
    }
}
