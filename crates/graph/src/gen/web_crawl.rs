//! Site-structured web-crawl generator — the primary substitute for the
//! paper's WebGraph corpora (UK-2002, Arabic-2005, WebBase-2001, IT-2004).
//!
//! Real web corpora are dominated by *host locality*: pages of a site link
//! mostly within the site, sites have power-law sizes, and the WebGraph
//! orderings used by the paper's datasets number pages of a host
//! contiguously (URL-lexicographic order) — which is exactly the crawl/BFS
//! locality CLUGP's clustering exploits. A plain copying model (Kumar et
//! al.) has power-law degrees but *no* locality (prototypes are global), so
//! it cannot stand in for those corpora on its own.
//!
//! This generator builds: power-law site sizes; per-page power-law
//! out-degrees; each link intra-site with probability `intra_site_fraction`
//! (preferential within the site) and cross-site otherwise (preferential
//! over all pages, producing global power-law in-degrees and hub pages).
//! Page ids are contiguous per site, in crawl order.

use super::degree::{CalibratedPowerLaw, PowerLawDegrees};
use crate::csr::CsrGraph;
use crate::types::VertexId;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration for the site-structured web-crawl generator.
#[derive(Debug, Clone)]
pub struct WebCrawlConfig {
    /// Total number of pages.
    pub vertices: u64,
    /// Target mean out-degree (so `|E| ≈ vertices · mean_out_degree`).
    pub mean_out_degree: f64,
    /// Probability that a link stays within the page's site (web corpora
    /// measure ~0.75–0.9).
    pub intra_site_fraction: f64,
    /// Power-law exponent of site sizes.
    pub site_size_alpha: f64,
    /// Minimum pages per site.
    pub min_site_size: u64,
    /// Maximum pages per site.
    pub max_site_size: u64,
    /// Power-law exponent of page out-degrees.
    pub out_degree_alpha: f64,
    /// Maximum out-degree of a page.
    pub max_out_degree: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebCrawlConfig {
    fn default() -> Self {
        WebCrawlConfig {
            vertices: 10_000,
            mean_out_degree: 12.0,
            intra_site_fraction: 0.8,
            site_size_alpha: 1.9,
            min_site_size: 16,
            max_site_size: 1 << 14,
            out_degree_alpha: 2.1,
            max_out_degree: 1 << 12,
            seed: 0x3EB,
        }
    }
}

/// Generates a site-structured web graph. Page ids are contiguous per site
/// in crawl order, so `StreamOrder::AsIs` is the crawl stream and
/// `StreamOrder::Bfs` re-derives a strict BFS order.
///
/// # Panics
///
/// Panics if `vertices == 0` or `intra_site_fraction ∉ [0, 1]`.
pub fn generate_web_crawl(cfg: &WebCrawlConfig) -> CsrGraph {
    assert!(cfg.vertices > 0, "web crawl needs at least one page");
    assert!(
        (0.0..=1.0).contains(&cfg.intra_site_fraction),
        "intra_site_fraction must be a probability"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Power-law site sizes covering all pages; last site truncated.
    let size_sampler = PowerLawDegrees::new(
        cfg.site_size_alpha,
        cfg.min_site_size.max(1),
        cfg.max_site_size.max(cfg.min_site_size.max(1)),
    );
    let mut site_start: Vec<u64> = vec![0];
    while *site_start.last().unwrap() < cfg.vertices {
        let size = size_sampler.sample(&mut rng);
        site_start.push((site_start.last().unwrap() + size).min(cfg.vertices));
    }
    let num_sites = site_start.len() - 1;

    let out_sampler = out_degree_sampler(cfg);
    // Pages are emitted in id order, so the CSR fills in place: each page
    // pushes its targets and closes its offset entry.
    let mut offsets: Vec<u64> = Vec::with_capacity(cfg.vertices as usize + 1);
    offsets.push(0);
    let mut targets: Vec<VertexId> =
        Vec::with_capacity((cfg.vertices as f64 * cfg.mean_out_degree) as usize);
    // Global preferential pool: popular pages accumulate in-links.
    let mut global_pool: Vec<VertexId> = Vec::with_capacity(targets.capacity() / 4 + 16);

    for site in 0..num_sites {
        let (lo, hi) = (site_start[site], site_start[site + 1]);
        let span = hi - lo;
        if span == 0 {
            continue;
        }
        // Site-local preferential pool, seeded with the site root (the
        // "home page" every page links toward).
        let mut site_pool: Vec<VertexId> = Vec::with_capacity((span * 4) as usize);
        site_pool.push(lo as VertexId);
        for page in lo..hi {
            let page = page as VertexId;
            let d = out_sampler.sample(&mut rng);
            for _ in 0..d {
                let intra = span > 1 && rng.gen_bool(cfg.intra_site_fraction);
                let target = if intra {
                    // Preferential within the site with a uniform escape
                    // hatch so leaf pages are reachable too.
                    if rng.gen_bool(0.25) {
                        (lo + rng.gen_range(0..span)) as VertexId
                    } else {
                        site_pool[rng.gen_range(0..site_pool.len())]
                    }
                } else if global_pool.is_empty() || rng.gen_bool(0.1) {
                    rng.gen_range(0..cfg.vertices) as VertexId
                } else {
                    global_pool[rng.gen_range(0..global_pool.len())]
                };
                if target == page {
                    continue;
                }
                targets.push(target);
                if intra {
                    site_pool.push(target);
                } else {
                    global_pool.push(target);
                }
            }
            offsets.push(targets.len() as u64);
            // Every page is discoverable through both pools.
            site_pool.push(page);
            if rng.gen_bool(0.05) {
                global_pool.push(page);
            }
        }
    }

    CsrGraph::from_adjacency(offsets, targets)
}

/// Site boundaries implied by a config (for tests and ground-truth
/// locality measurements): returns the first page id of each site plus the
/// terminal bound.
pub fn site_boundaries(cfg: &WebCrawlConfig) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let size_sampler = PowerLawDegrees::new(
        cfg.site_size_alpha,
        cfg.min_site_size.max(1),
        cfg.max_site_size.max(cfg.min_site_size.max(1)),
    );
    let mut site_start: Vec<u64> = vec![0];
    while *site_start.last().unwrap() < cfg.vertices {
        let size = size_sampler.sample(&mut rng);
        site_start.push((site_start.last().unwrap() + size).min(cfg.vertices));
    }
    site_start
}

fn out_degree_sampler(cfg: &WebCrawlConfig) -> CalibratedPowerLaw {
    CalibratedPowerLaw::new(
        cfg.out_degree_alpha,
        cfg.mean_out_degree,
        cfg.max_out_degree.max(2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    fn small() -> WebCrawlConfig {
        WebCrawlConfig {
            vertices: 5_000,
            seed: 21,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate_web_crawl(&small()), generate_web_crawl(&small()));
    }

    #[test]
    fn edge_count_tracks_mean_out_degree() {
        let cfg = small();
        let g = generate_web_crawl(&cfg);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            (mean - cfg.mean_out_degree).abs() < cfg.mean_out_degree * 0.5,
            "mean out-degree {mean} vs target {}",
            cfg.mean_out_degree
        );
    }

    #[test]
    fn majority_of_links_are_intra_site() {
        let cfg = small();
        let g = generate_web_crawl(&cfg);
        let bounds = site_boundaries(&cfg);
        let site_of = |v: u64| -> usize { bounds.partition_point(|&b| b <= v) - 1 };
        let intra = g
            .edges()
            .filter(|e| site_of(u64::from(e.src)) == site_of(u64::from(e.dst)))
            .count();
        let frac = intra as f64 / g.num_edges() as f64;
        assert!(
            frac > 0.6,
            "intra-site fraction {frac} should reflect the 0.8 config"
        );
    }

    #[test]
    fn in_degrees_are_heavy_tailed() {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: 20_000,
            seed: 5,
            ..Default::default()
        });
        let in_deg = g.in_degrees();
        let max_in = *in_deg.iter().max().unwrap();
        let mean_in = in_deg.iter().sum::<u64>() as f64 / in_deg.len() as f64;
        assert!(
            max_in as f64 > 15.0 * mean_in,
            "max in-degree {max_in} vs mean {mean_in}"
        );
    }

    #[test]
    fn alpha_estimate_is_plausible() {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: 20_000,
            seed: 6,
            ..Default::default()
        });
        let alpha = analysis::estimate_power_law_alpha(&analysis::total_degree_histogram(&g));
        assert!((1.3..3.5).contains(&alpha), "alpha {alpha}");
    }

    #[test]
    fn no_self_loops() {
        let g = generate_web_crawl(&small());
        assert!(g.edges().all(|e| !e.is_self_loop()));
    }

    #[test]
    fn site_boundaries_cover_all_pages() {
        let cfg = small();
        let b = site_boundaries(&cfg);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), cfg.vertices);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn rejects_zero_pages() {
        let _ = generate_web_crawl(&WebCrawlConfig {
            vertices: 0,
            ..Default::default()
        });
    }

    #[test]
    fn single_page_site_graph() {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: 1,
            ..small()
        });
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
