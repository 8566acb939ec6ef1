//! Synthetic graph generators.
//!
//! The paper evaluates on WebGraph corpora (UK-2002, Arabic-2005,
//! WebBase-2001, IT-2004) and the Twitter social graph — multi-billion-edge
//! datasets we cannot ship. DESIGN.md §4 documents the substitution: the
//! site-structured crawl generator ([`generate_web_crawl`]) stands in for
//! the web corpora, and Barabási–Albert preferential attachment
//! ([`generate_ba`]) stands in for Twitter.
//!
//! All generators are deterministic for a fixed seed and label vertices in
//! creation (crawl) order, so `StreamOrder::AsIs` approximates the crawl
//! stream and `StreamOrder::Bfs` re-derives a strict BFS order.

mod ba;
mod degree;
mod web_crawl;

pub use ba::{generate_ba, BaConfig};
pub use degree::{CalibratedPowerLaw, PowerLawDegrees};
pub use web_crawl::{generate_web_crawl, site_boundaries, WebCrawlConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    /// A graph a generator filled in place is the graph `from_edges`
    /// counting-sorts out of the same edges.
    fn holds_from_edges(g: &CsrGraph, what: &str) {
        let rebuilt = CsrGraph::from_edges(g.num_vertices(), &g.edge_vec()).unwrap();
        assert_eq!(&rebuilt, g, "{what}");
    }

    #[test]
    fn in_place_generators_equal_from_edges() {
        for seed in [1u64, 2, 3, 0x3EB] {
            for vertices in [1u64, 2, 3, 700] {
                let web = generate_web_crawl(&WebCrawlConfig {
                    vertices,
                    min_site_size: 4,
                    max_site_size: 64,
                    seed,
                    ..Default::default()
                });
                holds_from_edges(&web, &format!("web n={vertices} seed={seed}"));
                let ba = generate_ba(&BaConfig {
                    vertices,
                    edges_per_vertex: 3,
                    seed,
                });
                holds_from_edges(&ba, &format!("ba n={vertices} seed={seed}"));
                for g in [&web, &ba] {
                    assert_eq!(g.num_vertices(), vertices);
                }
            }
        }
    }
}
