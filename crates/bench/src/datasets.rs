//! Synthetic analogues of the paper's datasets (Table III).
//!
//! Paper corpora vs. our analogues (scale ≈ 1/256 of |V| by default; the
//! `|E|/|V|` ratios match the originals):
//!
//! | Alias     | Paper source    | Paper |V|, |E|   | Analogue (scale=1.0) |
//! |-----------|-----------------|-------------------|----------------------|
//! | uk-s      | uk-2002         | 19M, 0.30B        | web crawl, 74k, ~1.2M |
//! | arabic-s  | arabic-2005     | 22M, 0.60B        | web crawl, 86k, ~2.3M |
//! | webbase-s | webbase-2001    | 118M, 1.0B        | web crawl, 230k, ~2.0M |
//! | it-s      | it-2004         | 41M, 1.5B         | web crawl, 160k, ~5.9M |
//! | twitter-s | twitter         | 41M, 1.4B         | BA social, 160k, ~5.4M |
//!
//! Web analogues use the site-structured crawl generator (power-law sites,
//! ~88% intra-site links, power-law in/out degrees); the Twitter analogue is
//! preferential attachment with no site locality — the property split the
//! paper leans on when explaining Fig. 3 vs Fig. 4.

use clugp_graph::csr::CsrGraph;
use clugp_graph::gen::{generate_ba, generate_web_crawl, BaConfig, WebCrawlConfig};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Identifiers of the evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// uk-2002 analogue.
    UkS,
    /// arabic-2005 analogue.
    ArabicS,
    /// webbase-2001 analogue.
    WebBaseS,
    /// it-2004 analogue.
    ItS,
    /// twitter analogue (social graph, no crawl locality).
    TwitterS,
}

impl Dataset {
    /// The four web-graph analogues of Fig. 3 / Fig. 8.
    pub const WEB: [Dataset; 4] = [
        Dataset::UkS,
        Dataset::ArabicS,
        Dataset::WebBaseS,
        Dataset::ItS,
    ];

    /// All five datasets.
    pub const ALL: [Dataset; 5] = [
        Dataset::UkS,
        Dataset::ArabicS,
        Dataset::WebBaseS,
        Dataset::ItS,
        Dataset::TwitterS,
    ];

    /// Short name used in tables and CSV files.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::UkS => "uk-s",
            Dataset::ArabicS => "arabic-s",
            Dataset::WebBaseS => "webbase-s",
            Dataset::ItS => "it-s",
            Dataset::TwitterS => "twitter-s",
        }
    }

    /// The paper dataset this analogue substitutes.
    pub fn paper_source(&self) -> &'static str {
        match self {
            Dataset::UkS => "uk-2002",
            Dataset::ArabicS => "arabic-2005",
            Dataset::WebBaseS => "webbase-2001",
            Dataset::ItS => "it-2004",
            Dataset::TwitterS => "twitter",
        }
    }

    /// Base vertex count at `scale = 1.0`.
    fn base_vertices(&self) -> u64 {
        match self {
            Dataset::UkS => 74_000,
            Dataset::ArabicS => 86_000,
            Dataset::WebBaseS => 230_000,
            Dataset::ItS => 160_000,
            Dataset::TwitterS => 160_000,
        }
    }

    /// Mean degree matching the paper's `|E|/|V|` ratio.
    fn mean_degree(&self) -> f64 {
        match self {
            Dataset::UkS => 15.8,
            Dataset::ArabicS => 27.0,
            Dataset::WebBaseS => 8.5,
            Dataset::ItS => 36.6,
            Dataset::TwitterS => 34.0,
        }
    }

    /// Generates the graph at the given scale (multiplier on |V|).
    pub fn generate(&self, scale: f64) -> CsrGraph {
        let vertices = ((self.base_vertices() as f64 * scale) as u64).max(1_000);
        match self {
            Dataset::TwitterS => generate_ba(&BaConfig {
                vertices,
                edges_per_vertex: self.mean_degree() as u64,
                seed: 0x07_717_7e4,
            }),
            web => generate_web_crawl(&WebCrawlConfig {
                vertices,
                mean_out_degree: web.mean_degree(),
                intra_site_fraction: 0.88,
                site_size_alpha: 1.8,
                min_site_size: 32,
                max_site_size: 1 << 14,
                out_degree_alpha: 2.1,
                max_out_degree: 1 << 12,
                seed: match web {
                    Dataset::UkS => 0x2002,
                    Dataset::ArabicS => 0xA2AB1C,
                    Dataset::WebBaseS => 0x3EBBA5E,
                    Dataset::ItS => 0x172004,
                    Dataset::TwitterS => unreachable!(),
                },
            }),
        }
    }
}

/// Parses a dataset scale (the value of `CLUGP_SCALE`): a finite number
/// above zero.
pub fn parse_scale(value: &str) -> Result<f64, String> {
    match value.trim().parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "CLUGP_SCALE={value:?}: expected a number above zero, e.g. 0.05"
        )),
    }
}

/// Cached graph access: generates once per `(dataset, permille-scale)` and
/// reuses across experiments in the same process.
pub fn load(dataset: Dataset, scale: f64) -> std::sync::Arc<CsrGraph> {
    type Cache = Mutex<HashMap<(Dataset, u64), std::sync::Arc<CsrGraph>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let key = (dataset, (scale * 1000.0) as u64);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(g) = cache.lock().unwrap().get(&key) {
        return g.clone();
    }
    let g = std::sync::Arc::new(dataset.generate(scale));
    cache.lock().unwrap().insert(key, g.clone());
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_sources() {
        assert_eq!(Dataset::UkS.name(), "uk-s");
        assert_eq!(Dataset::ItS.paper_source(), "it-2004");
        assert_eq!(Dataset::ALL.len(), 5);
        assert_eq!(Dataset::WEB.len(), 4);
    }

    #[test]
    fn tiny_scale_generates_quickly() {
        let g = Dataset::UkS.generate(0.02);
        assert!(g.num_vertices() >= 1_000);
        assert!(g.num_edges() > g.num_vertices());
    }

    #[test]
    fn twitter_is_social_shaped() {
        let g = Dataset::TwitterS.generate(0.02);
        // BA: ~m edges per vertex.
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(mean > 20.0, "mean degree {mean}");
    }

    #[test]
    fn scale_parses_positive_numbers_only() {
        assert_eq!(parse_scale("0.05"), Ok(0.05));
        assert_eq!(parse_scale(" 2 "), Ok(2.0));
        for bad in ["0,1", "", "abc", "0", "-1", "inf", "NaN"] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.starts_with("CLUGP_SCALE="), "{bad:?}: {err}");
        }
    }

    #[test]
    fn cache_returns_same_graph() {
        let a = load(Dataset::UkS, 0.02);
        let b = load(Dataset::UkS, 0.02);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }
}
