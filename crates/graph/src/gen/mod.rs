//! Synthetic graph generators.
//!
//! The paper evaluates on WebGraph corpora (UK-2002, Arabic-2005,
//! WebBase-2001, IT-2004) and the Twitter social graph — multi-billion-edge
//! datasets we cannot ship. DESIGN.md §4 documents the substitution: the
//! site-structured crawl generator ([`generate_web_crawl`]) and the Kumar
//! copying model ([`generate_copying_model`]) stand in for the web corpora,
//! and Barabási–Albert preferential attachment ([`generate_ba`]) stands in
//! for Twitter. Erdős–Rényi ([`generate_er`]) is the structureless graph
//! the BFS and connected-components tests run on.
//!
//! All generators are deterministic for a fixed seed and label vertices in
//! creation (crawl) order, so `StreamOrder::AsIs` approximates the crawl
//! stream and `StreamOrder::Bfs` re-derives a strict BFS order.

mod ba;
mod copying;
mod degree;
mod er;
mod web_crawl;

pub use ba::{generate_ba, BaConfig};
pub use copying::{generate_copying_model, CopyingModelConfig};
pub use degree::{CalibratedPowerLaw, PowerLawDegrees};
pub use er::{generate_er, ErConfig};
pub use web_crawl::{generate_web_crawl, site_boundaries, WebCrawlConfig};
