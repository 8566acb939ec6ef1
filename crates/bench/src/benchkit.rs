//! Fixed small-scale datasets that exercise the same code paths as the
//! full experiment harness in seconds.

use crate::algorithms::Algorithm;
use crate::datasets::Dataset;
use crate::runner::{run_cell, PreparedDataset};

/// The reduced dataset scale (`CLUGP_BENCH_SCALE` to override).
pub fn bench_scale() -> f64 {
    std::env::var("CLUGP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(0.03)
}

/// The standard web-graph bench input (uk-s analogue at bench scale).
pub fn web_dataset() -> PreparedDataset {
    PreparedDataset::load(Dataset::UkS, bench_scale())
}

/// The heavy web-graph bench input (it-s analogue at bench scale).
pub fn heavy_dataset() -> PreparedDataset {
    PreparedDataset::load(Dataset::ItS, bench_scale())
}

/// The social-graph bench input (twitter analogue at bench scale).
pub fn social_dataset() -> PreparedDataset {
    PreparedDataset::load(Dataset::TwitterS, bench_scale())
}

/// Prints a compact replication-factor series for a figure (so bench logs
/// double as quality snapshots).
pub fn print_rf_series(title: &str, prep: &PreparedDataset, algos: &[Algorithm], ks: &[u32]) {
    eprintln!("# {title} ({}, |E|={})", prep.name, prep.num_edges());
    for &algo in algos {
        let series: Vec<String> = ks
            .iter()
            .map(|&k| format!("k{}={:.3}", k, run_cell(prep, algo, k).replication_factor))
            .collect();
        eprintln!("#   {:<8} {}", algo.name(), series.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_datasets_load() {
        let w = web_dataset();
        assert!(w.num_edges() > 0);
    }
}
