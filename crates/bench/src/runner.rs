//! Runs one `(dataset, algorithm, k)` experiment cell and collects the
//! measurements every figure consumes.

use crate::algorithms::{Algorithm, BuildOptions};
use crate::datasets::Dataset;
use clugp::metrics::PartitionQuality;
use clugp_graph::csr::CsrGraph;
use clugp_graph::order::{ordered_edges, StreamOrder, RANDOM_ORDER_SEED};
use clugp_graph::stream::InMemoryStream;
use clugp_graph::types::Edge;
use serde::Serialize;
use std::sync::Arc;

/// A dataset with both stream orders materialized once.
pub struct PreparedDataset {
    /// Dataset name (e.g. `uk-s`).
    pub name: String,
    /// The underlying graph.
    pub graph: Arc<CsrGraph>,
    bfs: Vec<Edge>,
    random: Vec<Edge>,
}

impl PreparedDataset {
    /// Loads (or reuses) the dataset at `scale` and materializes its BFS
    /// and random edge orders.
    pub fn load(dataset: Dataset, scale: f64) -> Self {
        let graph = crate::datasets::load(dataset, scale);
        PreparedDataset::from_graph(dataset.name(), graph)
    }

    /// Prepares an arbitrary graph (used by the sampling experiment).
    pub fn from_graph(name: &str, graph: Arc<CsrGraph>) -> Self {
        let bfs = ordered_edges(&graph, StreamOrder::Bfs);
        let random = ordered_edges(&graph, StreamOrder::Random(RANDOM_ORDER_SEED));
        PreparedDataset {
            name: name.to_string(),
            graph,
            bfs,
            random,
        }
    }

    /// The edge stream this algorithm gets (its best order, per the paper).
    pub fn edges_for(&self, algo: Algorithm) -> &[Edge] {
        match algo.stream_order() {
            StreamOrder::Bfs => &self.bfs,
            _ => &self.random,
        }
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.bfs.len() as u64
    }
}

/// Measurements from one experiment cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellResult {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of partitions.
    pub k: u32,
    /// Replication factor (paper Eq. 1).
    pub replication_factor: f64,
    /// Relative load balance `k·max|p_i|/|E|`.
    pub relative_balance: f64,
    /// End-to-end partitioning wall time in seconds.
    pub partition_secs: f64,
    /// Peak working-state bytes (Fig. 6 quantity).
    pub memory_bytes: usize,
    /// Named phase durations in seconds (CLUGP's four passes).
    pub phases: Vec<(String, f64)>,
}

/// Runs `algo` on `prep` with `k` partitions and default options.
pub fn run_cell(prep: &PreparedDataset, algo: Algorithm, k: u32) -> CellResult {
    run_cell_with(prep, algo, k, &BuildOptions::default())
}

/// Runs with explicit [`BuildOptions`] (parameter-sweep figures).
pub fn run_cell_with(
    prep: &PreparedDataset,
    algo: Algorithm,
    k: u32,
    opts: &BuildOptions,
) -> CellResult {
    let edges = prep.edges_for(algo);
    let mut stream = InMemoryStream::new(prep.graph.num_vertices(), edges.to_vec());
    let mut partitioner = algo.build_with(opts);
    let run = partitioner
        .partition(&mut stream, k)
        .expect("partitioning failed on a generated dataset");
    let quality = PartitionQuality::compute(edges, &run.partitioning);
    CellResult {
        dataset: prep.name.clone(),
        algorithm: algo.name().to_string(),
        k,
        replication_factor: quality.replication_factor,
        relative_balance: quality.relative_balance,
        partition_secs: run.timings.total.as_secs_f64(),
        memory_bytes: run.memory.total_bytes(),
        phases: run
            .timings
            .phases
            .iter()
            .map(|(n, d)| (n.to_string(), d.as_secs_f64()))
            .collect(),
    }
}

/// The k sweep of the paper's figures, overridable via `CLUGP_KS`
/// (comma-separated).
pub fn k_sweep() -> Vec<u32> {
    if let Ok(ks) = std::env::var("CLUGP_KS") {
        let parsed: Vec<u32> = ks
            .split(',')
            .filter_map(|x| x.trim().parse().ok())
            .filter(|&x| x > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    vec![4, 8, 16, 32, 64, 128, 256]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PreparedDataset {
        PreparedDataset::load(Dataset::UkS, 0.02)
    }

    #[test]
    fn cell_produces_sane_metrics() {
        let prep = tiny();
        let cell = run_cell(&prep, Algorithm::Hashing, 4);
        assert_eq!(cell.k, 4);
        assert!(cell.replication_factor >= 1.0);
        assert!(cell.relative_balance >= 1.0);
        assert!(cell.partition_secs > 0.0);
    }

    #[test]
    fn clugp_cell_has_phases() {
        let prep = tiny();
        let cell = run_cell(&prep, Algorithm::Clugp, 4);
        assert_eq!(cell.phases.len(), 4);
        assert_eq!(cell.algorithm, "CLUGP");
    }

    #[test]
    fn orders_differ_between_algorithms() {
        let prep = tiny();
        let a = prep.edges_for(Algorithm::Hdrf);
        let b = prep.edges_for(Algorithm::Clugp);
        assert_eq!(a.len(), b.len());
        assert_ne!(a[..10], b[..10]);
    }

    #[test]
    fn default_k_sweep() {
        // Only check the default path (env-dependent branches are covered
        // by the binary's own integration usage).
        if std::env::var("CLUGP_KS").is_err() {
            assert_eq!(k_sweep(), vec![4, 8, 16, 32, 64, 128, 256]);
        }
    }
}
