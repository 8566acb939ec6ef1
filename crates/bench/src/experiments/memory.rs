//! BENCH_memory — the Fig. 6-style memory-trajectory baseline
//! (`results/BENCH_memory.{json,csv}`).
//!
//! Two legs:
//!
//! 1. **Dense trajectory** — peak partitioner working-state bytes (the
//!    honest capacity-measured [`clugp::memory::MemoryReport`] totals) for
//!    the six competitors over the uk-s/twitter-s mix across the k sweep.
//!    Each row also carries `seed_layout_bytes`: what the pre-refactor
//!    layout would have held for the same run — identical except that the
//!    replica table kept a 4-byte count beside every row, where a row is now
//!    its own count (2-byte counts in between; the committed artifact was
//!    written then). `no_worse_than_seed` must hold everywhere;
//!    `narrow_counts_smaller` must hold for the replica-table algorithms
//!    (Greedy, HDRF).
//! 2. **Sparse-web** — the dataset the seed code cannot run at all: uk-s
//!    with vertex ids scrambled to sparse 64-bit values. Every vertex-cut
//!    algorithm partitions it through `clugp_graph::idmap::RemappedStream`
//!    and must produce assignments bit-identical to the same algorithm run
//!    over the pre-relabeled dense stream (remap = first-appearance dense
//!    relabeling). The leg records the id-map cost actually paid and
//!    `naive_dense_bytes`, the dense grow-on-demand allocation the seed
//!    layout would have attempted (`(max external id + 1) × 4` bytes — an
//!    OOM by ~nine orders of magnitude).
//!
//! The committed artifact is the memory trajectory future PRs are judged
//! against: per-vertex state regressions show up as `state_bytes` growth at
//! fixed `(dataset, algorithm, k)`.

use super::ExpContext;
use crate::algorithms::Algorithm;
use crate::datasets::{relabel_first_appearance, Dataset, SPARSE_WEB};
use crate::report::{results_dir, save_json, Table};
use crate::runner::PreparedDataset;
use clugp::partitioner::Partitioner;
use clugp_graph::idmap::{RawInMemoryStream, RemappedStream};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;

/// One `(dataset, algorithm, k)` row of the dense memory trajectory.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MemoryRun {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of partitions.
    pub k: u32,
    /// Vertices of the streamed graph.
    pub vertices: u64,
    /// Peak working-state bytes (itemized total of the run's MemoryReport).
    pub state_bytes: usize,
    /// Itemized `(structure, bytes)` breakdown.
    pub items: Vec<(String, usize)>,
    /// What the pre-refactor dense layout would have held for this run
    /// (fixed 4-byte replica counts; see the module docs for the model).
    pub seed_layout_bytes: usize,
}

/// The sparse-web leg for one algorithm.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SparseRun {
    /// Algorithm name.
    pub algorithm: String,
    /// Peak working-state bytes over the remapped stream.
    pub state_bytes: usize,
    /// Bytes of the id map (external↔internal tables) the run paid for.
    pub idmap_bytes: usize,
    /// Whether assignments matched the pre-relabeled dense run bit-for-bit.
    pub bit_identical: bool,
}

/// The `results/BENCH_memory.json` payload.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MemoryReport {
    /// Datasets of the dense trajectory.
    pub datasets: Vec<String>,
    /// The k sweep.
    pub ks: Vec<u32>,
    /// Dense trajectory rows.
    pub runs: Vec<MemoryRun>,
    /// True iff `state_bytes <= seed_layout_bytes` on every row.
    pub no_worse_than_seed: bool,
    /// True iff the replica-table algorithms (Greedy, HDRF) are strictly
    /// smaller than the seed layout on every row (the count column's bytes).
    pub narrow_counts_smaller: bool,
    /// Sparse-web dataset name.
    pub sparse_dataset: String,
    /// Edges of the sparse-web stream.
    pub sparse_edges: u64,
    /// Distinct vertices of the sparse-web stream.
    pub sparse_vertices: u64,
    /// Largest external id in the sparse-web stream.
    pub sparse_max_external_id: u64,
    /// Bytes a dense grow-on-demand layout would need for the sparse ids
    /// (`(max external id + 1) × 4`) — why the seed code cannot run it.
    pub naive_dense_bytes: f64,
    /// One row per algorithm on the sparse-web leg.
    pub sparse_runs: Vec<SparseRun>,
    /// True iff every sparse run matched its dense-relabeled reference.
    pub sparse_bit_identical: bool,
}

/// Pre-refactor layout model: the seed layout differed only in the replica
/// table's per-vertex count (a `u32` beside each row; a row is its own count
/// today), so the delta applies to the algorithms
/// that keep a replica table (Greedy, HDRF) and is zero for everything
/// else. The delta itself is measured off a probe [`ReplicaTable`] with the
/// run's dimensions — `ReplicaTable::memory_bytes_seed_layout` is the
/// single definition of the seed model, so a change to the table's layout
/// cannot drift this comparison.
fn seed_layout_bytes(algo: Algorithm, state_bytes: usize, vertices: u64, k: u32) -> usize {
    if !matches!(algo, Algorithm::Greedy | Algorithm::Hdrf) {
        return state_bytes;
    }
    let probe = clugp::state::ReplicaTable::new(vertices, k).expect("probe table dimensions");
    state_bytes + (probe.memory_bytes_seed_layout() - probe.memory_bytes())
}

/// BENCH_memory — dense memory-vs-k trajectory on uk-s/twitter-s plus the
/// sparse-web remap leg (see the module docs).
pub fn memory(ctx: &ExpContext) {
    let datasets = [Dataset::UkS, Dataset::TwitterS];

    // Leg 1: dense trajectory. One CSV with type-consistent columns across
    // both legs: dense rows leave the id-map columns empty, sparse rows
    // leave the seed-layout columns empty — every column stays one type
    // for machine consumers of the committed artifact.
    let mut runs: Vec<MemoryRun> = Vec::new();
    let mut table = Table::new(
        "BENCH_memory — partitioner state (KiB) vs #partitions (uk-s + twitter-s)",
        &[
            "Dataset",
            "Algorithm",
            "k",
            "State KiB",
            "Seed KiB",
            "Saved KiB",
            "IdMap KiB",
            "Identical",
        ],
    );
    for ds in datasets {
        let prep = PreparedDataset::load(ds, ctx.scale);
        for algo in Algorithm::COMPETITORS {
            for &k in &ctx.ks {
                let edges = prep.edges_for(algo);
                let mut stream = InMemoryStream::new(prep.graph.num_vertices(), edges.to_vec());
                let run = algo
                    .build()
                    .partition(&mut stream, k)
                    .expect("partitioning failed on a generated dataset");
                let state_bytes = run.memory.total_bytes();
                let vertices = run.partitioning.num_vertices;
                let seed = seed_layout_bytes(algo, state_bytes, vertices, k);
                table.row(vec![
                    prep.name.clone(),
                    algo.name().to_string(),
                    k.to_string(),
                    format!("{:.1}", state_bytes as f64 / 1024.0),
                    format!("{:.1}", seed as f64 / 1024.0),
                    format!("{:.1}", (seed - state_bytes) as f64 / 1024.0),
                    String::new(),
                    String::new(),
                ]);
                runs.push(MemoryRun {
                    dataset: prep.name.clone(),
                    algorithm: algo.name().to_string(),
                    k,
                    vertices,
                    state_bytes,
                    items: run
                        .memory
                        .items()
                        .iter()
                        .map(|(n, b)| (n.clone(), *b))
                        .collect(),
                    seed_layout_bytes: seed,
                });
            }
        }
    }

    // Leg 2: sparse-web. BFS order for every algorithm — this leg pins the
    // id layer (remap == dense relabeling), not stream-order quality. The
    // raw stream is derived from the *same* ordered edge list as the dense
    // reference (the definition of `sparse_web_raw`), so the isomorphism
    // between the two legs is structural, and the BFS traversal runs once.
    let dense_graph = crate::datasets::load(Dataset::UkS, ctx.scale);
    let dense_bfs = ordered_edges(&dense_graph, StreamOrder::Bfs);
    let raw = clugp_graph::idmap::scramble_edges(&dense_bfs);
    let sparse_edges = raw.len() as u64;
    let max_external = raw.iter().map(|e| e.src.max(e.dst)).max().unwrap_or(0);
    let (distinct, relabeled) = relabel_first_appearance(&dense_bfs);

    let mut sparse_runs: Vec<SparseRun> = Vec::new();
    let mut sparse_table = Table::new(
        "BENCH_memory — sparse-web (64-bit hashed ids) through the remap layer",
        &["Algorithm", "State KiB", "IdMap KiB", "Identical"],
    );
    let roster: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("Hashing", Box::new(clugp::baselines::Hashing::default())),
        ("DBH", Box::new(clugp::baselines::Dbh::default())),
        ("Grid", Box::new(clugp::baselines::Grid::default())),
        ("Greedy", Box::new(clugp::baselines::Greedy::new())),
        ("HDRF", Box::new(clugp::baselines::Hdrf::default())),
        ("Mint", Box::new(clugp::baselines::Mint::default())),
        ("CLUGP", Box::new(clugp::clugp::Clugp::default())),
    ];
    for (name, mut algo) in roster {
        let k = 32u32;
        let mut remapped = RemappedStream::remap(RawInMemoryStream::new(raw.clone()))
            .expect("sparse-web remap build");
        let sparse_run = algo
            .partition(&mut remapped, k)
            .expect("sparse-web partition through the remap layer");
        let mut dense_stream = InMemoryStream::new(distinct, relabeled.clone());
        let dense_run = algo
            .partition(&mut dense_stream, k)
            .expect("dense-relabeled reference partition");
        let bit_identical =
            sparse_run.partitioning.assignments == dense_run.partitioning.assignments;
        let idmap_bytes = remapped.id_map().memory_bytes();
        sparse_table.row(vec![
            name.to_string(),
            format!("{:.1}", sparse_run.memory.total_bytes() as f64 / 1024.0),
            format!("{:.1}", idmap_bytes as f64 / 1024.0),
            bit_identical.to_string(),
        ]);
        sparse_runs.push(SparseRun {
            algorithm: name.to_string(),
            state_bytes: sparse_run.memory.total_bytes(),
            idmap_bytes,
            bit_identical,
        });
    }

    table.print();
    sparse_table.print();
    let mut csv = table;
    for r in &sparse_runs {
        csv.row(vec![
            SPARSE_WEB.to_string(),
            r.algorithm.clone(),
            "32".to_string(),
            format!("{:.1}", r.state_bytes as f64 / 1024.0),
            String::new(),
            String::new(),
            format!("{:.1}", r.idmap_bytes as f64 / 1024.0),
            r.bit_identical.to_string(),
        ]);
    }
    csv.save_csv(&results_dir().join("BENCH_memory.csv")).ok();

    let report = MemoryReport {
        datasets: datasets.iter().map(|d| d.name().to_string()).collect(),
        ks: ctx.ks.clone(),
        no_worse_than_seed: runs.iter().all(|r| r.state_bytes <= r.seed_layout_bytes),
        narrow_counts_smaller: runs
            .iter()
            .filter(|r| r.algorithm == "Greedy" || r.algorithm == "HDRF")
            .all(|r| r.state_bytes < r.seed_layout_bytes),
        runs,
        sparse_dataset: SPARSE_WEB.to_string(),
        sparse_edges,
        sparse_vertices: distinct,
        sparse_max_external_id: max_external,
        naive_dense_bytes: (max_external as f64 + 1.0) * 4.0,
        sparse_bit_identical: sparse_runs.iter().all(|r| r.bit_identical),
        sparse_runs,
    };
    save_json("BENCH_memory", &report).ok();
    assert!(
        report.no_worse_than_seed,
        "per-vertex state regressed past the seed layout"
    );
    assert!(
        report.sparse_bit_identical,
        "remapped sparse-web run diverged from the dense-relabeled reference"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_layout_model_charges_the_count_column_only() {
        // Replica-table algorithms: the seed's `u32` count per vertex is
        // gone, 4 bytes/vertex saved at any k.
        assert_eq!(seed_layout_bytes(Algorithm::Greedy, 1000, 100, 32), 1400);
        assert_eq!(seed_layout_bytes(Algorithm::Hdrf, 1000, 100, 32), 1400);
        assert_eq!(
            seed_layout_bytes(Algorithm::Greedy, 1000, 100, 70_000),
            1400
        );
        // No replica table, no delta.
        assert_eq!(seed_layout_bytes(Algorithm::Dbh, 1000, 100, 32), 1000);
        assert_eq!(seed_layout_bytes(Algorithm::Clugp, 1000, 100, 32), 1000);
    }
}
