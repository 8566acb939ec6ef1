//! Runs experiment cells — one `(dataset, algorithm, k)` each — and lays
//! them out as a figure's grid of rows × columns.
//!
//! The algorithms are the core's roster ([`DistAlgo`]); a row is a printed
//! label beside the roster entry it runs, with a sweep's overrides set on
//! its config.

use crate::datasets::Dataset;
use crate::report::{results_dir, Table};
use clugp::ampc::coordinator::DistAlgo;
use clugp::clugp::ClugpConfig;
use clugp::metrics::PartitionQuality;
use clugp_graph::csr::CsrGraph;
use clugp_graph::order::{ordered_edges, StreamOrder, RANDOM_ORDER_SEED};
use clugp_graph::stream::InMemoryStream;
use clugp_graph::types::Edge;
use clugp_obs::json::{Arr, Obj};
use std::sync::Arc;

/// The six algorithms of the headline comparison, in the paper's legend
/// order.
pub(crate) fn competitors() -> Vec<DistAlgo> {
    ["hdrf", "greedy", "hashing", "dbh", "mint", "clugp"]
        .into_iter()
        .map(|name| DistAlgo::by_name(name).expect("a roster name"))
        .collect()
}

/// CLUGP at its defaults with `set` applied: a sweep's or an ablation's
/// row.
pub(crate) fn clugp_with(set: impl FnOnce(&mut ClugpConfig)) -> DistAlgo {
    let mut cfg = ClugpConfig::default();
    set(&mut cfg);
    DistAlgo::Clugp(cfg)
}

/// Grid rows: each algorithm under the label it is printed as.
pub(crate) type Rows = Vec<(String, DistAlgo)>;

/// Grid rows printed under each algorithm's display name.
pub(crate) fn named(algos: Vec<DistAlgo>) -> Rows {
    algos
        .into_iter()
        .map(|a| (a.name().to_string(), a))
        .collect()
}

/// Grid columns `k=4`, `k=8`, … for a k sweep.
pub(crate) fn k_columns(ks: &[u32]) -> Vec<(String, u32)> {
    ks.iter().map(|&k| (format!("k={k}"), k)).collect()
}

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

    /// The edge stream `algo` gets: its [`DistAlgo::stream_order`].
    pub fn edges_for(&self, algo: &DistAlgo) -> &[Edge] {
        match algo.stream_order() {
            StreamOrder::Bfs => &self.bfs,
            _ => &self.random,
        }
    }
}

/// Measurements from one experiment cell.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// The label of the grid row the cell is printed in.
    pub row: String,
    /// The label of the grid column the cell is printed in.
    pub column: String,
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

/// The cells as a JSON array of objects keyed by the field names above,
/// `phases` an object of seconds keyed by phase name.
pub fn cells_json(cells: &[CellResult]) -> String {
    let mut arr = Arr::new();
    for c in cells {
        let phases = c.phases.iter().fold(Obj::new(), |o, (n, s)| o.f64(n, *s));
        let cell = Obj::new()
            .str("row", &c.row)
            .str("column", &c.column)
            .str("dataset", &c.dataset)
            .str("algorithm", &c.algorithm)
            .u64("k", c.k.into())
            .f64("replication_factor", c.replication_factor)
            .f64("relative_balance", c.relative_balance)
            .f64("partition_secs", c.partition_secs)
            .u64("memory_bytes", c.memory_bytes as u64)
            .raw("phases", &phases.finish());
        arr.raw(&cell.finish());
    }
    arr.finish()
}

/// Runs `algo` on `prep` with `k` partitions, over the stream order it is
/// granted.
pub fn run_cell(prep: &PreparedDataset, algo: &DistAlgo, k: u32) -> CellResult {
    run_edges(&prep.name, &prep.graph, prep.edges_for(algo), algo, k)
}

/// The cells a figure has run. An entry whose run equals an earlier one —
/// the same dataset, an equal roster entry (configs compared, never labels)
/// and the same k — takes that cell, its times included, instead of
/// running it again: every run is deterministic.
#[derive(Default)]
pub(crate) struct Runs(Vec<(DistAlgo, CellResult)>);

impl Runs {
    /// [`run_cell`], or the cell of an equal run made before.
    pub(crate) fn cell(&mut self, prep: &PreparedDataset, algo: &DistAlgo, k: u32) -> CellResult {
        let earlier = self
            .0
            .iter()
            .find(|(a, c)| a == algo && c.k == k && c.dataset == prep.name);
        if let Some((_, cell)) = earlier {
            return cell.clone();
        }
        let cell = run_cell(prep, algo, k);
        self.0.push((algo.clone(), cell.clone()));
        cell
    }
}

/// Runs `algo` with `k` partitions over `edges`, a stream of `graph` (the
/// dataset called `dataset`) in any order.
pub(crate) fn run_edges(
    dataset: &str,
    graph: &CsrGraph,
    edges: &[Edge],
    algo: &DistAlgo,
    k: u32,
) -> CellResult {
    let mut stream = InMemoryStream::new(graph.num_vertices(), edges.to_vec());
    let run = algo
        .monolith()
        .partition(&mut stream, k)
        .expect("partitioning failed on a generated dataset");
    let quality = PartitionQuality::compute(edges, &run.partitioning);
    CellResult {
        dataset: dataset.to_string(),
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
        ..Default::default()
    }
}

/// Runs `cell` on every `(row, column)` pair, prints the table `title` with
/// `corner` over the row labels and `show(column, cell)` in each entry,
/// writes it as `<csv>.csv` under the results dir, and returns the cells
/// in row-major order, each stamped with the labels it is printed under.
pub(crate) fn grid<R, C>(
    title: &str,
    csv: &str,
    corner: &str,
    rows: &[(String, R)],
    columns: &[(String, C)],
    mut cell: impl FnMut(&R, &C) -> CellResult,
    show: impl Fn(&C, &CellResult) -> String,
) -> Vec<CellResult> {
    let header = std::iter::once(corner).chain(columns.iter().map(|(label, _)| label.as_str()));
    let mut table = Table::new(title, header);
    let mut cells = Vec::with_capacity(rows.len() * columns.len());
    for (row, r) in rows {
        let mut printed = vec![row.clone()];
        for (column, c) in columns {
            let result = CellResult {
                row: row.clone(),
                column: column.clone(),
                ..cell(r, c)
            };
            printed.push(show(c, &result));
            cells.push(result);
        }
        table.row(printed);
    }
    table.print();
    table.save_csv(&results_dir().join(format!("{csv}.csv")));
    cells
}

/// A grid entry showing the replication factor.
pub(crate) fn show_rf<C>(_: &C, cell: &CellResult) -> String {
    format!("{:.3}", cell.replication_factor)
}

/// The k sweep of the paper's figures (`CLUGP_KS` replaces it, see
/// [`parse_ks`]).
pub fn k_sweep() -> Vec<u32> {
    vec![4, 8, 16, 32, 64, 128, 256]
}

/// Parses a k sweep (the value of `CLUGP_KS`): comma-separated partition
/// counts, each at least 1.
pub fn parse_ks(value: &str) -> Result<Vec<u32>, String> {
    value
        .split(',')
        .map(|k| match k.trim().parse::<u32>() {
            Ok(k) if k > 0 => Ok(k),
            _ => Err(format!(
                "CLUGP_KS={value:?}: {k:?} is not a partition count; expected e.g. 4,16,64"
            )),
        })
        .collect()
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
        let cell = run_cell(&prep, &DistAlgo::hashing(), 4);
        assert_eq!(cell.k, 4);
        assert!(cell.replication_factor >= 1.0);
        assert!(cell.relative_balance >= 1.0);
        assert!(cell.partition_secs > 0.0);
    }

    #[test]
    fn clugp_cell_has_phases() {
        let prep = tiny();
        let cell = run_cell(&prep, &DistAlgo::clugp(), 4);
        assert_eq!(cell.phases.len(), 4);
        assert_eq!(cell.algorithm, "CLUGP");
    }

    #[test]
    fn orders_differ_between_algorithms() {
        let prep = tiny();
        let a = prep.edges_for(&DistAlgo::hdrf());
        let b = prep.edges_for(&DistAlgo::clugp());
        assert_eq!(a.len(), b.len());
        assert_ne!(a[..10], b[..10]);
    }

    #[test]
    fn runs_reuse_an_equal_config_and_only_that() {
        use clugp::clugp::LambdaMode;
        let prep = tiny();
        let mut runs = Runs::default();
        let first = runs.cell(&prep, &DistAlgo::clugp(), 4);
        // The default under two other spellings takes the first cell, times
        // and all.
        for same in [
            clugp_with(|c| c.vmax_factor = 1.0),
            clugp_with(|c| c.lambda = LambdaMode::Weight(0.5)),
        ] {
            let cell = runs.cell(&prep, &same, 4);
            assert_eq!(cell.partition_secs, first.partition_secs);
        }
        assert_eq!(runs.0.len(), 1);
        runs.cell(&prep, &clugp_with(|c| c.tau = 1.02), 4);
        runs.cell(&prep, &DistAlgo::clugp(), 8);
        assert_eq!(runs.0.len(), 3);
    }

    /// The competitors' and Fig. 9's rows.
    fn row_lists() -> [Rows; 2] {
        let fig9 = crate::experiments::quality::fig9_tables();
        [
            named(competitors()),
            fig9.into_iter().flat_map(|t| t.2).collect(),
        ]
    }

    #[test]
    fn names_are_unique() {
        for (rows, want) in row_lists().iter().zip([6, 8]) {
            let mut labels: Vec<&str> = rows.iter().map(|(label, _)| label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), want, "{labels:?}");
        }
    }

    #[test]
    fn stream_orders_match_paper() {
        for (label, algo) in row_lists().into_iter().flatten() {
            let want = match label.as_str() {
                "HDRF" | "Greedy" | "Hashing" | "DBH" => StreamOrder::Random(RANDOM_ORDER_SEED),
                _ => StreamOrder::Bfs, // Mint and every CLUGP row
            };
            assert_eq!(algo.stream_order(), want, "{label}");
        }
    }

    #[test]
    fn headers_include_all_ks() {
        let labels: Vec<String> = k_columns(&[4, 8]).into_iter().map(|c| c.0).collect();
        assert_eq!(labels, ["k=4", "k=8"]);
    }

    #[test]
    fn default_k_sweep() {
        assert_eq!(k_sweep(), vec![4, 8, 16, 32, 64, 128, 256]);
    }

    #[test]
    fn ks_parse_every_entry_or_fail() {
        assert_eq!(parse_ks("4"), Ok(vec![4]));
        assert_eq!(parse_ks(" 4, 16 ,64"), Ok(vec![4, 16, 64]));
        for bad in ["4,x", "abc", "", "4,,16", "0", "-4", "4;16"] {
            let err = parse_ks(bad).unwrap_err();
            assert!(err.starts_with("CLUGP_KS="), "{bad:?}: {err}");
        }
    }
}
