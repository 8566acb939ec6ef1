//! Table I (algorithm time/quality classes) and Table III (dataset
//! inventory).

use super::ExpContext;
use crate::datasets::Dataset;
use crate::report::{fmt_bytes, fmt_secs, results_dir, save_json, Table};
use crate::runner::{cells_json, competitors, run_cell, CellResult, PreparedDataset};
use clugp_obs::json::{Arr, Obj};

/// Table I — measured runtime and replication factor of every streaming
/// partitioner at `k = 32` on the uk-2002 analogue, bucketed into the
/// paper's Low/Medium/High classes.
pub fn table1(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::UkS, ctx.scale);
    // Each cell fills the row printed under its algorithm's name.
    let cells: Vec<CellResult> = competitors()
        .iter()
        .map(|algo| CellResult {
            row: algo.name().to_string(),
            ..run_cell(&prep, algo, 32)
        })
        .collect();
    // Bucket by tertiles of the measured range, mirroring the qualitative
    // classes of Table I.
    let class = |x: f64, lo: f64, hi: f64| -> &'static str {
        let span = hi - lo;
        if span <= 0.0 || x <= lo + span / 3.0 {
            "Low"
        } else if x <= lo + 2.0 * span / 3.0 {
            "Medium"
        } else {
            "High"
        }
    };
    let (tmin, tmax) = min_max(cells.iter().map(|c| c.partition_secs.log10()));
    let (qmin, qmax) = min_max(cells.iter().map(|c| c.replication_factor));

    let mut table = Table::new(
        "Table I — vertex-cut streaming partitioners (measured, uk-s, k=32)",
        ["Algorithm", "Time", "RF", "Time Cost", "Quality"],
    );
    for c in &cells {
        // Paper semantics: low RF = high quality.
        let quality = match class(c.replication_factor, qmin, qmax) {
            "Low" => "High",
            "High" => "Low",
            _ => "Medium",
        };
        table.row(vec![
            c.algorithm.clone(),
            fmt_secs(c.partition_secs),
            format!("{:.3}", c.replication_factor),
            class(c.partition_secs.log10(), tmin, tmax).to_string(),
            quality.to_string(),
        ]);
    }
    table.print();
    table.save_csv(&results_dir().join("table1.csv"));
    save_json("table1", &cells_json(&cells));
}

/// Table III — the synthetic dataset inventory, with the paper's original
/// corpora for comparison.
pub fn table3(ctx: &ExpContext) {
    let mut table = Table::new(
        "Table III — dataset analogues (synthetic; see DESIGN.md §4)",
        [
            "Alias",
            "Substitutes",
            "|V|",
            "|E|",
            "Size",
            "alpha",
            "MeanDeg",
        ],
    );
    let mut summaries = Arr::new();
    for ds in Dataset::ALL {
        let g = crate::datasets::load(ds, ctx.scale);
        let summary = clugp_graph::analysis::summarize(&g);
        // The in-degree distribution carries the web power law (out-degrees
        // have a calibrated floor that biases the fixed-xmin MLE).
        let in_alpha = clugp_graph::analysis::estimate_power_law_alpha(
            &clugp_graph::analysis::degree_histogram(&g.in_degrees()),
        );
        // On-disk size in our 8-bytes-per-edge binary format + header.
        let bytes = 24 + 8 * g.num_edges();
        table.row(vec![
            ds.name().to_string(),
            ds.paper_source().to_string(),
            human_count(summary.num_vertices),
            human_count(summary.num_edges),
            fmt_bytes(bytes),
            format!("{in_alpha:.2}"),
            format!("{:.1}", summary.mean_degree),
        ]);
        summaries.raw(&summary_json(ds.name(), &summary));
    }
    table.print();
    table.save_csv(&results_dir().join("table3.csv"));
    save_json("table3", &summaries.finish());
}

/// One Table III dataset as JSON: its alias beside the summary's fields.
pub(super) fn summary_json(dataset: &str, s: &clugp_graph::analysis::GraphSummary) -> String {
    Obj::new()
        .str("dataset", dataset)
        .u64("num_vertices", s.num_vertices)
        .u64("num_edges", s.num_edges)
        .f64("mean_degree", s.mean_degree)
        .u64("max_degree", s.max_degree)
        .f64("alpha", s.alpha)
        .u64("components", s.components as u64)
        .finish()
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    })
}

fn human_count(x: u64) -> String {
    if x >= 1_000_000 {
        format!("{:.2}M", x as f64 / 1e6)
    } else if x >= 1_000 {
        format!("{:.1}K", x as f64 / 1e3)
    } else {
        x.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_count_units() {
        assert_eq!(human_count(532), "532");
        assert_eq!(human_count(75_300), "75.3K");
        assert_eq!(human_count(2_500_000), "2.50M");
    }

    #[test]
    fn min_max_of_sequence() {
        let (lo, hi) = min_max([3.0, 1.0, 2.0].into_iter());
        assert_eq!((lo, hi), (1.0, 3.0));
    }
}
