//! Quality figures: Fig. 3 (RF vs k), Fig. 4 (Twitter), Fig. 5 (sampled
//! sizes), Fig. 9 (ablations), Fig. 11 (parameter sweeps).

use super::ExpContext;
use crate::algorithms::{Algorithm, BuildOptions};
use crate::datasets::Dataset;
use crate::report::{fmt_secs, results_dir, save_json, Table};
use crate::runner::{cells_json, run_cell, run_cell_with, PreparedDataset};
use clugp::clugp::{Clugp, ClugpConfig, MigrationPolicy};
use clugp::metrics::PartitionQuality;
use clugp::partitioner::Partitioner;
use clugp_engine::CostModel;
use clugp_graph::sampling::nested_edge_samples;
use clugp_graph::stream::InMemoryStream;

/// Fig. 3 — replication factor vs number of partitions on the four web
/// analogues, all six algorithms.
pub fn fig3(ctx: &ExpContext) {
    let mut all = Vec::new();
    for ds in Dataset::WEB {
        let prep = PreparedDataset::load(ds, ctx.scale);
        let mut table = Table::new_owned(
            &format!("Fig 3 — RF vs #partitions ({})", ds.name()),
            header_with_ks(&ctx.ks),
        );
        for algo in Algorithm::COMPETITORS {
            let mut row = vec![algo.name().to_string()];
            for &k in &ctx.ks {
                let cell = run_cell(&prep, algo, k);
                row.push(format!("{:.3}", cell.replication_factor));
                all.push(cell);
            }
            table.row(row);
        }
        table.print();
        table.save_csv(&results_dir().join(format!("fig3_{}.csv", ds.name())));
    }
    save_json("fig3", &cells_json(&all));
}

/// Fig. 4 — the social-graph counterpoint: (a) RF of HDRF vs CLUGP on the
/// Twitter analogue; (b) total task time (partitioning + simulated PageRank)
/// at k = 32.
pub fn fig4(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::TwitterS, ctx.scale);
    let mut table = Table::new_owned(
        "Fig 4(a) — RF vs #partitions (twitter-s)",
        header_with_ks(&ctx.ks),
    );
    let mut all = Vec::new();
    for algo in [Algorithm::Hdrf, Algorithm::Clugp] {
        let mut row = vec![algo.name().to_string()];
        for &k in &ctx.ks {
            let cell = run_cell(&prep, algo, k);
            row.push(format!("{:.3}", cell.replication_factor));
            all.push(cell);
        }
        table.row(row);
    }
    table.print();
    table.save_csv(&results_dir().join("fig4a.csv"));

    let mut table_b = Table::new(
        "Fig 4(b) — total task runtime at k=32 (twitter-s): partition + simulated PageRank",
        &["Algorithm", "Partition", "PageRank(sim)", "Total"],
    );
    for algo in [Algorithm::Clugp, Algorithm::Hdrf] {
        let (partition_secs, stats) = super::system::pagerank(&prep, algo, 32);
        let pagerank_secs = CostModel::default().estimate(&stats).total_secs();
        table_b.row(vec![
            algo.name().to_string(),
            fmt_secs(partition_secs),
            fmt_secs(pagerank_secs),
            fmt_secs(partition_secs + pagerank_secs),
        ]);
    }
    table_b.print();
    table_b.save_csv(&results_dir().join("fig4b.csv"));
    save_json("fig4", &cells_json(&all));
}

/// Fig. 5 — RF vs sampled graph size: nested edge samples of the uk-2002
/// analogue at k = 32.
pub fn fig5(ctx: &ExpContext) {
    let graph = crate::datasets::load(Dataset::UkS, ctx.scale);
    let m = graph.num_edges();
    let sizes = [m / 100, m / 20, m / 4, m];
    let samples = nested_edge_samples(&graph, &sizes, 0x5A3);
    let labels: Vec<String> = sizes.iter().map(|s| format!("{s}")).collect();

    let mut table = Table::new_owned("Fig 5 — RF vs sample size (uk-s, k=32)", {
        let mut h = vec!["Algorithm".to_string()];
        h.extend(labels.iter().cloned());
        h
    });
    let mut all = Vec::new();
    for algo in Algorithm::COMPETITORS {
        let mut row = vec![algo.name().to_string()];
        for (i, sample) in samples.iter().enumerate() {
            let prep = PreparedDataset::from_graph(
                &format!("uk-sample-{}", labels[i]),
                std::sync::Arc::new(sample.clone()),
            );
            let cell = run_cell(&prep, algo, 32);
            row.push(format!("{:.3}", cell.replication_factor));
            all.push(cell);
        }
        table.row(row);
    }
    table.print();
    table.save_csv(&results_dir().join("fig5.csv"));
    save_json("fig5", &cells_json(&all));
}

/// Fig. 9 — ablation study on the it-2004 analogue: CLUGP vs CLUGP-S (no
/// splitting) vs CLUGP-G (greedy assignment), plus the migration-policy
/// design ablation (paper-verbatim vs anchored migration).
pub fn fig9(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::ItS, ctx.scale);
    let mut table = Table::new_owned(
        "Fig 9 — ablation study (it-s): RF vs #partitions",
        header_with_ks(&ctx.ks),
    );
    let mut all = Vec::new();
    for algo in Algorithm::ABLATIONS {
        let mut row = vec![algo.name().to_string()];
        for &k in &ctx.ks {
            let cell = run_cell(&prep, algo, k);
            row.push(format!("{:.3}", cell.replication_factor));
            all.push(cell);
        }
        table.row(row);
    }
    table.print();
    table.save_csv(&results_dir().join("fig9.csv"));

    // Extension: migration-policy ablation (DESIGN.md §4 divergence note).
    let mut table_m = Table::new_owned(
        "Fig 9(ext) — migration policy ablation (it-s): RF vs #partitions",
        header_with_ks(&ctx.ks),
    );
    for (label, policy) in [
        ("Anchored(default)", MigrationPolicy::Anchored),
        ("Paper(verbatim)", MigrationPolicy::Paper),
    ] {
        let mut row = vec![label.to_string()];
        for &k in &ctx.ks {
            let edges = prep.edges_for(Algorithm::Clugp);
            let mut stream = InMemoryStream::new(prep.graph.num_vertices(), edges.to_vec());
            let mut algo = Clugp::new(ClugpConfig {
                migration: policy,
                ..Default::default()
            });
            let run = algo.partition(&mut stream, k).expect("clugp run");
            let q = PartitionQuality::compute(edges, &run.partitioning);
            row.push(format!("{:.3}", q.replication_factor));
        }
        table_m.row(row);
    }
    table_m.print();
    table_m.save_csv(&results_dir().join("fig9_migration.csv"));

    // Extension: Vmax sensitivity (the paper fixes Vmax = |E|/k following
    // Hollocou's suggestion; this sweep verifies that choice).
    let mut table_v = Table::new_owned(
        "Fig 9(ext) — Vmax factor ablation (it-s): RF vs #partitions",
        header_with_ks(&ctx.ks),
    );
    for factor in [0.5f64, 1.0, 2.0] {
        let mut row = vec![format!("Vmax={factor}x|E|/k")];
        for &k in &ctx.ks {
            let edges = prep.edges_for(Algorithm::Clugp);
            let mut stream = InMemoryStream::new(prep.graph.num_vertices(), edges.to_vec());
            let mut algo = Clugp::new(ClugpConfig {
                vmax_factor: factor,
                ..Default::default()
            });
            let run = algo.partition(&mut stream, k).expect("clugp run");
            let q = PartitionQuality::compute(edges, &run.partitioning);
            row.push(format!("{:.3}", q.replication_factor));
        }
        table_v.row(row);
    }
    table_v.print();
    table_v.save_csv(&results_dir().join("fig9_vmax.csv"));
    save_json("fig9", &cells_json(&all));
}

/// Fig. 11 — (a) RF vs imbalance factor τ; (b) RF vs relative weight w.
/// Both at k = 32 across the four web analogues.
pub fn fig11(ctx: &ExpContext) {
    let taus = [1.0, 1.02, 1.04, 1.06, 1.08, 1.10];
    let mut table_a = Table::new_owned("Fig 11(a) — RF vs imbalance factor (k=32)", {
        let mut h = vec!["Dataset".to_string()];
        h.extend(taus.iter().map(|t| format!("tau={t:.2}")));
        h
    });
    let mut all = Vec::new();
    for ds in Dataset::WEB {
        let prep = PreparedDataset::load(ds, ctx.scale);
        let mut row = vec![ds.name().to_string()];
        for &tau in &taus {
            let cell = run_cell_with(
                &prep,
                Algorithm::Clugp,
                32,
                &BuildOptions {
                    tau,
                    ..Default::default()
                },
            );
            row.push(format!("{:.3}", cell.replication_factor));
            all.push(cell);
        }
        table_a.row(row);
    }
    table_a.print();
    table_a.save_csv(&results_dir().join("fig11a.csv"));

    let weights = [0.1, 0.3, 0.5, 0.7, 0.9];
    let mut table_b = Table::new_owned("Fig 11(b) — RF vs relative weight (k=32)", {
        let mut h = vec!["Dataset".to_string()];
        h.extend(weights.iter().map(|w| format!("w={w:.1}")));
        h
    });
    for ds in Dataset::WEB {
        let prep = PreparedDataset::load(ds, ctx.scale);
        let mut row = vec![ds.name().to_string()];
        for &w in &weights {
            let cell = run_cell_with(
                &prep,
                Algorithm::Clugp,
                32,
                &BuildOptions {
                    relative_weight: Some(w),
                    ..Default::default()
                },
            );
            row.push(format!("{:.3}", cell.replication_factor));
            all.push(cell);
        }
        table_b.row(row);
    }
    table_b.print();
    table_b.save_csv(&results_dir().join("fig11b.csv"));
    save_json("fig11", &cells_json(&all));
}

fn header_with_ks(ks: &[u32]) -> Vec<String> {
    let mut h = vec!["Algorithm".to_string()];
    for &k in ks {
        h.push(format!("k={k}"));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_include_all_ks() {
        let h = header_with_ks(&[4, 8]);
        assert_eq!(h, vec!["Algorithm".to_string(), "k=4".into(), "k=8".into()]);
    }
}
