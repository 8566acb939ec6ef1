//! Quality figures: Fig. 3 (RF vs k), Fig. 4 (Twitter), Fig. 5 (sampled
//! sizes), Fig. 9 (ablations), Fig. 11 (parameter sweeps).

use super::ExpContext;
use crate::datasets::Dataset;
use crate::report::{fmt_secs, results_dir, save_json, Table};
use crate::runner::{
    cells_json, clugp_with, competitors, grid, k_columns, named, run_cell, show_rf,
    PreparedDataset, Rows, Runs,
};
use clugp::ampc::coordinator::DistAlgo;
use clugp::clugp::{ClusterAssignMode, LambdaMode, MigrationPolicy};
use clugp_engine::CostModel;
use clugp_graph::sampling::nested_edge_samples;

/// Fig. 3 — replication factor vs number of partitions on the four web
/// analogues, all six algorithms.
pub fn fig3(ctx: &ExpContext) {
    let mut all = Vec::new();
    for ds in Dataset::WEB {
        let prep = PreparedDataset::load(ds, ctx.scale);
        all.extend(grid(
            &format!("Fig 3 — RF vs #partitions ({})", ds.name()),
            &format!("fig3_{}", ds.name()),
            "Algorithm",
            &named(competitors()),
            &k_columns(&ctx.ks),
            |algo, &k| run_cell(&prep, algo, k),
            show_rf,
        ));
    }
    save_json("fig3", &cells_json(&all));
}

/// Fig. 4 — the social-graph counterpoint: (a) RF of HDRF vs CLUGP on the
/// Twitter analogue; (b) total task time (partitioning + simulated PageRank)
/// at k = 32.
pub fn fig4(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::TwitterS, ctx.scale);
    let all = grid(
        "Fig 4(a) — RF vs #partitions (twitter-s)",
        "fig4a",
        "Algorithm",
        &named(vec![DistAlgo::hdrf(), DistAlgo::clugp()]),
        &k_columns(&ctx.ks),
        |algo, &k| run_cell(&prep, algo, k),
        show_rf,
    );

    let mut table_b = Table::new(
        "Fig 4(b) — total task runtime at k=32 (twitter-s): partition + simulated PageRank",
        ["Algorithm", "Partition", "PageRank(sim)", "Total"],
    );
    for algo in [DistAlgo::clugp(), DistAlgo::hdrf()] {
        let (partition_secs, stats) = super::system::pagerank(&prep, &algo, 32);
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
    let samples: Vec<(String, PreparedDataset)> = nested_edge_samples(&graph, &sizes, 0x5A3)
        .into_iter()
        .zip(sizes)
        .map(|(sample, size)| {
            let name = format!("uk-sample-{size}");
            (
                size.to_string(),
                PreparedDataset::from_graph(&name, sample.into()),
            )
        })
        .collect();
    let all = grid(
        "Fig 5 — RF vs sample size (uk-s, k=32)",
        "fig5",
        "Algorithm",
        &named(competitors()),
        &samples,
        |algo, prep| run_cell(prep, algo, 32),
        show_rf,
    );
    save_json("fig5", &cells_json(&all));
}

/// Fig. 9 — ablation study on the it-2004 analogue: CLUGP vs CLUGP-S (no
/// splitting) vs CLUGP-G (greedy assignment), plus the migration-policy
/// design ablation (paper-verbatim vs anchored migration) and the Vmax
/// sensitivity sweep. The default configuration's rows (`CLUGP`,
/// `Anchored(default)`, `Vmax=1x|E|/k`) run once.
pub fn fig9(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::ItS, ctx.scale);
    let mut runs = Runs::default();
    let mut all = Vec::new();
    for (title, csv, rows) in fig9_tables() {
        all.extend(grid(
            title,
            csv,
            "Algorithm",
            &rows,
            &k_columns(&ctx.ks),
            |algo, &k| runs.cell(&prep, algo, k),
            show_rf,
        ));
    }
    save_json("fig9", &cells_json(&all));
}

/// Fig. 9's three tables: title, CSV name and rows.
pub(crate) fn fig9_tables() -> [(&'static str, &'static str, Rows); 3] {
    use ClusterAssignMode::{Game, Greedy};
    let ablations = [(true, Game), (false, Game), (true, Greedy)].map(|(splitting, mode)| {
        clugp_with(|c| {
            c.splitting = splitting;
            c.assign_mode = mode;
        })
    });
    let migrations = [
        ("Anchored(default)", MigrationPolicy::Anchored),
        ("Paper(verbatim)", MigrationPolicy::Paper),
    ]
    .map(|(label, policy)| (label.into(), clugp_with(|c| c.migration = policy)));
    let vmax_factors =
        [0.5f64, 1.0, 2.0].map(|f| (format!("Vmax={f}x|E|/k"), clugp_with(|c| c.vmax_factor = f)));
    [
        (
            "Fig 9 — ablation study (it-s): RF vs #partitions",
            "fig9",
            named(ablations.into()),
        ),
        // Extension: migration-policy ablation (DESIGN.md §4 divergence note).
        (
            "Fig 9(ext) — migration policy ablation (it-s): RF vs #partitions",
            "fig9_migration",
            migrations.into(),
        ),
        // Extension: Vmax sensitivity (the paper fixes Vmax = |E|/k following
        // Hollocou's suggestion; this sweep verifies that choice).
        (
            "Fig 9(ext) — Vmax factor ablation (it-s): RF vs #partitions",
            "fig9_vmax",
            vmax_factors.into(),
        ),
    ]
}

/// Fig. 11 — (a) RF vs imbalance factor τ; (b) RF vs relative weight w.
/// Both CLUGP at k = 32 across the four web analogues; (b)'s `w=0.5` is
/// (a)'s `tau=1.00`, the default configuration, and runs once.
pub fn fig11(ctx: &ExpContext) {
    let datasets: Vec<(String, PreparedDataset)> = Dataset::WEB
        .iter()
        .map(|&ds| (ds.name().to_string(), PreparedDataset::load(ds, ctx.scale)))
        .collect();
    let taus = [1.0, 1.02, 1.04, 1.06, 1.08, 1.10]
        .map(|tau| (format!("tau={tau:.2}"), clugp_with(|c| c.tau = tau)));
    let weights = [0.1, 0.3, 0.5, 0.7, 0.9].map(|w| {
        (
            format!("w={w:.1}"),
            clugp_with(|c| c.lambda = LambdaMode::Weight(w)),
        )
    });
    let mut runs = Runs::default();
    let mut all = grid(
        "Fig 11(a) — RF vs imbalance factor (k=32)",
        "fig11a",
        "Dataset",
        &datasets,
        &taus,
        |prep, algo| runs.cell(prep, algo, 32),
        show_rf,
    );
    all.extend(grid(
        "Fig 11(b) — RF vs relative weight (k=32)",
        "fig11b",
        "Dataset",
        &datasets,
        &weights,
        |prep, algo| runs.cell(prep, algo, 32),
        show_rf,
    ));
    save_json("fig11", &cells_json(&all));
}
