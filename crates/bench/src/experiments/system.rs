//! Fig. 8 — the "real system" experiments: PageRank on the PowerGraph-style
//! GAS simulator, driven by each algorithm's actual partitioning.

use super::ExpContext;
use crate::algorithms::Algorithm;
use crate::datasets::Dataset;
use crate::report::{fmt_bytes, fmt_secs, results_dir, save_json, Table};
use crate::runner::{run_cell, CellResult, PreparedDataset};
use clugp_engine::apps::PageRank;
use clugp_engine::{CostModel, DistributedGraph, Engine};
use clugp_graph::stream::InMemoryStream;
use std::time::Duration;

/// Partitions `prep` with `algo`, runs 10 PageRank iterations on the GAS
/// simulator, and returns the partitioning cell plus the estimated PageRank
/// runtime in seconds (with optional RTT override).
pub fn pagerank_cost(
    prep: &PreparedDataset,
    algo: Algorithm,
    k: u32,
    rtt: Option<Duration>,
) -> (CellResult, f64) {
    let (cell, est) = pagerank_estimate(prep, algo, k, rtt);
    (cell, est.total_secs())
}

/// Full cost estimate variant of [`pagerank_cost`].
pub fn pagerank_estimate(
    prep: &PreparedDataset,
    algo: Algorithm,
    k: u32,
    rtt: Option<Duration>,
) -> (CellResult, clugp_engine::cost::CostEstimate) {
    let cell = run_cell(prep, algo, k);
    let edges = prep.edges_for(algo);
    let mut stream = InMemoryStream::new(prep.graph.num_vertices(), edges.to_vec());
    let mut partitioner = algo.build();
    let run = partitioner.partition(&mut stream, k).expect("partition");
    let placed = DistributedGraph::place(edges, &run.partitioning);
    let engine = Engine::new(&placed);
    let (_, stats) = engine.run(&PageRank::default());
    let model = CostModel {
        rtt: rtt.unwrap_or(Duration::from_millis(10)),
        ..Default::default()
    };
    (cell, model.estimate(&stats))
}

/// Fig. 8 — (a) communication volume per dataset, (b) estimated PageRank
/// runtime per dataset (compute + communication), (c) runtime vs injected
/// RTT on the it-2004 analogue. All at k = 32 with 10 PageRank iterations.
pub fn fig8(ctx: &ExpContext) {
    let k = 32;
    let mut table_a = Table::new_owned("Fig 8(a) — PageRank communication volume (k=32)", {
        let mut h = vec!["Algorithm".to_string()];
        h.extend(Dataset::WEB.iter().map(|d| d.name().to_string()));
        h
    });
    let mut table_b = Table::new_owned("Fig 8(b) — PageRank estimated runtime (k=32)", {
        let mut h = vec!["Algorithm".to_string()];
        h.extend(Dataset::WEB.iter().map(|d| d.name().to_string()));
        h
    });
    let mut json = Vec::new();
    let mut per_algo: Vec<(Algorithm, Vec<String>, Vec<String>)> = Algorithm::COMPETITORS
        .iter()
        .map(|&a| (a, vec![a.name().to_string()], vec![a.name().to_string()]))
        .collect();
    for ds in Dataset::WEB {
        let prep = PreparedDataset::load(ds, ctx.scale);
        for (algo, row_a, row_b) in per_algo.iter_mut() {
            let (_, est) = pagerank_estimate(&prep, *algo, k, None);
            row_a.push(fmt_bytes(est.total_bytes));
            row_b.push(fmt_secs(est.total_secs()));
            json.push((ds.name(), algo.name(), est));
        }
    }
    for (_, row_a, row_b) in per_algo {
        table_a.row(row_a);
        table_b.row(row_b);
    }
    table_a.print();
    table_b.print();
    table_a.save_csv(&results_dir().join("fig8a.csv"));
    table_b.save_csv(&results_dir().join("fig8b.csv"));

    // (c) latency sweep on it-s.
    let prep = PreparedDataset::load(Dataset::ItS, ctx.scale);
    let rtts = [10u64, 50, 100];
    let mut table_c = Table::new_owned("Fig 8(c) — PageRank runtime vs RTT (it-s, k=32)", {
        let mut h = vec!["Algorithm".to_string()];
        h.extend(rtts.iter().map(|ms| format!("{ms}ms")));
        h
    });
    for algo in Algorithm::COMPETITORS {
        let mut row = vec![algo.name().to_string()];
        for &ms in &rtts {
            let (_, est) = pagerank_estimate(&prep, algo, k, Some(Duration::from_millis(ms)));
            row.push(fmt_secs(est.total_secs()));
            json.push((prep.name.as_str(), algo.name(), est));
        }
        table_c.row(row);
    }
    table_c.print();
    table_c.save_csv(&results_dir().join("fig8c.csv"));
    save_json("fig8", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_cost_orders_hashing_above_clugp() {
        // Hashing's replication factor is several times CLUGP's, so its
        // simulated communication volume must be larger.
        let prep = PreparedDataset::load(Dataset::UkS, 0.02);
        let (_, est_clugp) = pagerank_estimate(&prep, Algorithm::Clugp, 8, None);
        let (_, est_hash) = pagerank_estimate(&prep, Algorithm::Hashing, 8, None);
        assert!(
            est_hash.total_bytes > est_clugp.total_bytes,
            "hashing {} should move more bytes than CLUGP {}",
            est_hash.total_bytes,
            est_clugp.total_bytes
        );
    }
}
