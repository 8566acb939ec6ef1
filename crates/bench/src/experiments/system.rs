//! Fig. 8 — the "real system" experiments: PageRank on the PowerGraph-style
//! GAS simulator, driven by each algorithm's actual partitioning.

use super::ExpContext;
use crate::datasets::Dataset;
use crate::report::{fmt_bytes, fmt_secs, results_dir, save_json, Table};
use crate::runner::{competitors, PreparedDataset};
use clugp::ampc::coordinator::DistAlgo;
use clugp_engine::apps::PageRank;
use clugp_engine::cost::CostEstimate;
use clugp_engine::{CostModel, DistributedGraph, Engine, ExecutionStats};
use clugp_graph::stream::InMemoryStream;
use clugp_obs::json::{Arr, Obj};
use std::time::Duration;

/// Partitions `prep` with `algo` once, runs 10 PageRank iterations on the GAS
/// simulator over that placement, and returns the partitioning seconds beside
/// the PageRank run's statistics — price them with [`CostModel::estimate`].
pub fn pagerank(prep: &PreparedDataset, algo: &DistAlgo, k: u32) -> (f64, ExecutionStats) {
    let edges = prep.edges_for(algo);
    let mut stream = InMemoryStream::new(prep.graph.num_vertices(), edges.to_vec());
    let run = algo
        .monolith()
        .partition(&mut stream, k)
        .expect("partition");
    let placed = DistributedGraph::place(edges, &run.partitioning);
    let engine = Engine::new(&placed);
    let (_, stats) = engine.run(&PageRank::default());
    (run.timings.total.as_secs_f64(), stats)
}

/// Fig. 8 — (a) communication volume per dataset, (b) estimated PageRank
/// runtime per dataset (compute + communication), (c) runtime vs injected
/// RTT on the it-2004 analogue. All at k = 32 with 10 PageRank iterations.
pub fn fig8(ctx: &ExpContext) {
    let k = 32;
    let header = std::iter::once("Algorithm").chain(Dataset::WEB.iter().map(|d| d.name()));
    let mut table_a = Table::new(
        "Fig 8(a) — PageRank communication volume (k=32)",
        header.clone(),
    );
    let mut table_b = Table::new("Fig 8(b) — PageRank estimated runtime (k=32)", header);
    let mut json = Arr::new();
    let mut per_algo: Vec<(DistAlgo, Vec<String>, Vec<String>)> = competitors()
        .into_iter()
        .map(|a| {
            let row = vec![a.name().to_string()];
            (a, row.clone(), row)
        })
        .collect();
    let model = CostModel::default();
    let (swept, mut swept_stats) = (Dataset::ItS, Vec::new());
    for ds in Dataset::WEB {
        let prep = PreparedDataset::load(ds, ctx.scale);
        for (algo, row_a, row_b) in per_algo.iter_mut() {
            let (_, stats) = pagerank(&prep, algo, k);
            let est = model.estimate(&stats);
            row_a.push(fmt_bytes(est.total_bytes));
            row_b.push(fmt_secs(est.total_secs()));
            json.raw(&estimate_json(ds.name(), algo.name(), &model, &est));
            if ds == swept {
                swept_stats.push(stats);
            }
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

    // (c) latency sweep on it-s: the runs above, priced at each RTT.
    let rtts = [10u64, 50, 100];
    let header = std::iter::once("Algorithm".into()).chain(rtts.map(|ms| format!("{ms}ms")));
    let mut table_c = Table::new("Fig 8(c) — PageRank runtime vs RTT (it-s, k=32)", header);
    for (algo, stats) in competitors().iter().zip(&swept_stats) {
        let mut row = vec![algo.name().to_string()];
        for &ms in &rtts {
            let model = CostModel {
                rtt: Duration::from_millis(ms),
                ..Default::default()
            };
            let est = model.estimate(stats);
            row.push(fmt_secs(est.total_secs()));
            json.raw(&estimate_json(swept.name(), algo.name(), &model, &est));
        }
        table_c.row(row);
    }
    table_c.print();
    table_c.save_csv(&results_dir().join("fig8c.csv"));
    save_json("fig8", &json.finish());
}

/// One Fig. 8 estimate as JSON, with the RTT `model` priced it at.
pub(super) fn estimate_json(
    dataset: &str,
    algorithm: &str,
    model: &CostModel,
    est: &CostEstimate,
) -> String {
    Obj::new()
        .str("dataset", dataset)
        .str("algorithm", algorithm)
        .u64("rtt_ms", model.rtt.as_millis() as u64)
        .f64("compute_secs", est.compute_secs)
        .f64("communication_secs", est.communication_secs)
        .u64("total_bytes", est.total_bytes)
        .u64("total_messages", est.total_messages)
        .u64("supersteps", est.supersteps as u64)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 8's printed numbers, pinned: the `estimate_json` rows of every
    /// competitor's PageRank run on uk-s at scale 0.02, k = 8, hashed with
    /// FNV-1a. The hash was recorded while the engine still ran BFS,
    /// Connected Components and label propagation beside PageRank.
    #[test]
    fn pagerank_estimates_match_their_recorded_hash() {
        let prep = PreparedDataset::load(Dataset::UkS, 0.02);
        let model = CostModel::default();
        let rows: String = competitors()
            .iter()
            .map(|algo| {
                let est = model.estimate(&pagerank(&prep, algo, 8).1);
                estimate_json(Dataset::UkS.name(), algo.name(), &model, &est)
            })
            .collect();
        let hash = rows.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            hash, 0x046b_c86c_3176_421e,
            "Fig. 8 estimates moved: {rows}"
        );
    }

    #[test]
    fn pagerank_cost_orders_hashing_above_clugp() {
        // Hashing's replication factor is several times CLUGP's, so its
        // simulated communication volume must be larger.
        let prep = PreparedDataset::load(Dataset::UkS, 0.02);
        let est = |algo| CostModel::default().estimate(&pagerank(&prep, &algo, 8).1);
        let (est_clugp, est_hash) = (est(DistAlgo::clugp()), est(DistAlgo::hashing()));
        assert!(
            est_hash.total_bytes > est_clugp.total_bytes,
            "hashing {} should move more bytes than CLUGP {}",
            est_hash.total_bytes,
            est_clugp.total_bytes
        );
    }
}
