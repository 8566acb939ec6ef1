//! Extra experiment (not a paper figure): stream-order sensitivity.
//!
//! The paper grants each algorithm its *best* order (footnote in §VI-A) but
//! never shows the cross-product. This sweep measures every algorithm under
//! every order — the experiment that justifies the per-algorithm order
//! table ([`clugp::ampc::coordinator::DistAlgo::stream_order`]), and a
//! direct replication of the order-sensitivity methodology of Abbas et al.
//! (VLDB'18).

use super::ExpContext;
use crate::algorithms::Algorithm;
use crate::datasets::Dataset;
use crate::report::{results_dir, save_json, Table};
use clugp::metrics::PartitionQuality;
use clugp_graph::order::{ordered_edges, StreamOrder, RANDOM_ORDER_SEED};
use clugp_graph::stream::InMemoryStream;
use clugp_obs::json::{Arr, Obj};

/// RF of every algorithm under every stream order (uk-s analogue, k = 32).
pub fn orders(ctx: &ExpContext) {
    let graph = crate::datasets::load(Dataset::UkS, ctx.scale);
    let k = 32;
    let orders: [(&'static str, StreamOrder); 4] = [
        ("BFS", StreamOrder::Bfs),
        ("DFS", StreamOrder::Dfs),
        ("Random", StreamOrder::Random(RANDOM_ORDER_SEED)),
        ("AsIs", StreamOrder::AsIs),
    ];
    let mut table = Table::new_owned("Extra — RF vs stream order (uk-s, k=32)", {
        let mut h = vec!["Algorithm".to_string()];
        h.extend(orders.iter().map(|(n, _)| n.to_string()));
        h
    });
    let mut json = Arr::new();
    for algo in Algorithm::COMPETITORS {
        let mut row = vec![algo.name().to_string()];
        for &(oname, order) in &orders {
            let edges = ordered_edges(&graph, order);
            let mut stream = InMemoryStream::new(graph.num_vertices(), edges.clone());
            let mut partitioner = algo.build();
            let run = partitioner.partition(&mut stream, k).expect("partition");
            let q = PartitionQuality::compute(&edges, &run.partitioning);
            let (rf, balance) = (q.replication_factor, q.relative_balance);
            row.push(format!("{rf:.3}/{balance:.2}"));
            json.raw(&order_cell_json(algo.name(), oname, rf, balance));
        }
        table.row(row);
    }
    println!("(cells are RF/balance; the paper's per-algorithm best orders are the diagonal of this study)");
    table.print();
    table.save_csv(&results_dir().join("extra_orders.csv"));
    save_json("extra_orders", &json.finish());
}

/// One cell of the order study as JSON.
pub(super) fn order_cell_json(algorithm: &str, order: &str, rf: f64, balance: f64) -> String {
    Obj::new()
        .str("algorithm", algorithm)
        .str("order", order)
        .f64("replication_factor", rf)
        .f64("relative_balance", balance)
        .finish()
}
