//! Extra experiment (not a paper figure): stream-order sensitivity.
//!
//! The paper grants each algorithm its *best* order (footnote in §VI-A) but
//! never shows the cross-product. This sweep measures every algorithm under
//! every order — the experiment that justifies the per-algorithm order
//! table ([`clugp::ampc::coordinator::DistAlgo::stream_order`]), and a
//! direct replication of the order-sensitivity methodology of Abbas et al.
//! (VLDB'18).

use super::ExpContext;
use crate::datasets::Dataset;
use crate::report::save_json;
use crate::runner::{cells_json, competitors, grid, named, run_edges};
use clugp_graph::order::{ordered_edges, StreamOrder, RANDOM_ORDER_SEED};

/// RF of every algorithm under every stream order (uk-s analogue, k = 32).
pub fn orders(ctx: &ExpContext) {
    let dataset = Dataset::UkS;
    let graph = crate::datasets::load(dataset, ctx.scale);
    let orders = [
        ("BFS", StreamOrder::Bfs),
        ("DFS", StreamOrder::Dfs),
        ("Random", StreamOrder::Random(RANDOM_ORDER_SEED)),
        ("AsIs", StreamOrder::AsIs),
    ]
    .map(|(name, order)| (name.to_string(), ordered_edges(&graph, order)));
    println!("(cells are RF/balance; the paper's per-algorithm best orders are the diagonal of this study)");
    let cells = grid(
        "Extra — RF vs stream order (uk-s, k=32)",
        "extra_orders",
        "Algorithm",
        &named(competitors()),
        &orders,
        |algo, edges| run_edges(dataset.name(), &graph, edges, algo, 32),
        |_, c| format!("{:.3}/{:.2}", c.replication_factor, c.relative_balance),
    );
    save_json("extra_orders", &cells_json(&cells));
}
