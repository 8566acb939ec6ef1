//! Shootout: all six streaming partitioners on the same web graph — the
//! Table I / Figure 3 comparison in miniature.
//!
//! ```text
//! cargo run --release --example partitioner_shootout [vertices] [k]
//! ```

use clugp::ampc::coordinator::DistAlgo;
use clugp::metrics::PartitionQuality;
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;

fn main() {
    let mut args = std::env::args().skip(1);
    let vertices: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let k: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);

    let graph = generate_web_crawl(&WebCrawlConfig {
        vertices,
        ..Default::default()
    });
    println!(
        "web graph: |V|={} |E|={} k={k}\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:<10} {:>6} {:>10} {:>9} {:>12} {:>12}",
        "algorithm", "order", "RF", "balance", "time", "memory(MiB)"
    );

    // Each algorithm gets its best stream order, as in the paper.
    for name in ["hdrf", "greedy", "hashing", "dbh", "mint", "clugp"] {
        let algo = DistAlgo::by_name(name).expect("registered algorithm");
        let order = algo.stream_order();
        let edges = ordered_edges(&graph, order);
        let mut stream = InMemoryStream::new(graph.num_vertices(), edges.clone());
        let run = algo
            .monolith()
            .partition(&mut stream, k)
            .expect("run failed");
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        let order = match order {
            StreamOrder::Bfs => "BFS",
            _ => "random",
        };
        println!(
            "{:<10} {:>6} {:>10.3} {:>9.3} {:>12?} {:>12.2}",
            algo.name(),
            order,
            q.replication_factor,
            q.relative_balance,
            run.timings.total,
            run.memory.total_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
}
