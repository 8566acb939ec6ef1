//! Distributed PageRank on the GAS simulator: shows how partitioning quality
//! turns into communication volume and estimated runtime — the paper's
//! Figure 8 story on one graph.
//!
//! ```text
//! cargo run --release --example distributed_pagerank
//! ```

use clugp::baselines::Hashing;
use clugp::clugp::Clugp;
use clugp::partitioner::Partitioner;
use clugp_engine::apps::{sequential_pagerank, PageRank};
use clugp_engine::{CostModel, DistributedGraph, Engine};
use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::stream::InMemoryStream;
use std::time::Duration;

fn main() {
    let graph = generate_web_crawl(&WebCrawlConfig {
        vertices: 30_000,
        ..Default::default()
    });
    let edges = ordered_edges(&graph, StreamOrder::Bfs);
    let k = 32;
    println!(
        "PageRank over {} machines, |V|={}, |E|={}\n",
        k,
        graph.num_vertices(),
        graph.num_edges()
    );

    let mut contenders: Vec<Box<dyn Partitioner>> =
        vec![Box::new(Clugp::default()), Box::new(Hashing)];
    for partitioner in contenders.iter_mut() {
        let mut stream = InMemoryStream::new(graph.num_vertices(), edges.clone());
        let run = partitioner.partition(&mut stream, k).expect("partition");

        // Place the real assignment on k simulated machines and execute.
        let placed = DistributedGraph::place(&edges, &run.partitioning);
        let engine = Engine::new(&placed);
        let (ranks, stats) = engine.run(&PageRank::default());

        // The engine computes the exact same ranks as a sequential run.
        let reference = sequential_pagerank(&graph, 0.85, 10);
        let max_err = ranks
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);

        println!("partitioner: {}", partitioner.name());
        println!("  mirrors             = {}", placed.total_mirrors());
        println!("  messages            = {}", stats.total_messages());
        println!("  max |rank - ref|    = {max_err:.2e}");
        for rtt_ms in [10u64, 50, 100] {
            let est = CostModel {
                rtt: Duration::from_millis(rtt_ms),
                ..Default::default()
            }
            .estimate(&stats);
            println!(
                "  rtt={rtt_ms:>3}ms: runtime≈{:>8.2}s (compute {:.2}s + network {:.2}s), volume {:.1} MiB",
                est.total_secs(),
                est.compute_secs,
                est.communication_secs,
                est.total_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        println!();
    }
}
