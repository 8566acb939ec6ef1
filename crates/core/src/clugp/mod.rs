//! CLUGP — the paper's three-pass restreaming architecture.
//!
//! * Pass 1 — [`clustering`]: streaming clustering with the
//!   allocation–splitting–migration framework (Algorithm 2). The `splitting`
//!   switch off reproduces Holl (Hollocou et al.) for the CLUGP-S ablation.
//! * Pass 2 — [`cluster_graph`] + [`game`]: the cluster-level graph is built
//!   by one stream scan, then clusters play the exact potential game of
//!   Algorithm 3 (batched and parallel, Fig. 1(d)). [`greedy_assign`] is the
//!   CLUGP-G ablation.
//! * Pass 3 — [`transform`]: edges are re-streamed and assigned through the
//!   vertex→cluster→partition join under the balance cap `τ|E|/k`
//!   (Algorithm 1).
//!
//! [`Clugp`] wires the passes together behind the common
//! [`crate::partitioner::Partitioner`] interface. The per-vertex tables the
//! passes share ([`VertexState`]) and the per-edge steps of passes 1 and 3
//! live once, in the crate-private `stage` module, so that the monolith here
//! and the distributed workers (`crate::ampc`) run the very same code.

pub mod cluster_graph;
pub mod clustering;
pub mod config;
pub mod game;
pub mod greedy_assign;
pub(crate) mod stage;
pub mod transform;

pub use cluster_graph::ClusterGraph;
pub use clustering::{stream_clustering, stream_clustering_with, ClusteringResult};
pub use config::{ClugpConfig, ClusterAssignMode, LambdaMode, MigrationPolicy};
pub use game::{solve_game, GameOutcome};
pub use stage::VertexState;

use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::{PartitionRun, Partitioning, Timings};
use crate::partitioner::{finish_run, start_run, Partitioner};
use clugp_graph::stream::RestreamableStream;
use std::time::Instant;

/// The CLUGP partitioner (paper §III-§V).
#[derive(Debug, Clone, Default)]
pub struct Clugp {
    config: ClugpConfig,
}

impl Clugp {
    /// Creates CLUGP with the given configuration.
    pub fn new(config: ClugpConfig) -> Self {
        Clugp { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClugpConfig {
        &self.config
    }

    /// Runs the full pipeline, returning rich per-pass artifacts for
    /// inspection (used by the ablation/parallelization experiments and the
    /// integration tests).
    pub fn partition_detailed(
        &self,
        stream: &mut dyn RestreamableStream,
        k: u32,
    ) -> Result<DetailedRun> {
        let cfg = &self.config;
        cfg.validate()?;
        let total_start = Instant::now();
        let (n, m) = start_run(stream, k)?;

        // Pass 1: streaming clustering. Vmax = |E|/k needs the stream length;
        // without a hint splitting is disabled for the pass (documented
        // DESIGN.md; all provided stream types carry hints).
        let t = Instant::now();
        let vmax = if m > 0 { cfg.vmax(m, k) } else { u64::MAX };
        let clustering = clustering::stream_clustering_capped(
            stream,
            vmax,
            cfg.splitting,
            cfg.migration,
            cfg.max_vertices,
        )?;
        let clustering_time = t.elapsed();
        // Exact edge count, independent of the hint: each edge added 2 to
        // the degree total.
        let m_real: u64 = clustering.degree.iter().map(|&d| u64::from(d)).sum::<u64>() / 2;

        // Pass 2a: build the cluster graph by re-scanning the stream.
        let t = Instant::now();
        stream.reset()?;
        let cg = ClusterGraph::build(stream, &clustering);
        let cluster_graph_time = t.elapsed();

        // Pass 2b: map clusters to partitions.
        let t = Instant::now();
        let (cluster_partition, game) = match cfg.assign_mode {
            ClusterAssignMode::Game => {
                let outcome = solve_game(&cg, k, cfg)?;
                (outcome.partition_of.clone(), Some(outcome))
            }
            ClusterAssignMode::Greedy => (greedy_assign::greedy_assign(&cg, k), None),
        };
        let game_time = t.elapsed();

        // Pass 3: partition transformation.
        let t = Instant::now();
        stream.reset()?;
        let transform =
            transform::transform(stream, &clustering, &cluster_partition, k, cfg.tau, m_real)?;
        finish_run(stream, m, transform.assignments.len())?;
        let transform_time = t.elapsed();

        let mut memory = MemoryReport::new();
        memory.add("cluster-table", clustering.memory_bytes());
        memory.add("cluster-graph", cg.memory_bytes());
        memory.add(
            "cluster-partition-map",
            cluster_partition.capacity() * std::mem::size_of::<u32>(),
        );
        let timings = Timings {
            total: total_start.elapsed(),
            io: std::time::Duration::ZERO,
            phases: vec![
                ("clustering", clustering_time),
                ("cluster-graph", cluster_graph_time),
                ("game", game_time),
                ("transform", transform_time),
            ],
        };
        Ok(DetailedRun {
            run: PartitionRun {
                partitioning: Partitioning {
                    k,
                    num_vertices: n.max(clustering.cluster_of.len()),
                    assignments: transform.assignments,
                    loads: transform.loads,
                },
                memory,
                timings,
            },
            clustering,
            cluster_graph: cg,
            cluster_partition,
            game,
        })
    }
}

/// Full artifacts of a CLUGP run (every pass's output).
#[derive(Debug)]
pub struct DetailedRun {
    /// The standard run output.
    pub run: PartitionRun,
    /// Pass 1 output.
    pub clustering: ClusteringResult,
    /// Pass 2 cluster-level graph.
    pub cluster_graph: ClusterGraph,
    /// Pass 2 output: cluster → partition.
    pub cluster_partition: Vec<u32>,
    /// Game diagnostics (None for CLUGP-G).
    pub game: Option<GameOutcome>,
}

impl Partitioner for Clugp {
    fn name(&self) -> &'static str {
        match (self.config.splitting, self.config.assign_mode) {
            (true, ClusterAssignMode::Game) => "CLUGP",
            (false, ClusterAssignMode::Game) => "CLUGP-S",
            (true, ClusterAssignMode::Greedy) => "CLUGP-G",
            (false, ClusterAssignMode::Greedy) => "CLUGP-SG",
        }
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        Ok(self.partition_detailed(stream, k)?.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
    use clugp_graph::order::{ordered_edges, StreamOrder};
    use clugp_graph::stream::InMemoryStream;

    fn web(n: u64, seed: u64) -> (u64, Vec<clugp_graph::types::Edge>) {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: n,
            seed,
            ..Default::default()
        });
        (g.num_vertices(), ordered_edges(&g, StreamOrder::Bfs))
    }

    #[test]
    fn full_pipeline_validates() {
        let (n, edges) = web(2_000, 1);
        let mut s = InMemoryStream::new(n, edges.clone());
        let run = Clugp::default().partition(&mut s, 8).unwrap();
        run.partitioning.validate().unwrap();
        assert_eq!(run.partitioning.assignments.len(), edges.len());
    }

    #[test]
    fn respects_balance_cap() {
        let (n, edges) = web(2_000, 2);
        let m = edges.len() as f64;
        let mut s = InMemoryStream::new(n, edges);
        for k in [2u32, 8, 32] {
            let run = Clugp::default().partition(&mut s, k).unwrap();
            let lmax = (1.0 * m / f64::from(k)).ceil();
            let max = *run.partitioning.loads.iter().max().unwrap();
            assert!(
                max as f64 <= lmax,
                "k={k}: max load {max} exceeds Lmax {lmax}"
            );
        }
    }

    #[test]
    fn beats_hashing_on_web_graphs() {
        let (n, edges) = web(3_000, 3);
        let mut s = InMemoryStream::new(n, edges.clone());
        let clugp = Clugp::default().partition(&mut s, 16).unwrap();
        let hash = crate::baselines::Hashing::default()
            .partition(&mut s, 16)
            .unwrap();
        let qc = PartitionQuality::compute(&edges, &clugp.partitioning);
        let qh = PartitionQuality::compute(&edges, &hash.partitioning);
        assert!(
            qc.replication_factor < 0.7 * qh.replication_factor,
            "CLUGP {} vs Hashing {}",
            qc.replication_factor,
            qh.replication_factor
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (n, edges) = web(1_500, 4);
        let mut s = InMemoryStream::new(n, edges);
        let a = Clugp::default().partition(&mut s, 8).unwrap();
        let b = Clugp::default().partition(&mut s, 8).unwrap();
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
    }

    #[test]
    fn ablation_names() {
        assert_eq!(Clugp::default().name(), "CLUGP");
        assert_eq!(
            Clugp::new(ClugpConfig {
                splitting: false,
                ..Default::default()
            })
            .name(),
            "CLUGP-S"
        );
        assert_eq!(
            Clugp::new(ClugpConfig {
                assign_mode: ClusterAssignMode::Greedy,
                ..Default::default()
            })
            .name(),
            "CLUGP-G"
        );
    }

    #[test]
    fn phase_timings_recorded() {
        let (n, edges) = web(500, 5);
        let mut s = InMemoryStream::new(n, edges);
        let run = Clugp::default().partition(&mut s, 4).unwrap();
        for phase in ["clustering", "cluster-graph", "game", "transform"] {
            assert!(run.timings.phase(phase).is_some(), "missing phase {phase}");
        }
    }

    #[test]
    fn detailed_run_exposes_artifacts() {
        let (n, edges) = web(500, 6);
        let mut s = InMemoryStream::new(n, edges);
        let d = Clugp::default().partition_detailed(&mut s, 4).unwrap();
        assert!(d.clustering.num_clusters > 0);
        assert_eq!(
            d.cluster_partition.len(),
            d.clustering.num_clusters as usize
        );
        assert!(d.game.is_some());
    }

    #[test]
    fn splitting_reduces_replication() {
        let (n, edges) = web(4_000, 7);
        let mut s = InMemoryStream::new(n, edges.clone());
        let with = Clugp::default().partition(&mut s, 32).unwrap();
        let without = Clugp::new(ClugpConfig {
            splitting: false,
            ..Default::default()
        })
        .partition(&mut s, 32)
        .unwrap();
        let qw = PartitionQuality::compute(&edges, &with.partitioning);
        let qo = PartitionQuality::compute(&edges, &without.partitioning);
        assert!(
            qw.replication_factor <= qo.replication_factor * 1.10,
            "splitting {} should not materially lose to no-splitting {}",
            qw.replication_factor,
            qo.replication_factor
        );
    }

    #[test]
    fn game_beats_greedy_assignment() {
        let (n, edges) = web(4_000, 8);
        let mut s = InMemoryStream::new(n, edges.clone());
        let game = Clugp::default().partition(&mut s, 32).unwrap();
        let greedy = Clugp::new(ClugpConfig {
            assign_mode: ClusterAssignMode::Greedy,
            ..Default::default()
        })
        .partition(&mut s, 32)
        .unwrap();
        let qg = PartitionQuality::compute(&edges, &game.partitioning);
        let qr = PartitionQuality::compute(&edges, &greedy.partitioning);
        assert!(
            qg.replication_factor <= qr.replication_factor * 1.05,
            "game {} should not lose to greedy assign {}",
            qg.replication_factor,
            qr.replication_factor
        );
    }

    #[test]
    fn k_one_gives_rf_one() {
        let (n, edges) = web(500, 9);
        let mut s = InMemoryStream::new(n, edges.clone());
        let run = Clugp::default().partition(&mut s, 1).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
    }
}
