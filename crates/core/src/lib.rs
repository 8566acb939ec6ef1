//! CLUGP — CLUstering-based restreaming Graph Partitioning (ICDE 2022) —
//! and the vertex-cut streaming baselines it is evaluated against.
//!
//! # What this crate provides
//!
//! * [`clugp::Clugp`] — the paper's three-pass architecture:
//!   streaming clustering (allocation–splitting–migration, Algorithm 2),
//!   game-theoretic cluster partitioning (Algorithm 3), and partition
//!   transformation (Algorithm 1). Ablation switches reproduce CLUGP-S
//!   (no splitting) and CLUGP-G (greedy cluster assignment).
//! * [`baselines`] — Hashing, DBH, Greedy (PowerGraph oblivious),
//!   HDRF, and Mint, implemented from their original papers.
//! * [`partitioner::Partitioner`] — the common streaming interface; every
//!   algorithm consumes a [`clugp_graph::stream::RestreamableStream`] and
//!   produces a [`partition::PartitionRun`] bundling the edge assignment,
//!   wall-clock phase timings, and an honest memory report.
//! * [`metrics`] — replication factor and relative load balance (paper
//!   §II-B), computed from the edge assignment through the one replica
//!   recorder, [`state::ReplicaTable::record`].
//! * [`ampc`] — the coordinator/worker engine that runs CLUGP's passes
//!   over several workers, bit-identical to the monolith when sequenced.
//!
//! # Quickstart
//!
//! ```
//! use clugp::clugp::{Clugp, ClugpConfig};
//! use clugp::metrics::PartitionQuality;
//! use clugp::partitioner::Partitioner;
//! use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
//! use clugp_graph::order::{ordered_edges, StreamOrder};
//! use clugp_graph::stream::InMemoryStream;
//!
//! let graph = generate_web_crawl(&WebCrawlConfig {
//!     vertices: 2_000,
//!     ..Default::default()
//! });
//! let edges = ordered_edges(&graph, StreamOrder::Bfs);
//! let mut stream = InMemoryStream::new(graph.num_vertices(), edges.clone());
//!
//! let mut algo = Clugp::new(ClugpConfig::default());
//! let run = algo.partition(&mut stream, 8).unwrap();
//! let quality = PartitionQuality::compute(&edges, &run.partitioning);
//! assert!(quality.replication_factor >= 1.0);
//! assert!(quality.relative_balance <= 1.05);
//! ```

#![warn(missing_docs)]

pub mod ampc;
pub mod baselines;
pub mod clugp;
pub mod error;
pub mod memory;
pub mod metrics;
mod parallel;
pub mod partition;
pub mod partition_io;
pub mod partitioner;
pub mod state;
pub mod vertex_table;

pub use error::{PartitionError, Result};
pub use partition::{PartitionRun, Partitioning, Timings};
pub use partitioner::Partitioner;
pub use vertex_table::VertexTable;

/// The observability substrate (spans, counters, Chrome trace export) the
/// AMPC engine records into — re-exported so downstream consumers of
/// [`ampc::DistOutcome::trace`] need no extra dependency edge.
pub use clugp_obs as obs;
