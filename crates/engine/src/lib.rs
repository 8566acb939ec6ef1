//! PowerGraph-style synchronous GAS (Gather–Apply–Scatter) execution
//! simulator.
//!
//! The paper's system experiments (Fig. 4(b), Fig. 8) run PageRank and
//! Connected Components on PowerGraph over 32 dockerized nodes, with PUMBA
//! injecting network latency. This crate simulates that substrate faithfully
//! at the level that matters for partition-quality comparisons:
//!
//! * [`placement`] — builds the per-machine subgraphs from a real
//!   vertex-cut [`clugp::Partitioning`]: each edge lives on exactly one
//!   machine, each vertex has one *master* and `|P(v)|−1` *mirror* replicas,
//!   read off the same replica table partition quality is computed from.
//! * [`runtime`] — executes vertex programs in bulk-synchronous supersteps
//!   with the exact PowerGraph message pattern: mirrors send partial gather
//!   accumulators to masters, masters apply and synchronize the new vertex
//!   value back to mirrors. Every message and byte is counted.
//! * [`cost`] — converts the measured per-machine work and per-superstep
//!   message volumes into wall-clock estimates under a configurable
//!   compute/bandwidth/latency model (the PUMBA RTT sweep of Fig. 8(c)).
//! * [`apps`] — PageRank, Connected Components, single-source BFS/SSSP and
//!   label propagation, each verified against sequential references.
//!
//! Computation results are *exact* (not approximated by the cost model):
//! the engine really gathers along in-edges machine by machine, so tests can
//! assert equality with single-threaded reference implementations.

#![warn(missing_docs)]

pub mod apps;
pub mod cost;
pub mod placement;
pub mod runtime;
pub mod stats;

pub use cost::CostModel;
pub use placement::DistributedGraph;
pub use runtime::{Engine, VertexProgram};
pub use stats::{ExecutionStats, SuperstepStats};
