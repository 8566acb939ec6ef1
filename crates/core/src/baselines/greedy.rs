//! Greedy — the PowerGraph "oblivious" heuristic (Gonzalez et al., OSDI'12).
//!
//! For each edge `(u, v)` with replica sets `A(u)`, `A(v)`:
//!
//! 1. If `A(u) ∩ A(v) ≠ ∅`: least-loaded partition in the intersection.
//! 2. Else if both nonempty: least-loaded partition in `A(u) ∪ A(v)`.
//! 3. Else if exactly one nonempty: least-loaded partition in that set.
//! 4. Else: least-loaded partition overall.
//!
//! The replica table is the "global status table" the paper blames for the
//! heuristics' cost: every decision reads it and every placement writes it.

use super::kernel::{run_local, EdgeKernel, SharedTable};
use crate::error::Result;
use crate::partition::PartitionRun;
use crate::partitioner::Partitioner;
use crate::state::{PartitionLoads, ReplicaTable};
use crate::vertex_table::DEFAULT_MAX_VERTICES;
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;

/// The greedy kernel: one shared table (replica masks), reads the loads.
pub(crate) struct GreedyKernel {
    replicas: ReplicaTable,
}

impl GreedyKernel {
    /// `n` pre-sizes the replica table (0 for an AMPC worker's scratch).
    pub(crate) fn new(k: u32, n: u64, max_vertices: u64) -> Result<Self> {
        Ok(GreedyKernel {
            replicas: ReplicaTable::with_limit(n, k, max_vertices)?,
        })
    }
}

impl EdgeKernel for GreedyKernel {
    const TABLES: usize = 1;
    const READS_LOADS: bool = true;

    fn table(&mut self, _slot: usize) -> &mut dyn SharedTable {
        &mut self.replicas
    }

    /// The four-case PowerGraph rule over the replica table and loads,
    /// inserting both endpoints.
    #[inline]
    fn step(&mut self, e: Edge, loads: &PartitionLoads) -> Result<u32> {
        let replicas = &mut self.replicas;
        replicas.ensure_vertices(u64::from(e.src.max(e.dst)) + 1)?;
        // The cases fall through one another, so neither set is sized first:
        // an empty set yields no candidate, and the union of one empty set is
        // the other (case 3).
        let (of_u, of_v) = (replicas.partitions_of(e.src), replicas.partitions_of(e.dst));
        let p = loads
            .argmin_among(of_u.filter(|&p| replicas.contains(e.dst, p))) // case 1
            .or_else(|| loads.argmin_among(replicas.partitions_of(e.src).chain(of_v))) // 2, 3
            .unwrap_or_else(|| loads.argmin()); // case 4: fresh edge
        replicas.insert(e.src, p);
        replicas.insert(e.dst, p);
        Ok(p)
    }
}

/// The PowerGraph greedy (oblivious) partitioner.
#[derive(Debug, Clone)]
pub struct Greedy {
    max_vertices: u64,
}

impl Default for Greedy {
    fn default() -> Self {
        Greedy::new()
    }
}

impl Greedy {
    /// Creates the greedy partitioner.
    pub fn new() -> Self {
        Greedy {
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }

    /// Caps the internal vertex id space: a stream whose ids reach the cap
    /// fails with `InvalidParam` instead of growing the replica table
    /// without bound (see `crate::vertex_table`).
    pub fn with_max_vertices(max_vertices: u64) -> Self {
        Greedy { max_vertices }
    }
}

impl Partitioner for Greedy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        run_local(stream, k, |n| GreedyKernel::new(k, n, self.max_vertices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;

    #[test]
    fn path_graph_stays_on_one_partition() {
        // A path streamed in order always hits case 1/3: no replicas needed
        // beyond the shared endpoints, and the whole path can sit together
        // until balance pulls it apart.
        let edges: Vec<Edge> = (0..20).map(|i| Edge::new(i, i + 1)).collect();
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Greedy::new().partition(&mut s, 4).unwrap();
        run.partitioning.validate().unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        // A fresh chain keeps extending the same partition.
        assert!(q.replication_factor < 1.3, "rf = {}", q.replication_factor);
    }

    #[test]
    fn triangle_closes_in_intersection() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Greedy::new().partition(&mut s, 4).unwrap();
        // All three edges in one partition: RF exactly 1.
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_edges_balance_loads() {
        // Disjoint edges: every edge is case 4 → least-loaded → perfect balance.
        let edges: Vec<Edge> = (0..40).map(|i| Edge::new(2 * i, 2 * i + 1)).collect();
        let mut s = InMemoryStream::from_edges(edges);
        let run = Greedy::new().partition(&mut s, 4).unwrap();
        assert!(run.partitioning.loads.iter().all(|&l| l == 10));
    }

    #[test]
    fn beats_hashing_on_communities() {
        use clugp_graph::gen::{generate_copying_model, CopyingModelConfig};
        use clugp_graph::order::{ordered_edges, StreamOrder};
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 2_000,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Random(5));
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let greedy = Greedy::new().partition(&mut s, 16).unwrap();
        let hashing = crate::baselines::Hashing::default()
            .partition(&mut s, 16)
            .unwrap();
        let qg = PartitionQuality::compute(&edges, &greedy.partitioning);
        let qh = PartitionQuality::compute(&edges, &hashing.partitioning);
        assert!(
            qg.replication_factor < qh.replication_factor,
            "greedy {} should beat hashing {}",
            qg.replication_factor,
            qh.replication_factor
        );
    }

    #[test]
    fn id_explosion_is_a_clean_error() {
        use crate::error::PartitionError;
        // An id past the configured cap mid-stream: InvalidParam, not OOM.
        let mut s = InMemoryStream::new(10, vec![Edge::new(0, 1), Edge::new(5_000, 2)]);
        let err = Greedy::with_max_vertices(100)
            .partition(&mut s, 4)
            .unwrap_err();
        assert!(matches!(err, PartitionError::InvalidParam(_)));
        // A stream claiming u64::MAX vertices up front: rejected at sizing.
        let mut lying = InMemoryStream::new(u64::MAX, vec![Edge::new(0, 1)]);
        assert!(matches!(
            Greedy::new().partition(&mut lying, 4),
            Err(PartitionError::InvalidParam(_))
        ));
    }

    #[test]
    fn memory_includes_replica_table() {
        let edges = vec![Edge::new(0, 1)];
        let mut s = InMemoryStream::from_edges(edges);
        let run = Greedy::new().partition(&mut s, 4).unwrap();
        assert!(run.memory.get("replica-table").unwrap() > 0);
    }
}
