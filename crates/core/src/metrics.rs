//! Partition quality metrics (paper §II-B): replication factor and relative
//! load balance, computed post-hoc from the edge assignment so that the
//! measurement is identical for every algorithm regardless of what internal
//! state it kept.

use crate::error::{PartitionError, Result};
use crate::partition::Partitioning;
use crate::state::ReplicaTable;
use clugp_graph::stream::{chunk_edges, try_for_each_chunk, RestreamableStream};
use clugp_graph::types::Edge;
use serde::Serialize;

/// Quality of a vertex-cut partitioning.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionQuality {
    /// `(1/|V_touched|) Σ_v |P(v)|` — the communication-cost proxy the paper
    /// minimizes (Eq. 1). Vertices that never appear in the stream are
    /// excluded from the denominator.
    pub replication_factor: f64,
    /// `k · max|p_i| / |E|` — the computation-balance constraint τ bounds.
    pub relative_balance: f64,
    /// Total number of vertex replicas `Σ_v |P(v)|`.
    pub total_replicas: u64,
    /// Number of vertices that appear in at least one partition.
    pub touched_vertices: u64,
    /// Number of mirror (non-master) replicas: `Σ_v (|P(v)| − 1)`.
    pub mirrors: u64,
    /// Per-partition edge counts.
    pub loads: Vec<u64>,
}

/// Records the replicas `edges` place when edge `i` goes to `parts[i]`.
fn place(table: &mut ReplicaTable, edges: &[Edge], parts: &[u32]) -> Result<()> {
    for (e, &p) in edges.iter().zip(parts) {
        table.ensure_vertices(u64::from(e.src.max(e.dst)) + 1)?;
        table.insert(e.src, p);
        table.insert(e.dst, p);
    }
    Ok(())
}

/// Replays `stream` from its start against `partitioning` and returns the
/// replica table the assignment implies — the one table quality and the
/// placement directory are both read from, built without holding the edges.
///
/// # Errors
///
/// A stream that fails, or yields another number of edges than the
/// assignment has entries; an endpoint past the table's vertex cap.
pub fn replay_replicas(
    stream: &mut dyn RestreamableStream,
    partitioning: &Partitioning,
) -> Result<ReplicaTable> {
    let parts = &partitioning.assignments;
    let mut table = ReplicaTable::new(partitioning.num_vertices, partitioning.k)?;
    let mut seen = 0usize;
    stream.reset()?;
    try_for_each_chunk(stream, chunk_edges(), |chunk| {
        let of_chunk = parts.get(seen..).unwrap_or_default();
        seen += chunk.len();
        place(&mut table, chunk, of_chunk)
    })?;
    // A stream that met a decode error ended early and parked it.
    stream.reset()?;
    if seen != parts.len() {
        return Err(PartitionError::InvalidParam(format!(
            "the stream yielded {seen} edges, the assignment has {}",
            parts.len()
        )));
    }
    Ok(table)
}

impl PartitionQuality {
    /// Computes quality for `partitioning` over `edges` (which must be in
    /// the same stream order the partitioner consumed).
    ///
    /// # Panics
    ///
    /// Panics if `edges.len() != partitioning.assignments.len()`, or if the
    /// partitioning's dimensions exceed the internal id space (impossible
    /// for a `Partitioning` produced by an in-tree partitioner, whose own
    /// caps are checked first).
    pub fn compute(edges: &[Edge], partitioning: &Partitioning) -> Self {
        assert_eq!(
            edges.len(),
            partitioning.assignments.len(),
            "edge list and assignment length mismatch"
        );
        let mut table = ReplicaTable::new(partitioning.num_vertices, partitioning.k)
            .expect("partitioning dimensions exceed the internal id space");
        place(&mut table, edges, &partitioning.assignments)
            .expect("edge id exceeds the internal id space");
        Self::of(&table, partitioning)
    }

    /// Quality read off the replica table of `partitioning`
    /// ([`replay_replicas`]).
    pub fn of(replicas: &ReplicaTable, partitioning: &Partitioning) -> Self {
        let total = replicas.total_replicas();
        let touched = replicas.touched_vertices();
        PartitionQuality {
            replication_factor: replicas.replication_factor(),
            relative_balance: partitioning.relative_balance(),
            total_replicas: total,
            touched_vertices: touched,
            mirrors: total - touched,
            loads: partitioning.loads.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Vec<Edge> {
        vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]
    }

    fn partitioning(k: u32, assignments: Vec<u32>) -> Partitioning {
        let mut loads = vec![0u64; k as usize];
        for &p in &assignments {
            loads[p as usize] += 1;
        }
        Partitioning {
            k,
            num_vertices: 3,
            assignments,
            loads,
        }
    }

    #[test]
    fn single_partition_has_rf_one() {
        let q = PartitionQuality::compute(&triangle(), &partitioning(1, vec![0, 0, 0]));
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
        assert_eq!(q.mirrors, 0);
        assert_eq!(q.touched_vertices, 3);
        assert!((q.relative_balance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_spread_replicates_everything() {
        // Each triangle edge on its own partition: every vertex in 2 parts.
        let q = PartitionQuality::compute(&triangle(), &partitioning(3, vec![0, 1, 2]));
        assert!((q.replication_factor - 2.0).abs() < 1e-12);
        assert_eq!(q.mirrors, 3);
    }

    #[test]
    fn isolated_vertices_do_not_dilute_rf() {
        let edges = vec![Edge::new(0, 1)];
        let mut p = partitioning(2, vec![0]);
        p.num_vertices = 100; // 98 isolated vertices
        let q = PartitionQuality::compute(&edges, &p);
        assert_eq!(q.touched_vertices, 2);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balance_reflects_skew() {
        let q = PartitionQuality::compute(&triangle(), &partitioning(3, vec![0, 0, 0]));
        assert!((q.relative_balance - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let _ = PartitionQuality::compute(&triangle(), &partitioning(2, vec![0]));
    }

    #[test]
    fn replay_builds_the_table_compute_reads() {
        use clugp_graph::stream::{ChunkLimited, InMemoryStream};
        let p = partitioning(3, vec![0, 1, 2]);
        // Two-edge pulls: a chunk boundary inside the assignment.
        let mut stream = ChunkLimited::new(InMemoryStream::new(3, triangle()), 2);
        let table = replay_replicas(&mut stream, &p).unwrap();
        let (q, direct) = (
            PartitionQuality::of(&table, &p),
            PartitionQuality::compute(&triangle(), &p),
        );
        assert_eq!(q.total_replicas, direct.total_replicas);
        assert_eq!(q.mirrors, 3);
        assert_eq!(q.replication_factor, direct.replication_factor);
        assert!(table.partitions_of(0).eq([0, 2]));
    }

    #[test]
    fn replay_rejects_a_stream_of_another_length_or_past_the_cap() {
        use clugp_graph::stream::InMemoryStream;
        let mut stream = InMemoryStream::new(3, triangle());
        let err = replay_replicas(&mut stream, &partitioning(2, vec![0, 1])).unwrap_err();
        assert!(err.to_string().contains("yielded 3 edges"), "{err}");
        let err = replay_replicas(&mut stream, &partitioning(2, vec![0, 1, 0, 1])).unwrap_err();
        assert!(err.to_string().contains("the assignment has 4"), "{err}");
        let mut stream = InMemoryStream::new(3, vec![Edge::new(0, u32::MAX)]);
        let err = replay_replicas(&mut stream, &partitioning(2, vec![0])).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
    }

    #[test]
    fn self_loop_counts_one_vertex() {
        let edges = vec![Edge::new(5, 5)];
        let mut p = partitioning(2, vec![1]);
        p.num_vertices = 6;
        let q = PartitionQuality::compute(&edges, &p);
        assert_eq!(q.touched_vertices, 1);
        assert_eq!(q.total_replicas, 1);
    }
}
