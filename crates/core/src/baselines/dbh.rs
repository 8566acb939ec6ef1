//! DBH — Degree-Based Hashing (Xie et al., NeurIPS 2014).
//!
//! For each edge `(u, v)`, hash the endpoint with the *smaller* degree: the
//! edge lands in that endpoint's home partition, so high-degree vertices are
//! the ones that get cut (replicated), which is provably good on power-law
//! graphs. Degrees are the partial degrees observed so far in the stream
//! (the streaming adaptation; the original assumes a degree oracle).

use super::kernel::{run_local, EdgeKernel, SharedTable};
use crate::error::Result;
use crate::partition::PartitionRun;
use crate::partitioner::{mix64, Partitioner};
use crate::state::PartitionLoads;
use crate::vertex_table::{VertexTable, DEFAULT_MAX_VERTICES};
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;

/// The DBH kernel: one shared table (partial degrees), never reads loads.
pub(crate) struct DbhKernel {
    seed: u64,
    k: u32,
    degree: VertexTable<u32>,
}

impl DbhKernel {
    /// `n` pre-sizes the degree table (0 for an AMPC worker's scratch).
    pub(crate) fn new(seed: u64, k: u32, n: u64, max_vertices: u64) -> Result<Self> {
        Ok(DbhKernel {
            seed,
            k,
            degree: VertexTable::with_limit(n, 0, max_vertices)?,
        })
    }
}

impl EdgeKernel for DbhKernel {
    const TABLES: usize = 1;
    const READS_LOADS: bool = false;

    fn table(&mut self, _slot: usize) -> &mut dyn SharedTable {
        &mut self.degree
    }

    /// Bumps partial degrees and hashes the lower-degree endpoint (cutting
    /// the higher-degree one).
    #[inline]
    fn step(&mut self, e: Edge, _loads: &PartitionLoads) -> Result<u32> {
        let degree = &mut self.degree;
        degree.ensure(e.src.max(e.dst))?;
        degree[e.src] += 1;
        degree[e.dst] += 1;
        let key = if degree[e.src] <= degree[e.dst] {
            e.src
        } else {
            e.dst
        };
        Ok((mix64(u64::from(key) ^ self.seed) % u64::from(self.k)) as u32)
    }
}

/// Default hash seed (shared with the distributed engine so
/// `DistAlgo::dbh()` matches `Dbh::default()`).
pub(crate) const DEFAULT_SEED: u64 = 0xDB4;

/// The degree-based hashing partitioner.
#[derive(Debug, Clone)]
pub struct Dbh {
    seed: u64,
    max_vertices: u64,
}

impl Dbh {
    /// Creates a DBH partitioner with the given hash seed.
    pub fn new(seed: u64) -> Self {
        Dbh {
            seed,
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }

    /// Caps the internal vertex id space (see `crate::vertex_table`).
    pub fn with_max_vertices(seed: u64, max_vertices: u64) -> Self {
        Dbh { seed, max_vertices }
    }
}

impl Default for Dbh {
    fn default() -> Self {
        Dbh::new(DEFAULT_SEED)
    }
}

impl Partitioner for Dbh {
    fn name(&self) -> &'static str {
        "DBH"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        run_local(stream, k, |n| {
            DbhKernel::new(self.seed, k, n, self.max_vertices)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;

    /// A star graph: hub 0 connected to n spokes.
    fn star(n: u32) -> Vec<Edge> {
        (1..=n).map(|i| Edge::new(0, i)).collect()
    }

    #[test]
    fn star_cuts_the_hub_not_the_spokes() {
        let edges = star(400);
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Dbh::default().partition(&mut s, 8).unwrap();
        run.partitioning.validate().unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        // Spokes are hashed to their own home partitions; only the hub is
        // replicated, so total replicas ≈ |V| + (k - 1).
        assert!(
            q.total_replicas <= 401 + 8,
            "replicas {} should be near |V|",
            q.total_replicas
        );
    }

    #[test]
    fn spoke_edges_follow_spoke_hash() {
        // After the first edge, the hub has higher partial degree than every
        // fresh spoke, so each edge is hashed by its spoke id.
        let edges = star(50);
        let mut s = InMemoryStream::from_edges(edges);
        let seed = 0xDB4;
        let run = Dbh::new(seed).partition(&mut s, 4).unwrap();
        for (i, &p) in run.partitioning.assignments.iter().enumerate().skip(1) {
            let spoke = (i + 1) as u64;
            assert_eq!(p, (mix64(spoke ^ seed) % 4) as u32);
        }
    }

    #[test]
    fn deterministic() {
        let edges = star(100);
        let mut s = InMemoryStream::from_edges(edges);
        let a = Dbh::default().partition(&mut s, 5).unwrap();
        let b = Dbh::default().partition(&mut s, 5).unwrap();
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
    }

    #[test]
    fn memory_reports_degree_array() {
        let mut s = InMemoryStream::from_edges(star(100));
        let run = Dbh::default().partition(&mut s, 5).unwrap();
        assert!(run.memory.get("degrees").unwrap() >= 101 * 4);
    }

    #[test]
    fn grows_past_missing_vertex_hint() {
        // Stream with a lying hint: says 1 vertex, contains ids up to 9.
        let mut s = InMemoryStream::new(1, vec![Edge::new(8, 9)]);
        let run = Dbh::default().partition(&mut s, 2).unwrap();
        assert_eq!(run.partitioning.assignments.len(), 1);
        assert!(run.partitioning.num_vertices >= 10);
    }
}
