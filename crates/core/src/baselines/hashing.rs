//! Hashing (random) vertex-cut: assign each edge to `hash(src, dst) mod k`.
//!
//! PowerGraph's default placement. Zero state beyond the output — which is
//! exactly why the paper's Fig. 6 shows it at ~0 memory — and the quality
//! floor every heuristic is compared against. One fixed seed, as the paper
//! runs every competitor at its default settings.

use super::kernel::{run_local, EdgeKernel};
use crate::error::Result;
use crate::partition::PartitionRun;
use crate::partitioner::{mix64, Partitioner};
use crate::state::PartitionLoads;
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;

/// The hashing kernel: no tables, no loads — `hash(src, dst) mod k`.
struct HashingKernel {
    k: u32,
}

impl EdgeKernel for HashingKernel {
    const READS_LOADS: bool = false;

    #[inline]
    fn step(&mut self, e: Edge, _loads: &PartitionLoads) -> Result<u32> {
        let key = (u64::from(e.src) << 32) | u64::from(e.dst);
        Ok((mix64(key ^ DEFAULT_SEED) % u64::from(self.k)) as u32)
    }
}

/// The seed every edge key is mixed with.
const DEFAULT_SEED: u64 = 0x4A5;

/// The random-hashing partitioner.
#[derive(Debug, Clone, Default)]
pub struct Hashing;

impl Partitioner for Hashing {
    fn name(&self) -> &'static str {
        "Hashing"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        run_local(stream, k, |_| Ok(HashingKernel { k }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;

    fn ring(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, (i + 1) % n)).collect()
    }

    #[test]
    fn assigns_every_edge() {
        let edges = ring(100);
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hashing.partition(&mut s, 4).unwrap();
        assert_eq!(run.partitioning.assignments.len(), 100);
        run.partitioning.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let edges = ring(50);
        let mut s = InMemoryStream::from_edges(edges.clone());
        let a = Hashing.partition(&mut s, 8).unwrap();
        let b = Hashing.partition(&mut s, 8).unwrap();
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
        // Each edge lands where its key, mixed with the seed, sends it.
        for (e, &p) in edges.iter().zip(&a.partitioning.assignments) {
            let key = (u64::from(e.src) << 32) | u64::from(e.dst);
            assert_eq!(p, (mix64(key ^ DEFAULT_SEED) % 8) as u32);
        }
    }

    #[test]
    fn loads_roughly_uniform() {
        let edges = ring(8000);
        let mut s = InMemoryStream::from_edges(edges);
        let run = Hashing.partition(&mut s, 8).unwrap();
        for &l in &run.partitioning.loads {
            assert!((800..1200).contains(&(l as usize)), "load {l} too skewed");
        }
    }

    #[test]
    fn k_one_trivial() {
        let edges = ring(10);
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hashing.partition(&mut s, 1).unwrap();
        assert!(run.partitioning.assignments.iter().all(|&p| p == 0));
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reports_zero_memory() {
        let mut s = InMemoryStream::from_edges(ring(10));
        let run = Hashing.partition(&mut s, 2).unwrap();
        assert_eq!(run.memory.total_bytes(), 0);
    }

    #[test]
    fn rejects_k_zero() {
        let mut s = InMemoryStream::from_edges(ring(10));
        assert!(Hashing.partition(&mut s, 0).is_err());
    }
}
