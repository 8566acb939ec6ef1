//! Pass 3 — partition transformation (paper Algorithm 1, §III-C).
//!
//! Re-streams the edges and turns the vertex→cluster→partition join into an
//! edge→partition assignment under the hard balance cap `Lmax = τ|E|/k`:
//!
//! * if either endpoint's partition is full, the edge goes to whichever of
//!   the two still has room, else to the first partition with room (load
//!   balance, lines 6-14);
//! * endpoints in the same partition keep the edge there (lines 15-16);
//! * a *divided* endpoint (it already has mirrors from pass 1's splitting)
//!   is cut again — the edge follows the other endpoint (lines 18-19);
//! * otherwise the higher-degree endpoint is cut, i.e. the edge goes to the
//!   lower-degree endpoint's partition (lines 21-22, the power-law rule
//!   shared with HDRF/DBH).
//!
//! `Balancer::step` decides lines 15-22 with one comparison: order the
//! endpoints by the key `(divided, degree)` and follow the smaller. Undivided
//! sorts before divided (lines 18-19), a lower degree before a higher one
//! (lines 21-22, and between two divided endpoints); on equal keys a divided
//! pair follows `u` and an undivided pair the lighter partition, `u` on equal
//! loads; with both endpoints in one partition either answer is it (15-16).
//!
//! The pass keeps only the `k`-element load array (O(1) extra space) and
//! costs O(1) per edge.

use super::clustering::ClusteringResult;
use super::stage::Balancer;
use crate::error::{PartitionError, Result};
use clugp_graph::stream::{chunk_edges, try_for_each_chunk, EdgeStream};

/// `Lmax = ceil(τ|E|/k)` — ceil so `k·Lmax ≥ |E|` always holds and the
/// balance scan cannot fail.
pub(crate) fn load_cap(tau: f64, num_edges: u64, k: u32) -> u64 {
    ((tau * num_edges as f64) / f64::from(k)).ceil() as u64
}

/// Output of the transformation pass.
#[derive(Debug, Clone)]
pub struct TransformResult {
    /// Per-edge partition, in stream order.
    pub assignments: Vec<u32>,
    /// Final per-partition edge counts.
    pub loads: Vec<u64>,
    /// Edges rerouted by the balance path (lines 6-14) — a diagnostic for
    /// how often τ actually binds.
    pub balance_reroutes: u64,
}

/// Runs Algorithm 1. `num_edges` is `|E|` (used for `Lmax`); the stream must
/// yield the same edges as pass 1.
pub fn transform(
    stream: &mut dyn EdgeStream,
    clustering: &ClusteringResult,
    cluster_partition: &[u32],
    k: u32,
    tau: f64,
    num_edges: u64,
) -> Result<TransformResult> {
    if tau < 1.0 {
        return Err(PartitionError::InvalidParam(format!(
            "tau must be >= 1, got {tau}"
        )));
    }
    if let Some(&p) = cluster_partition.iter().find(|&&p| p >= k) {
        return Err(PartitionError::InvalidParam(format!(
            "cluster map names partition {p}, but k is {k}"
        )));
    }
    let mut balancer = Balancer {
        lmax: load_cap(tau, num_edges, k),
        loads: vec![0u64; k as usize],
        cursor: 0,
        reroutes: 0,
    };
    let mut assignments = Vec::with_capacity(num_edges as usize);
    try_for_each_chunk(stream, chunk_edges(), |chunk| -> Result<()> {
        for &e in chunk {
            assignments.push(balancer.step(e, clustering, cluster_partition)?);
        }
        Ok(())
    })?;

    Ok(TransformResult {
        assignments,
        loads: balancer.loads,
        balance_reroutes: balancer.reroutes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clugp::clustering::stream_clustering;
    use clugp_graph::stream::{InMemoryStream, RestreamableStream};
    use clugp_graph::types::Edge;

    /// Runs pass 1 then pass 3 with an explicit cluster→partition map.
    fn run(
        edges: Vec<Edge>,
        vmax: u64,
        cluster_partition_of: impl Fn(u32) -> u32,
        k: u32,
        tau: f64,
    ) -> (ClusteringResult, TransformResult) {
        let m = edges.len() as u64;
        let mut s = InMemoryStream::from_edges(edges);
        let clustering = stream_clustering(&mut s, vmax, true).unwrap();
        let map: Vec<u32> = (0..clustering.num_clusters)
            .map(&cluster_partition_of)
            .collect();
        s.reset().unwrap();
        let t = transform(&mut s, &clustering, &map, k, tau, m).unwrap();
        (clustering, t)
    }

    #[test]
    fn same_partition_edges_stay() {
        // One cluster, everything mapped to partition 1.
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        let (_, t) = run(edges, 100, |_| 1, 2, 2.0);
        assert!(t.assignments.iter().all(|&p| p == 1));
        assert_eq!(t.loads, vec![0, 3]);
    }

    #[test]
    fn hard_cap_is_never_exceeded() {
        let edges: Vec<Edge> = (0..100u32)
            .map(|i| Edge::new(i % 17, (i * 3 + 1) % 17))
            .collect();
        for k in [2u32, 4, 8] {
            for tau in [1.0f64, 1.05, 1.5] {
                let (_, t) = run(edges.clone(), 10, |c| c % k, k, tau);
                let lmax = ((tau * 100.0) / f64::from(k)).ceil() as u64;
                assert!(
                    t.loads.iter().all(|&l| l <= lmax),
                    "k={k} tau={tau}: loads {:?} exceed {lmax}",
                    t.loads
                );
                assert_eq!(t.loads.iter().sum::<u64>(), 100);
            }
        }
    }

    #[test]
    fn tau_one_gives_perfect_balance() {
        let edges: Vec<Edge> = (0..64u32).map(|i| Edge::new(i, i + 64)).collect();
        let (_, t) = run(edges, 4, |c| c % 4, 4, 1.0);
        assert!(t.loads.iter().all(|&l| l == 16), "loads {:?}", t.loads);
    }

    #[test]
    fn higher_degree_endpoint_gets_cut() {
        // Hub 0 (cluster A → partition 0) and leaf chain (cluster B →
        // partition 1). The hub has higher degree so the cross edge should
        // go to the leaf's partition.
        // Build: triangle on {0,1,2} (cluster together), pair (3,4), then
        // cross edge (0,3). Degrees at pass-3 time: deg(0)=3, deg(3)=2.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 4),
            Edge::new(0, 3),
        ];
        let m = edges.len() as u64;
        let mut s = InMemoryStream::from_edges(edges);
        let clustering = stream_clustering(&mut s, 100, true).unwrap();
        let c0 = clustering.cluster_of[0];
        let c3 = clustering.cluster_of[3];
        if c0 == c3 {
            return; // migration merged them; rule not exercised
        }
        let map: Vec<u32> = (0..clustering.num_clusters)
            .map(|c| if c == c0 { 0 } else { 1 })
            .collect();
        s.reset().unwrap();
        let t = transform(&mut s, &clustering, &map, 2, 2.0, m).unwrap();
        // Last edge = the cross edge: deg(0)=3 > deg(3)=2 → cut 0 → partition of 3.
        assert_eq!(*t.assignments.last().unwrap(), 1);
    }

    #[test]
    fn divided_vertices_absorb_cuts() {
        // Star forces splits on the hub; hub is divided, so cross edges
        // follow the spoke's partition.
        let edges: Vec<Edge> = (1..=30).map(|i| Edge::new(0, i)).collect();
        let m = edges.len() as u64;
        let mut s = InMemoryStream::from_edges(edges);
        let clustering = stream_clustering(&mut s, 6, true).unwrap();
        assert!(clustering.divided[0]);
        let map: Vec<u32> = (0..clustering.num_clusters).map(|c| c % 4).collect();
        s.reset().unwrap();
        let t = transform(&mut s, &clustering, &map, 4, 4.0, m).unwrap();
        // Every edge (0, i) with different partitions goes to i's partition.
        let hub_cluster = clustering.cluster_of[0];
        let hub_part = map[hub_cluster as usize];
        for (idx, &p) in t.assignments.iter().enumerate() {
            let spoke = (idx + 1) as u32;
            let sp = map[clustering.cluster_of[spoke] as usize];
            if sp != hub_part {
                assert_eq!(p, sp, "edge to spoke {spoke} should follow the spoke");
            }
        }
    }

    #[test]
    fn both_divided_cuts_the_higher_degree_endpoint() {
        // Force both endpoints of a bridge to be divided, then check the
        // edge lands in the lower-degree endpoint's partition.
        // Two stars with hubs 0 and 50; tiny Vmax splits both hubs.
        let mut edges: Vec<Edge> = (1..=30).map(|i| Edge::new(0, i)).collect();
        edges.extend((51..=70).map(|i| Edge::new(50, i)));
        edges.push(Edge::new(0, 50)); // the bridge
        let m = edges.len() as u64;
        let mut s = InMemoryStream::from_edges(edges);
        let clustering = stream_clustering(&mut s, 6, true).unwrap();
        if !(clustering.divided[0] && clustering.divided[50]) {
            return; // splitting pattern differs; rule not exercised
        }
        // deg(0)=31 > deg(50)=21 at bridge time: cut 0, edge goes to 50's
        // partition.
        let c0 = clustering.cluster_of[0];
        let c50 = clustering.cluster_of[50];
        if c0 == c50 {
            return;
        }
        let map: Vec<u32> = (0..clustering.num_clusters)
            .map(|c| if c == c0 { 0 } else { 1 })
            .collect();
        s.reset().unwrap();
        let t = transform(&mut s, &clustering, &map, 2, 4.0, m).unwrap();
        assert_eq!(*t.assignments.last().unwrap(), map[c50 as usize]);
    }

    #[test]
    fn rejects_bad_tau() {
        let edges = vec![Edge::new(0, 1)];
        let mut s = InMemoryStream::from_edges(edges);
        let clustering = stream_clustering(&mut s, 10, true).unwrap();
        s.reset().unwrap();
        let err = transform(&mut s, &clustering, &[0], 2, 0.5, 1);
        assert!(err.is_err());
    }

    #[test]
    fn understated_edge_count_is_a_typed_error_not_an_index_panic() {
        // Lmax is sized from `num_edges`; a stream holding more edges than
        // that fills every partition and the reroute scan has nowhere to go.
        let edges: Vec<Edge> = (0..40u32).map(|i| Edge::new(i, (i + 1) % 40)).collect();
        let mut s = InMemoryStream::from_edges(edges);
        let clustering = stream_clustering(&mut s, 1000, true).unwrap();
        let map = vec![0u32; clustering.num_clusters as usize];
        s.reset().unwrap();
        let err = transform(&mut s, &clustering, &map, 4, 1.0, 8).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
        // A cluster map pointing past k is rejected before any edge is read.
        s.reset().unwrap();
        let bad = vec![4u32; clustering.num_clusters as usize];
        assert!(transform(&mut s, &clustering, &bad, 4, 1.0, 40).is_err());
    }

    #[test]
    fn empty_stream_is_fine() {
        let mut s = InMemoryStream::from_edges(vec![]);
        let clustering = stream_clustering(&mut s, 10, true).unwrap();
        s.reset().unwrap();
        let t = transform(&mut s, &clustering, &[], 3, 1.0, 0).unwrap();
        assert!(t.assignments.is_empty());
        assert_eq!(t.loads, vec![0, 0, 0]);
    }

    #[test]
    fn reroute_counter_counts_cap_hits() {
        // Map everything to partition 0 with tau=1: all but Lmax edges must
        // be rerouted.
        let edges: Vec<Edge> = (0..40u32).map(|i| Edge::new(i, (i + 1) % 40)).collect();
        let (_, t) = run(edges, 1000, |_| 0, 4, 1.0);
        assert!(t.balance_reroutes >= 30, "reroutes {}", t.balance_reroutes);
        assert!(t.loads.iter().all(|&l| l <= 10));
    }
}
