//! Pass 1 — streaming clustering with the allocation–splitting–migration
//! framework (paper Algorithm 2, §IV).
//!
//! For each streamed edge `(u, v)`:
//!
//! 1. **Allocation**: endpoints without a cluster get fresh singletons.
//! 2. **Splitting** (CLUGP's addition over Holl): when a cluster's volume
//!    (sum of member partial degrees) reaches `Vmax`, the endpoint that
//!    pushed it over is evicted into a fresh cluster and marked *divided* —
//!    its master moves out, a mirror conceptually stays behind. Chopping the
//!    high-degree vertex this way is what lowers the replication factor
//!    (Theorems 1-2).
//! 3. **Migration**: an endpoint of the smaller cluster migrates into the
//!    bigger one, pulling communities together. The exact rule is governed
//!    by [`MigrationPolicy`] (the paper's verbatim rule, or our anchored
//!    default — see the policy docs and the fig9 ablation).
//!
//! With `splitting = false` step 2 is skipped and the algorithm degenerates
//! to Hollocou's allocation–migration (the paper's CLUGP-S ablation and
//! Figure 2(c) behaviour).
//!
//! Note: Algorithm 2 line 18 of the paper reads `vol(c'_v) += deg[u]`; we
//! implement the symmetric `deg[v]` (see DESIGN.md §4 honest-divergence
//! notes).

use super::config::MigrationPolicy;
use super::stage::{Pass1, VertexState};
use crate::error::{PartitionError, Result};
use crate::vertex_table::DEFAULT_MAX_VERTICES;
use clugp_graph::stream::{chunk_edges, try_for_each_chunk, EdgeStream};

/// Sentinel for "no cluster assigned yet".
pub const NO_CLUSTER: u32 = u32::MAX;

/// Output of the streaming-clustering pass. Derefs to its [`VertexState`]:
/// `result.cluster_of[v]`, `result.degree`, `result.divided`.
#[derive(Debug, Clone)]
pub struct ClusteringResult {
    /// The per-vertex tables, cluster ids dense.
    pub vertices: VertexState,
    /// Number of dense clusters.
    pub num_clusters: u32,
    /// Final volume per dense cluster (sum of member degrees).
    pub volumes: Vec<u64>,
    /// Diagnostics: number of splitting operations performed.
    pub splits: u64,
    /// Diagnostics: number of migration operations performed.
    pub migrations: u64,
}

impl std::ops::Deref for ClusteringResult {
    type Target = VertexState;

    fn deref(&self) -> &VertexState {
        &self.vertices
    }
}

impl ClusteringResult {
    /// Heap bytes of the tables the algorithm kept (the `O(2|V|)` state the
    /// paper cites for CLUGP in the space experiment).
    pub fn memory_bytes(&self) -> usize {
        self.cluster_of.memory_bytes()
            + self.degree.memory_bytes()
            + self.divided.memory_bytes()
            + self.volumes.capacity() * 8
    }
}

/// Runs Algorithm 2 over one pass of `stream` with the default (Anchored)
/// migration policy and the default `max_vertices` cap.
///
/// `vmax` is the maximum cluster volume (`|E|/k` in the paper); `splitting`
/// toggles CLUGP vs Holl behaviour.
///
/// # Errors
///
/// Fails with `InvalidParam` if the stream's ids or vertex hint exceed the
/// `max_vertices` cap (see `crate::vertex_table`).
pub fn stream_clustering(
    stream: &mut dyn EdgeStream,
    vmax: u64,
    splitting: bool,
) -> Result<ClusteringResult> {
    stream_clustering_capped(
        stream,
        vmax,
        splitting,
        MigrationPolicy::Anchored,
        DEFAULT_MAX_VERTICES,
    )
}

/// Runs Algorithm 2 with an explicit [`MigrationPolicy`] and `max_vertices`
/// cap on the internal id space.
pub fn stream_clustering_capped(
    stream: &mut dyn EdgeStream,
    vmax: u64,
    splitting: bool,
    migration: MigrationPolicy,
    max_vertices: u64,
) -> Result<ClusteringResult> {
    let n_hint = stream.num_vertices_hint().unwrap_or(0);
    let mut pass = Pass1 {
        vertices: VertexState::new(n_hint, max_vertices)?,
        // Raw (pre-compaction) cluster volumes; ids grow monotonically in
        // creation order, which preserves stream locality for batching.
        vol: Vec::with_capacity(n_hint as usize / 4 + 16),
        splits: 0,
        migrations: 0,
        vmax,
        splitting,
        migration,
    };
    // Chunked drain: one virtual dispatch per block of edges, then a tight
    // loop — chunk boundaries carry no semantics, so the result is
    // bit-identical for any chunking.
    try_for_each_chunk(stream, chunk_edges(), |chunk| -> Result<()> {
        for &e in chunk {
            pass.step(e)?;
        }
        Ok(())
    })?;

    let mut vertices = pass.vertices;
    let (num_clusters, volumes) = compact_clusters(&mut vertices, pass.vol.len())?;
    Ok(ClusteringResult {
        vertices,
        num_clusters,
        volumes,
        splits: pass.splits,
        migrations: pass.migrations,
    })
}

/// Compacts raw cluster ids (dropping emptied ones) in creation order, so
/// dense ids keep the stream-locality property §V-D relies on. Rewrites
/// `cluster_of` in place; returns the dense cluster count and the dense
/// per-cluster volumes (sum of member degrees). `raw_len` is the raw id
/// watermark (the length of the pass's `vol` vec); a vertex naming a cluster
/// at or past it — state assembled from workers' rows can — is an error.
pub(crate) fn compact_clusters(
    vertices: &mut VertexState,
    raw_len: usize,
) -> Result<(u32, Vec<u64>)> {
    let mut used = vec![false; raw_len];
    for (v, &c) in vertices.cluster_of.iter().enumerate() {
        if c != NO_CLUSTER {
            *used.get_mut(c as usize).ok_or_else(|| {
                PartitionError::InvalidParam(format!(
                    "vertex {v} names raw cluster {c}, the watermark is {raw_len}"
                ))
            })? = true;
        }
    }
    let mut raw_to_dense: Vec<u32> = vec![NO_CLUSTER; raw_len];
    let mut next_dense = 0u32;
    for (raw, &in_use) in used.iter().enumerate() {
        if in_use {
            raw_to_dense[raw] = next_dense;
            next_dense += 1;
        }
    }
    let mut volumes = vec![0u64; next_dense as usize];
    let degrees = vertices.degree.as_slice();
    for (vtx, c) in vertices.cluster_of.as_mut_slice().iter_mut().enumerate() {
        if *c != NO_CLUSTER {
            let dense = raw_to_dense[*c as usize];
            debug_assert_ne!(dense, NO_CLUSTER);
            *c = dense;
            volumes[dense as usize] += u64::from(degrees[vtx]);
        }
    }
    Ok((next_dense, volumes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;

    fn cluster(edges: Vec<Edge>, vmax: u64, splitting: bool) -> ClusteringResult {
        let mut s = InMemoryStream::from_edges(edges);
        stream_clustering(&mut s, vmax, splitting).unwrap()
    }

    #[test]
    fn single_edge_merges_into_one_cluster() {
        let r = cluster(vec![Edge::new(0, 1)], 100, true);
        assert_eq!(r.num_clusters, 1);
        assert_eq!(r.cluster_of[0], r.cluster_of[1]);
        assert_eq!(r.degree.as_slice(), &[1, 1]);
        assert_eq!(r.migrations, 1);
        assert_eq!(r.splits, 0);
    }

    #[test]
    fn triangle_forms_one_cluster() {
        let r = cluster(
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)],
            100,
            true,
        );
        assert_eq!(r.num_clusters, 1);
        assert_eq!(r.volumes, vec![6]); // Σ degrees = 2+2+2
    }

    #[test]
    fn volumes_equal_sum_of_member_degrees() {
        // The invariant the incremental accounting must maintain.
        let edges: Vec<Edge> = (0..50u32)
            .map(|i| Edge::new(i % 10, (i * 7 + 1) % 10))
            .collect();
        let r = cluster(edges, 8, true);
        let mut recomputed = vec![0u64; r.num_clusters as usize];
        for (v, &c) in r.cluster_of.as_slice().iter().enumerate() {
            if c != NO_CLUSTER {
                recomputed[c as usize] += u64::from(r.degree[v as u32]);
            }
        }
        assert_eq!(recomputed, r.volumes);
    }

    #[test]
    fn star_hub_is_split_and_marked_divided() {
        // Hub 0 with 40 spokes, tiny Vmax forces splits on the hub.
        let edges: Vec<Edge> = (1..=40).map(|i| Edge::new(0, i)).collect();
        let r = cluster(edges, 8, true);
        assert!(r.splits > 0, "expected at least one split");
        assert!(r.divided[0], "hub must be marked divided");
        assert!(r.num_clusters > 1);
    }

    #[test]
    fn saturated_hub_does_not_self_split_repeatedly() {
        // With Vmax=2 the hub is evicted once into its own cluster, which
        // immediately saturates; every further spoke edge used to "split"
        // the then-solitary hub into a fresh identical cluster, inflating
        // `splits` (one per remaining edge) and the raw cluster id space
        // with no effect on the final mapping.
        let spokes = 40u32;
        let edges: Vec<Edge> = (1..=spokes).map(|i| Edge::new(0, i)).collect();
        let r = cluster(edges, 2, true);
        assert_eq!(r.splits, 1, "only the genuine eviction counts");
        assert!(r.divided[0]);
        assert_eq!(
            r.divided.iter().filter(|&&d| d).count(),
            1,
            "only the hub is divided"
        );
        // The hub sits alone in its cluster; no other vertex shares it.
        let hub_cluster = r.cluster_of[0];
        assert_eq!(
            r.cluster_of.iter().filter(|&&c| c == hub_cluster).count(),
            1
        );
        // Final volumes must still equal the sum of member degrees.
        let mut recomputed = vec![0u64; r.num_clusters as usize];
        for (v, &c) in r.cluster_of.as_slice().iter().enumerate() {
            if c != NO_CLUSTER {
                recomputed[c as usize] += u64::from(r.degree[v as u32]);
            }
        }
        assert_eq!(recomputed, r.volumes);
    }

    #[test]
    fn no_splitting_means_no_divided_vertices() {
        let edges: Vec<Edge> = (1..=40).map(|i| Edge::new(0, i)).collect();
        let r = cluster(edges, 8, false);
        assert_eq!(r.splits, 0);
        assert!(r.divided.iter().all(|&d| !d));
    }

    #[test]
    fn holl_produces_more_clusters_for_star() {
        // Without splitting the hub's cluster saturates and every new spoke
        // becomes a singleton — the Figure 2(c) behaviour.
        let edges: Vec<Edge> = (1..=40).map(|i| Edge::new(0, i)).collect();
        let without = cluster(edges.clone(), 8, false);
        let with = cluster(edges, 8, true);
        assert!(
            with.num_clusters <= without.num_clusters,
            "splitting {} vs holl {}",
            with.num_clusters,
            without.num_clusters
        );
    }

    #[test]
    fn untouched_vertices_have_no_cluster() {
        let mut s = InMemoryStream::new(10, vec![Edge::new(0, 1)]);
        let r = stream_clustering(&mut s, 100, true).unwrap();
        assert_eq!(r.cluster_of[5], NO_CLUSTER);
        let clustered = r.cluster_of.iter().filter(|&&c| c != NO_CLUSTER).count();
        assert_eq!(clustered, 2);
    }

    #[test]
    fn self_loop_counts_double_degree() {
        let r = cluster(vec![Edge::new(3, 3)], 100, true);
        assert_eq!(r.degree[3], 2);
        assert_eq!(r.num_clusters, 1);
        assert_eq!(r.volumes, vec![2]);
    }

    #[test]
    fn empty_stream() {
        let r = cluster(vec![], 100, true);
        assert_eq!(r.num_clusters, 0);
        assert_eq!(r.splits, 0);
        assert_eq!(r.migrations, 0);
    }

    #[test]
    fn dense_ids_are_contiguous() {
        let edges: Vec<Edge> = (0..200u32)
            .map(|i| Edge::new(i % 37, (i * 3) % 37))
            .collect();
        let r = cluster(edges, 10, true);
        let mut seen = vec![false; r.num_clusters as usize];
        for &c in r.cluster_of.iter() {
            if c != NO_CLUSTER {
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every dense id must be inhabited");
    }

    #[test]
    fn fresh_vertices_migrate_into_neighbor_cluster() {
        // Build cluster {0,1,2} (triangle); a fresh vertex 3 arriving on
        // edge (2,3) is loose (anchor 0) and migrates into the triangle.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(2, 3),
        ];
        let r = cluster(edges, 100, true);
        assert_eq!(r.cluster_of[3], r.cluster_of[0]);
    }

    #[test]
    fn anchored_vertices_resist_migration() {
        // Two triangles joined by one bridge: each endpoint of the bridge is
        // anchored in its own community (anchor > 0 on both sides), so the
        // bridge must not yank either across.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 4),
            Edge::new(4, 5),
            Edge::new(5, 3),
            Edge::new(2, 3),
        ];
        let r = cluster(edges, 100, true);
        assert_eq!(r.cluster_of[0], r.cluster_of[2]);
        assert_eq!(r.cluster_of[3], r.cluster_of[5]);
        assert_ne!(r.cluster_of[2], r.cluster_of[3]);
    }
}
