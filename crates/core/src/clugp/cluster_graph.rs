//! The cluster-level graph consumed by the partitioning game.
//!
//! Built by one scan of the edge stream after pass 1: an edge whose
//! endpoints share a cluster contributes to that cluster's intra count
//! `|c_i|`; otherwise it contributes to the symmetric inter-cluster weight
//! `w(c_i, c_j) = |e(c_i,c_j)| + |e(c_j,c_i)|`. The game's edge-cut cost
//! `½(|e(c_i,V\a_i)| + |e(V\a_i,c_i)|)` only ever needs the symmetric sums,
//! so directions are merged at build time.
//!
//! The scan counts through `PairSink`, shared with the distributed workers:
//! an `m × m` matrix while the contracted graph is small next to the stream
//! (the semi-external licence: the *contracted* graph may sit in internal
//! memory), a sort of bounded pair buffers otherwise — same aggregate.

use super::clustering::ClusteringResult;
use super::stage::VertexState;
use crate::error::Result;
use clugp_graph::stream::{chunk_edges, try_for_each_chunk, EdgeStream};
use clugp_graph::types::Edge;

/// Weighted cluster adjacency plus per-cluster intra-edge counts.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    /// Number of clusters `m`.
    pub num_clusters: u32,
    /// `|c_i|`: intra-cluster edge count per cluster (the game's cluster
    /// "size").
    pub intra: Vec<u64>,
    /// CSR offsets into `neighbors`.
    offsets: Vec<u64>,
    /// `(neighbor cluster, symmetric weight)` pairs.
    neighbors: Vec<(u32, u32)>,
    /// `Σ_j w(c_i, c_j)`: total external weight per cluster
    /// (`|e(c_i,V\c_i)| + |e(V\c_i,c_i)|`).
    pub total_external: Vec<u64>,
    /// Game load weight per cluster: the cluster volume
    /// `2·|c_i| + Σ_j w(c_i,c_j)` (sum of member degrees). The paper uses
    /// `|c_i|` (intra edges) here, assuming intra-dominant clusters where
    /// the two coincide up to a factor 2; the volume additionally predicts
    /// where *inter*-cluster edges will land in pass 3, which is what the
    /// τ-cap actually bounds (see DESIGN.md §3).
    pub size: Vec<u64>,
}

impl ClusterGraph {
    /// Builds the cluster graph from one pass of `stream` using pass 1's
    /// vertex→cluster table.
    ///
    /// # Panics
    ///
    /// If `stream` yields a vertex pass 1 did not cluster (it changed
    /// between the passes); [`super::Clugp`] returns that as an error.
    pub fn build(stream: &mut dyn EdgeStream, clustering: &ClusteringResult) -> Self {
        Self::try_build(stream, clustering).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ClusterGraph::build`], with a vertex pass 1 did not cluster an
    /// `InvalidParam` naming it.
    pub(crate) fn try_build(
        stream: &mut dyn EdgeStream,
        clustering: &ClusteringResult,
    ) -> Result<Self> {
        let edges = stream.len_hint().unwrap_or(0);
        let mut sink = PairSink::new(clustering.num_clusters as usize, edges);
        try_for_each_chunk(stream, chunk_edges(), |chunk| -> Result<()> {
            for &e in chunk {
                sink.push(e, clustering)?;
            }
            Ok(())
        })?;
        let (intra, agg) = sink.finish();
        Ok(Self::from_parts(clustering.num_clusters, intra, &agg))
    }

    /// Assembles the CSR structure from a per-cluster intra count and a
    /// sorted, deduplicated `(packed pair, weight)` aggregate — the halves
    /// [`PairSink`] produces, or (in the distributed path) the merge of
    /// several workers' partial aggregates.
    pub(crate) fn from_parts(num_clusters: u32, intra: Vec<u64>, agg: &[(u64, u32)]) -> Self {
        let m = num_clusters as usize;
        debug_assert_eq!(intra.len(), m);
        // CSR over the symmetric adjacency, via the exclusive-prefix-shift
        // trick: count degrees in `offsets`, prefix-sum them into bucket
        // *starts*, let the fill phase bump each start to its bucket's end,
        // then shift the array right by one slot to restore canonical CSR
        // offsets — no cloned cursor vector.
        let mut offsets = vec![0u64; m + 1];
        for &(key, _) in agg {
            offsets[(key >> 32) as usize] += 1;
            offsets[(key & 0xFFFF_FFFF) as usize] += 1;
        }
        let mut acc = 0u64;
        for o in offsets.iter_mut() {
            let count = *o;
            *o = acc;
            acc += count;
        }
        let mut neighbors = vec![(0u32, 0u32); acc as usize];
        let mut total_external = vec![0u64; m];
        for &(key, w) in agg {
            let lo = (key >> 32) as u32;
            let hi = (key & 0xFFFF_FFFF) as u32;
            neighbors[offsets[lo as usize] as usize] = (hi, w);
            offsets[lo as usize] += 1;
            neighbors[offsets[hi as usize] as usize] = (lo, w);
            offsets[hi as usize] += 1;
            total_external[lo as usize] += u64::from(w);
            total_external[hi as usize] += u64::from(w);
        }
        // offsets[i] now holds bucket i's end == bucket i+1's start.
        offsets.copy_within(0..m, 1);
        offsets[0] = 0;

        let size: Vec<u64> = intra
            .iter()
            .zip(&total_external)
            .map(|(&i, &e)| 2 * i + e)
            .collect();
        ClusterGraph {
            num_clusters,
            intra,
            offsets,
            neighbors,
            total_external,
            size,
        }
    }

    /// Symmetric weighted neighbors of cluster `c`.
    #[inline]
    pub fn neighbors(&self, c: u32) -> &[(u32, u32)] {
        let lo = self.offsets[c as usize] as usize;
        let hi = self.offsets[c as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// `Σ_i |c_i|`: total intra-cluster edges.
    pub fn total_intra(&self) -> u64 {
        self.intra.iter().sum()
    }

    /// Total inter-cluster edges (each streamed edge counted once).
    pub fn total_inter_edges(&self) -> u64 {
        // Each inter-cluster edge contributes 1 to w(ci,cj), and w is stored
        // symmetrically per endpoint, so the per-cluster sums double-count.
        self.total_external.iter().sum::<u64>() / 2
    }

    /// Total game load weight `Σ_i size_i` (equals `2|E|`).
    pub fn total_size(&self) -> u64 {
        self.size.iter().sum()
    }

    /// The paper's default λ — its maximum value from Theorem 5,
    /// `k² · Σ_i |e(c_i,V\c_i)| / (Σ_i size_i)²`, expressed in the game's
    /// volume-based size units.
    ///
    /// Falls back to 1.0 for an edgeless cluster graph (the balance term is
    /// identically zero and λ is then irrelevant; the transformation pass
    /// enforces balance regardless).
    pub fn lambda_max(&self, k: u32) -> f64 {
        let size_sum = self.total_size() as f64;
        if size_sum == 0.0 {
            return 1.0;
        }
        let inter = self.total_inter_edges() as f64;
        (f64::from(k) * f64::from(k)) * inter / (size_sum * size_sum)
    }

    /// Heap bytes held by the structure.
    pub fn memory_bytes(&self) -> usize {
        self.intra.capacity() * 8
            + self.offsets.capacity() * 8
            + self.neighbors.capacity() * 8
            + self.total_external.capacity() * 8
            + self.size.capacity() * 8
    }
}

/// Most cells the dense count matrix may have: 16 MiB of `u32`.
const DENSE_MAX_CELLS: usize = 1 << 22;

/// Streaming accumulator for the cluster graph's two halves: dense
/// per-cluster intra counts and the sorted symmetric inter-pair aggregate.
///
/// While the contracted graph fits in memory it is an array, not a sort:
/// with `m² ≤ min(edges, DENSE_MAX_CELLS)` and `edges ≤ u32::MAX` the sink
/// counts directed pairs into a row-major `m × m` matrix — one add per edge,
/// the diagonal is the intra count, the row of a source run stays in L1 —
/// and [`PairSink::finish`] folds `w(i,j) + w(j,i)` for `i < j` into the
/// aggregate. Cells per edge, so zeroing and folding the O(m²) matrix stays
/// noise beside the scan; MiB, so the transient is a fixed allowance; and
/// `edges ≤ u32::MAX`, so no cell or symmetric sum can wrap.
///
/// Past the bound (many clusters, an unknown stream length) the general
/// path runs: sort-based symmetric aggregation keyed by the packed
/// (min, max) cluster pair. Raw pairs accumulate in a bounded buffer; when
/// it fills, the buffer is sorted and run-length-merged into the sorted
/// `(pair, weight)` aggregate. Profiled against the previous
/// `FxHashMap` accumulation (pre-sized from `m`) on the bench
/// generator mix (uk-s web crawl and twitter-s BA analogues, BFS
/// order, k=32): the sorted merge is ~25% faster on the web mix and
/// ~5% faster on the social mix — BFS locality makes fresh pairs
/// arrive nearly sorted, so the sorts are cheap, while the hash path
/// pays a probe per edge. The flush threshold grows with the
/// aggregate (merge only once the buffer is at least as large as the
/// aggregate) so each merge at least doubles the merged volume and
/// total merge cost stays near-linear even when the distinct-pair
/// count dwarfs the base threshold; transient memory is bounded by
/// `max(4m, 64Ki)` keys or the aggregate's own size, whichever is
/// larger — never the raw |E_inter| pair list.
pub(crate) struct PairSink {
    /// The `m × m` directed counts; empty on the sort path.
    dense: Vec<u32>,
    flush_base: usize,
    buf: Vec<u64>,
    intra: Vec<u64>,
    agg: Vec<(u64, u32)>,
}

impl PairSink {
    /// Accumulator for `m` clusters over a stream of `edges` edges (0 when
    /// the length is unknown).
    pub(crate) fn new(m: usize, edges: u64) -> PairSink {
        PairSink::new_with(m, edges, DENSE_MAX_CELLS)
    }

    fn new_with(m: usize, edges: u64, max_cells: usize) -> PairSink {
        let cells = m.saturating_mul(m);
        let fits = cells as u64 <= edges.min(max_cells as u64) && edges <= u64::from(u32::MAX);
        let dense = if fits { vec![0u32; cells] } else { Vec::new() };
        let flush_base = (4 * m).max(1 << 16);
        PairSink {
            flush_base,
            buf: Vec::with_capacity(if dense.is_empty() { flush_base } else { 0 }),
            dense,
            intra: vec![0u64; m],
            agg: Vec::new(),
        }
    }

    /// Records one streamed edge, its endpoints looked up in pass 1's
    /// table ([`VertexState::cluster`]).
    #[inline]
    pub(crate) fn push(&mut self, e: Edge, vertices: &VertexState) -> Result<()> {
        self.count(vertices.cluster(e.src)?, vertices.cluster(e.dst)?);
        Ok(())
    }

    /// Records one edge whose endpoints sit in clusters `cu` and `cv`.
    #[inline]
    fn count(&mut self, cu: u32, cv: u32) {
        if !self.dense.is_empty() {
            let m = self.intra.len();
            self.dense[cu as usize * m..][..m][cv as usize] += 1;
        } else if cu == cv {
            self.intra[cu as usize] += 1;
        } else {
            let (lo, hi) = if cu < cv { (cu, cv) } else { (cv, cu) };
            self.buf.push((u64::from(lo) << 32) | u64::from(hi));
            if self.buf.len() >= self.flush_base.max(self.agg.len()) {
                flush_pairs(&mut self.buf, &mut self.agg);
            }
        }
    }

    /// Final flush; returns `(intra, sorted aggregate)`.
    pub(crate) fn finish(mut self) -> (Vec<u64>, Vec<(u64, u32)>) {
        if !self.dense.is_empty() {
            let m = self.intra.len();
            for i in 0..m {
                self.intra[i] = u64::from(self.dense[i * m + i]);
                for j in i + 1..m {
                    let w = self.dense[i * m + j] + self.dense[j * m + i];
                    if w > 0 {
                        self.agg.push(((i as u64) << 32 | j as u64, w));
                    }
                }
            }
        }
        flush_pairs(&mut self.buf, &mut self.agg);
        (self.intra, self.agg)
    }
}

/// Merges two sorted, deduplicated `(pair, weight)` aggregates, adding
/// weights on key collisions — how the coordinator combines workers'
/// partial cluster graphs. Weight-preserving by the same multiset
/// invariant `flush_boundaries_do_not_change_aggregate` pins for
/// [`flush_pairs`]. `None` if a summed weight does not fit `u32` (the
/// partials come off the wire).
pub(crate) fn merge_weighted(a: &[(u64, u32)], b: &[(u64, u32)]) -> Option<Vec<(u64, u32)>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < a.len() || bi < b.len() {
        if bi >= b.len() || (ai < a.len() && a[ai].0 < b[bi].0) {
            out.push(a[ai]);
            ai += 1;
        } else if ai >= a.len() || b[bi].0 < a[ai].0 {
            out.push(b[bi]);
            bi += 1;
        } else {
            out.push((a[ai].0, a[ai].1.checked_add(b[bi].1)?));
            ai += 1;
            bi += 1;
        }
    }
    Some(out)
}

/// Sorts the raw pair buffer and merges its run-length-encoded runs into the
/// sorted `(pair, weight)` aggregate, clearing the buffer.
fn flush_pairs(buf: &mut Vec<u64>, agg: &mut Vec<(u64, u32)>) {
    if buf.is_empty() {
        return;
    }
    buf.sort_unstable();
    let mut out: Vec<(u64, u32)> = Vec::with_capacity(agg.len() + buf.len() / 4 + 8);
    let mut ai = 0usize;
    let mut bi = 0usize;
    while ai < agg.len() || bi < buf.len() {
        if ai < agg.len() && (bi >= buf.len() || agg[ai].0 <= buf[bi]) {
            match out.last_mut() {
                Some((k, w)) if *k == agg[ai].0 => *w += agg[ai].1,
                _ => out.push(agg[ai]),
            }
            ai += 1;
        } else {
            let key = buf[bi];
            let mut run = 0u32;
            while bi < buf.len() && buf[bi] == key {
                run += 1;
                bi += 1;
            }
            match out.last_mut() {
                Some((k, w)) if *k == key => *w += run,
                _ => out.push((key, run)),
            }
        }
    }
    *agg = out;
    buf.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clugp::clustering::stream_clustering;
    use clugp_graph::stream::{InMemoryStream, RestreamableStream};
    use clugp_graph::types::Edge;

    /// Clusters then builds the cluster graph over the same edges.
    fn build(edges: Vec<Edge>, vmax: u64) -> (ClusteringResult, ClusterGraph) {
        let mut s = InMemoryStream::from_edges(edges);
        let clustering = stream_clustering(&mut s, vmax, true).unwrap();
        s.reset().unwrap();
        let cg = ClusterGraph::build(&mut s, &clustering);
        (clustering, cg)
    }

    #[test]
    fn triangle_is_all_intra() {
        let (_, cg) = build(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)], 100);
        assert_eq!(cg.num_clusters, 1);
        assert_eq!(cg.total_intra(), 3);
        assert_eq!(cg.total_inter_edges(), 0);
        assert!(cg.neighbors(0).is_empty());
    }

    #[test]
    fn two_communities_with_a_bridge() {
        // Two triangles joined by one edge, Vmax small enough to keep the
        // communities in separate clusters.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 4),
            Edge::new(4, 5),
            Edge::new(5, 3),
            Edge::new(2, 3), // bridge
        ];
        let (clustering, cg) = build(edges, 7);
        if cg.num_clusters >= 2 {
            // The bridge shows up as inter-cluster weight if 2 and 3 ended
            // in different clusters.
            let c2 = clustering.cluster_of[2];
            let c3 = clustering.cluster_of[3];
            if c2 != c3 {
                assert!(cg.total_inter_edges() >= 1);
                let w: u32 = cg
                    .neighbors(c2)
                    .iter()
                    .filter(|(n, _)| *n == c3)
                    .map(|(_, w)| *w)
                    .sum();
                assert!(w >= 1);
            }
        }
        // Conservation: every edge is intra or inter exactly once.
        assert_eq!(cg.total_intra() + cg.total_inter_edges(), 7);
    }

    #[test]
    fn edge_conservation_on_random_graph() {
        let edges: Vec<Edge> = (0..300u32)
            .map(|i| Edge::new((i * 13) % 53, (i * 7 + 1) % 53))
            .collect();
        let n = edges.len() as u64;
        let (_, cg) = build(edges, 20);
        assert_eq!(cg.total_intra() + cg.total_inter_edges(), n);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let edges: Vec<Edge> = (0..200u32)
            .map(|i| Edge::new((i * 11) % 41, (i * 3 + 2) % 41))
            .collect();
        let (_, cg) = build(edges, 15);
        for c in 0..cg.num_clusters {
            for &(nb, w) in cg.neighbors(c) {
                let back: u32 = cg
                    .neighbors(nb)
                    .iter()
                    .filter(|(x, _)| *x == c)
                    .map(|(_, w)| *w)
                    .sum();
                assert_eq!(back, w, "asymmetric weight between {c} and {nb}");
            }
        }
    }

    #[test]
    fn total_external_matches_neighbor_sums() {
        let edges: Vec<Edge> = (0..150u32)
            .map(|i| Edge::new((i * 5) % 31, (i * 17 + 3) % 31))
            .collect();
        let (_, cg) = build(edges, 12);
        for c in 0..cg.num_clusters {
            let sum: u64 = cg.neighbors(c).iter().map(|(_, w)| u64::from(*w)).sum();
            assert_eq!(sum, cg.total_external[c as usize]);
        }
    }

    #[test]
    fn lambda_max_formula() {
        let (_, cg) = build(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)], 100);
        // intra=3, inter=0 → λ_max = 0.
        assert_eq!(cg.lambda_max(4), 0.0);
    }

    #[test]
    fn lambda_max_degenerate_on_empty_graph() {
        let (_, cg) = build(vec![], 10);
        assert_eq!(cg.lambda_max(4), 1.0);
    }

    #[test]
    fn size_is_cluster_volume() {
        // size_i = 2·intra_i + external_i = Σ member degrees, and the sizes
        // sum to 2|E|.
        let edges: Vec<Edge> = (0..120u32)
            .map(|i| Edge::new((i * 7) % 29, (i * 11 + 1) % 29))
            .collect();
        let m = edges.len() as u64;
        let (clustering, cg) = build(edges, 9);
        assert_eq!(cg.total_size(), 2 * m);
        let mut vol = vec![0u64; cg.num_clusters as usize];
        for (v, &c) in clustering.cluster_of.as_slice().iter().enumerate() {
            if c != crate::clugp::clustering::NO_CLUSTER {
                vol[c as usize] += u64::from(clustering.degree[v as u32]);
            }
        }
        assert_eq!(vol, cg.size);
    }

    #[test]
    fn empty_graph() {
        let (_, cg) = build(vec![], 10);
        assert_eq!(cg.num_clusters, 0);
        assert_eq!(cg.total_intra(), 0);
        assert_eq!(cg.total_inter_edges(), 0);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        // The sorted-merge aggregation fills each CSR bucket in ascending
        // key order, so neighbor ids come out sorted — a deterministic
        // order independent of stream chunking and flush boundaries.
        let edges: Vec<Edge> = (0..400u32)
            .map(|i| Edge::new((i * 13) % 61, (i * 7 + 1) % 61))
            .collect();
        let (_, cg) = build(edges, 12);
        for c in 0..cg.num_clusters {
            let ids: Vec<u32> = cg.neighbors(c).iter().map(|(n, _)| *n).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "cluster {c} neighbors unsorted");
        }
    }

    #[test]
    fn memory_bytes_counts_all_five_vectors() {
        let edges: Vec<Edge> = (0..400u32)
            .map(|i| Edge::new((i * 13) % 61, (i * 7 + 1) % 61))
            .collect();
        let (_, cg) = build(edges, 12);
        assert!(cg.num_clusters > 1 && !cg.neighbors.is_empty());
        let by_field = cg.intra.capacity() * 8
            + cg.offsets.capacity() * 8
            + cg.neighbors.capacity() * std::mem::size_of::<(u32, u32)>()
            + cg.total_external.capacity() * 8
            + cg.size.capacity() * 8;
        assert_eq!(cg.memory_bytes(), by_field);
    }

    #[test]
    fn dense_and_sort_paths_give_the_same_halves() {
        // The same pair sequence through the matrix (`max_cells` unbounded,
        // `edges` large enough for any m here) and through the sort.
        for m in [1u32, 2, 61, 300] {
            for self_pairs in [false, true] {
                let pairs: Vec<(u32, u32)> = (0..20_000u32)
                    .map(|i| ((i * 7 + i / 13) % m, (i * 31 + i / 5 + 1) % m))
                    .filter(|&(cu, cv)| self_pairs || cu != cv)
                    .collect();
                let run = |max_cells: usize| {
                    let mut sink = PairSink::new_with(m as usize, u64::from(u32::MAX), max_cells);
                    assert_eq!(sink.dense.is_empty(), max_cells == 0);
                    for &(cu, cv) in &pairs {
                        sink.count(cu, cv);
                    }
                    sink.finish()
                };
                let (intra, agg) = run(usize::MAX);
                assert_eq!((intra.clone(), agg.clone()), run(0), "m={m}");
                assert!(agg.windows(2).all(|w| w[0].0 < w[1].0), "m={m}");
                assert!(agg
                    .iter()
                    .all(|&(key, w)| key >> 32 < key & 0xFFFF_FFFF && w > 0));
                let counted =
                    intra.iter().sum::<u64>() + agg.iter().map(|&(_, w)| u64::from(w)).sum::<u64>();
                assert_eq!(counted, pairs.len() as u64, "m={m}");
                assert_eq!(
                    intra.iter().any(|&c| c > 0),
                    self_pairs && !pairs.is_empty()
                );
            }
        }
    }

    #[test]
    fn matrix_runs_only_inside_its_bound() {
        let dense = |m: usize, edges: u64| !PairSink::new(m, edges).dense.is_empty();
        assert!(dense(61, 61 * 61));
        assert!(dense(2_048, 1 << 22));
        // Unknown length, more cells than edges, more cells than the cap, a
        // count a `u32` cell could not hold.
        assert!(!dense(61, 0));
        assert!(!dense(61, 61 * 61 - 1));
        assert!(!dense(2_049, u64::from(u32::MAX)));
        assert!(!dense(61, u64::from(u32::MAX) + 1));
    }

    #[test]
    fn merge_weighted_equals_single_flush() {
        // Splitting a key sequence across two aggregates and merging must
        // equal flushing the whole sequence at once.
        let keys: Vec<u64> = (0..400u64).map(|i| (i * 29) % 31).collect();
        let reference = {
            let mut buf = keys.clone();
            let mut agg = Vec::new();
            super::flush_pairs(&mut buf, &mut agg);
            agg
        };
        for split in [0usize, 1, 57, 399, 400] {
            let (mut left, mut right) = (keys[..split].to_vec(), keys[split..].to_vec());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            super::flush_pairs(&mut left, &mut a);
            super::flush_pairs(&mut right, &mut b);
            assert_eq!(
                super::merge_weighted(&a, &b),
                Some(reference.clone()),
                "split={split}"
            );
        }
        // Partials come off the wire: a weight sum past `u32` is refused.
        assert_eq!(super::merge_weighted(&[(7, u32::MAX)], &[(7, 1)]), None);
    }

    #[test]
    fn flush_boundaries_do_not_change_aggregate() {
        // Merge the same key sequence under different flush splits.
        let keys: Vec<u64> = (0..500u64).map(|i| (i * 37) % 23).collect();
        let reference = {
            let mut buf = keys.clone();
            let mut agg = Vec::new();
            super::flush_pairs(&mut buf, &mut agg);
            agg
        };
        for split in [1usize, 7, 64, 499] {
            let mut agg = Vec::new();
            let mut buf = Vec::new();
            for chunk in keys.chunks(split) {
                buf.extend_from_slice(chunk);
                super::flush_pairs(&mut buf, &mut agg);
            }
            assert_eq!(agg, reference, "split={split}");
            // Aggregate stays sorted and strictly deduplicated.
            assert!(agg.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}
