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
//!
//! Each case's least-loaded member is one integer minimum over the set bits
//! of the two replica rows (`PartitionLoads::class_min`, the walk HDRF
//! uses), bit-identical to the published scan of `0..k`, which `step` keeps
//! for loads too large to pack into a class key.

use super::kernel::{run_local, EdgeKernel};
use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::PartitionRun;
use crate::partitioner::Partitioner;
use crate::state::{key_load, key_partition, PartitionLoads, ReplicaTable, NO_MEMBER};
use crate::vertex_table::DEFAULT_MAX_VERTICES;
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;

/// The greedy kernel: one shared table (replica masks), reads the loads.
pub(crate) struct GreedyKernel {
    replicas: ReplicaTable,
}

impl GreedyKernel {
    /// `n`, the stream's vertex hint, pre-sizes the replica table; it grows
    /// past it as edges name higher ids.
    pub(crate) fn new(k: u32, n: u64, max_vertices: u64) -> Result<Self> {
        Ok(GreedyKernel {
            replicas: ReplicaTable::with_limit(n, k, max_vertices)?,
        })
    }
}

impl EdgeKernel for GreedyKernel {
    const READS_LOADS: bool = true;

    fn report_tables(&self, memory: &mut MemoryReport) -> u64 {
        memory.add("replica-table", self.replicas.memory_bytes());
        self.replicas.num_vertices()
    }

    /// The four-case PowerGraph rule over the replica table and loads,
    /// inserting both endpoints.
    #[inline]
    fn step(&mut self, e: Edge, loads: &PartitionLoads) -> Result<u32> {
        let replicas = &mut self.replicas;
        replicas.ensure_vertices(u64::from(e.src.max(e.dst)) + 1)?;
        let p = if loads.packs_class_keys() {
            pick_by_class(replicas, e, loads)
        } else {
            scan_all_partitions(replicas, e, loads)
        };
        replicas.insert(e.src, p);
        replicas.insert(e.dst, p);
        Ok(p)
    }
}

/// The four cases as published: each a scan of `0..k` that keeps the
/// first least-loaded member, cases 2–3 over `A(u)` then `A(v)`. `step`
/// falls back to it for loads too large for a class key, and the tests use
/// it as the oracle.
#[cold]
#[inline(never)]
fn scan_all_partitions(replicas: &ReplicaTable, e: Edge, loads: &PartitionLoads) -> u32 {
    // `min_by_key` keeps the first of equal minima.
    let least = |members: &mut dyn Iterator<Item = u32>| members.min_by_key(|&p| loads.get(p));
    let of = |v| (0..loads.k()).filter(move |&p| replicas.contains(v, p));
    least(&mut of(e.src).filter(|&p| replicas.contains(e.dst, p))) // case 1
        .or_else(|| least(&mut of(e.src).chain(of(e.dst)))) // cases 2, 3
        .unwrap_or_else(|| loads.argmin()) // case 4: fresh edge
}

/// The scan's pick from the class minima of `A(u)∩A(v)`, `A(u)∖A(v)` and
/// `A(v)∖A(u)`; every load must pack into a class key.
#[inline]
fn pick_by_class(replicas: &ReplicaTable, e: Edge, loads: &PartitionLoads) -> u32 {
    let (row_u, row_v) = (replicas.row(e.src), replicas.row(e.dst));
    let both = loads.class_min(row_u, row_v, (true, true));
    if both != NO_MEMBER {
        return key_partition(both); // case 1
    }
    // Cases 2–3. The scan meets all of A(u) before A(v), so an A(v) member
    // wins only on a strictly lower load. An empty set's key loads above
    // every member's.
    let of_u = loads.class_min(row_u, row_v, (true, false));
    let of_v = loads.class_min(row_u, row_v, (false, true));
    let least = if key_load(of_v) < key_load(of_u) {
        of_v
    } else {
        of_u
    };
    if least == NO_MEMBER {
        return loads.argmin(); // case 4: fresh edge
    }
    key_partition(least)
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
    use crate::state::KEY_LOAD_LIMIT;
    use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
    use clugp_graph::order::{ordered_edges, StreamOrder};
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Streams `edges` through a fresh kernel, every edge decided by `pick`.
    fn assignments_by(
        edges: &[Edge],
        k: u32,
        pick: impl Fn(&ReplicaTable, Edge, &PartitionLoads) -> u32,
    ) -> Vec<u32> {
        let mut replicas = ReplicaTable::new(0, k).unwrap();
        let mut loads = PartitionLoads::new(k);
        edges
            .iter()
            .map(|&e| {
                replicas
                    .ensure_vertices(u64::from(e.src.max(e.dst)) + 1)
                    .unwrap();
                let p = pick(&replicas, e, &loads);
                replicas.insert(e.src, p);
                replicas.insert(e.dst, p);
                loads.add(p);
                p
            })
            .collect()
    }

    #[test]
    fn step_equals_the_full_scan_over_k_and_order() {
        // Random order reaches all four cases; BFS and canonical (src, dst)
        // order, the one a pack replays, mostly meet a placed endpoint.
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: 600,
            ..Default::default()
        });
        let mut canonical = ordered_edges(&g, StreamOrder::AsIs);
        canonical.sort_unstable_by_key(|e| (e.src, e.dst));
        let orders = [
            ("random", ordered_edges(&g, StreamOrder::Random(9))),
            ("bfs", ordered_edges(&g, StreamOrder::Bfs)),
            ("canonical", canonical),
        ];
        for (order, edges) in orders {
            for k in [1u32, 2, 3, 31, 32, 33, 64, 65, 130, 257] {
                let mut kernel = GreedyKernel::new(k, 0, DEFAULT_MAX_VERTICES).unwrap();
                let mut loads = PartitionLoads::new(k);
                let mut got = Vec::new();
                kernel.step_chunk(&edges, &mut loads, &mut got).unwrap();
                let want = assignments_by(&edges, k, scan_all_partitions);
                assert_eq!(got, want, "k={k} {order}");
            }
        }
    }

    #[test]
    fn step_equals_the_full_scan_at_the_key_packing_limit() {
        // Drawn rows under loads whose highest is just below, at and just
        // above the largest a class key packs: below it the class minima
        // decide, from it on the scan, and both must give the scan's answer.
        let mut rng = SmallRng::seed_from_u64(37);
        for k in [1u32, 2, 31, 64, 65, 130] {
            for top in [KEY_LOAD_LIMIT - 1, KEY_LOAD_LIMIT, KEY_LOAD_LIMIT + 1] {
                for _ in 0..16 {
                    let mut near: Vec<u64> = (0..k).map(|_| top - rng.gen_range(0..3u64)).collect();
                    near[rng.gen_range(0..k) as usize] = top;
                    let loads = PartitionLoads::from_vec(near);
                    assert_eq!(loads.packs_class_keys(), top < KEY_LOAD_LIMIT);
                    let e = Edge::new(0, 1);
                    let mut kernel = GreedyKernel::new(k, 2, DEFAULT_MAX_VERTICES).unwrap();
                    // Per endpoint: no replica, a few, about half, all.
                    for v in [e.src, e.dst] {
                        let density = [0u32, 1, 4, 8][rng.gen_range(0..4usize)];
                        for p in (0..k).filter(|_| rng.gen_range(0..8u32) < density) {
                            kernel.replicas.insert(v, p);
                        }
                    }
                    let want = scan_all_partitions(&kernel.replicas, e, &loads);
                    let got = kernel.step(e, &loads).unwrap();
                    assert_eq!(got, want, "k={k} loads {:?}", loads.as_slice());
                }
            }
        }
    }

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
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: 2_000,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Random(5));
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let greedy = Greedy::new().partition(&mut s, 16).unwrap();
        let hashing = crate::baselines::Hashing.partition(&mut s, 16).unwrap();
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
