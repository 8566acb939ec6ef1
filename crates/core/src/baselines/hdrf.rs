//! HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015), the
//! state-of-the-art one-pass baseline in the paper's comparison, at the
//! published defaults `λ_bal = ε = 1` (the paper runs every competitor at
//! its default settings).
//!
//! For each edge `(u, v)` the partition maximizing
//!
//! ```text
//! C(u,v,p) = C_REP(u,v,p) + (maxload − load(p)) / (1 + maxload − minload)
//! C_REP    = g(u,p) + g(v,p)
//! g(w,p)   = [w ∈ A(p)] · (1 + (1 − θ_w))     θ_w = δ(w) / (δ(u) + δ(v))
//! ```
//!
//! is chosen, where `δ` are partial degrees. The degree-weighted `g` makes
//! the *lower*-degree endpoint's presence more valuable, so high-degree
//! vertices end up replicated — the "replicate high-degree first" rule.
//!
//! # Scoring without visiting every partition
//!
//! The published rule is a scan: score partitions `0..k` in ascending
//! order, keep the first strictly greatest `f64` score
//! (`scan_all_partitions`). `HdrfKernel::step` returns that scan's
//! answer, bit for bit, without running it:
//!
//! 1. **Four classes.** For one edge the partitions split by the replica
//!    rows into `A(u)∩A(v)`, `A(u)∖A(v)`, `A(v)∖A(u)` and "neither". Inside
//!    a class `C_REP` is one constant, so members differ in `load(p)` only.
//! 2. **One representative per class, picked in integers.** Each member
//!    packs into one class key `load << 20 | p` (`p < MAX_PARTITIONS =
//!    2^20`), so the lowest-index member of minimum load is one integer
//!    minimum over the set bits of the two rows
//!    (`PartitionLoads::class_min`). That member is the scan's pick inside
//!    the class because the computed score falls *strictly* with the load
//!    while every load is below the packing limit 2^44 − 1:
//!    - the denominator `1 + maxload − minload` is under 2^44, so adjacent
//!      loads score more than 2^-44 apart;
//!    - every score lies in (−1, 4), where half an ulp is at most 2^-52,
//!      so the two roundings that see the load (the division, the sum
//!      with `C_REP`; `maxload − load` is exact) cannot close that gap;
//!    - so the score is strictly decreasing in the load, and every member
//!      above the minimum scores strictly below the key's member.
//! 3. **Walk only the classes that can still win; the first skip ends
//!    the walk.** No partition loads less than the global minimum
//!    `minload`, so no member of a class scores above its bound
//!    `EdgeScore::of(holds_u, holds_v, minload)`. The classes are visited
//!    in descending order of bound — both endpoints, the lower-degree
//!    endpoint alone (the larger `g`: `θ` and `g` are monotone in the
//!    degrees, so `δ(u) ≤ δ(v)` gives `g_u ≥ g_v`), the other alone,
//!    neither. Bounds never rise along that order, so once the best
//!    representative score found so far is *strictly* above a class's
//!    bound it is above every later bound too, and the walk ends there.
//!    That best is the score of a real partition, so every member of a
//!    skipped class scores strictly below some partition and is not the
//!    scan's pick. On a web graph the shared class, which holds the few
//!    bits of the low-degree endpoint, nearly always wins outright and a
//!    hub's row is never walked. The partition returned is the integer
//!    key's; the `f64` comparisons only decide branches, and the one that
//!    ends the walk after the shared class is nearly always taken, so the
//!    next edge need not wait for the divisions.
//! 4. **"Neither" needs no walk.** Its minimum-load member would be the
//!    global first minimum-load partition `m` (`PartitionLoads::argmin`).
//!    If `m` holds neither endpoint it *is* the representative. If it holds
//!    an endpoint, `m` leads its own class and "neither" cannot win:
//!    with `g > 0` that class's constant and `bal` the balance term, a
//!    "neither" partition `q` scores at most `bal(minload) ≤ g +
//!    bal(minload)`, the bound of `m`'s class. If that class was skipped,
//!    `q` is below the best. If it was walked, `q` at `minload` lies behind
//!    `m` and does not score the strictly greater score a later index
//!    needs; `q` above `minload` scores at most `bal(minload + 1) ≤ g +
//!    bal(minload + 1) < g + bal(minload)` by (2).
//! 5. **Best of the walked classes.** The scan picks the lowest index
//!    among the partitions with the greatest score; that is the
//!    greatest-scoring representative of a walked class, the lower index
//!    on equal scores.
//!
//! Both paths evaluate one expression, `EdgeScore::of`, so they cannot
//! drift apart in operation order. An edge met while a load is at or above
//! 2^44 − 1, where the key no longer packs, is decided by the scan itself.

use super::kernel::{run_local, EdgeKernel};
use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::PartitionRun;
use crate::partitioner::Partitioner;
use crate::state::{class_key, key_load, key_partition, PartitionLoads, ReplicaTable, NO_MEMBER};
use crate::vertex_table::{VertexTable, DEFAULT_MAX_VERTICES};
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;
use std::hint::select_unpredictable;

/// The HDRF kernel: two shared tables — replica masks (slot 0) and partial
/// degrees (slot 1) — and the loads for the balance term.
pub(crate) struct HdrfKernel {
    replicas: ReplicaTable,
    degree: VertexTable<u32>,
}

impl HdrfKernel {
    /// `n`, the stream's vertex hint, pre-sizes both tables; they grow
    /// past it as edges name higher ids, up to `max_vertices`.
    pub(crate) fn new(k: u32, n: u64, max_vertices: u64) -> Result<Self> {
        Ok(HdrfKernel {
            replicas: ReplicaTable::with_limit(n, k, max_vertices)?,
            degree: VertexTable::with_limit(n, 0, max_vertices)?,
        })
    }
}

/// The per-edge constants of the HDRF score.
#[derive(Clone, Copy)]
struct EdgeScore {
    g_u: f64,
    g_v: f64,
    maxload: f64,
    denom: f64,
    /// `δ(u) ≤ δ(v)`, and so `g_u ≥ g_v` (`θ` and `g` are correctly
    /// rounded, monotone functions of the degrees; equal degrees give
    /// equal `g`), known without waiting for the division.
    u_lower_degree: bool,
}

impl EdgeScore {
    /// `C(u,v,p)` of a partition with edge count `load` that holds a
    /// replica of `u` / of `v`. The only place the score is spelled out:
    /// the scan and the class representatives both call it.
    #[inline(always)]
    fn of(&self, holds_u: bool, holds_v: bool, load: u64) -> f64 {
        let mut score = 0.0;
        if holds_u {
            score += self.g_u;
        }
        if holds_v {
            score += self.g_v;
        }
        score += (self.maxload - load as f64) / self.denom;
        score
    }
}

/// The published rule: every partition scored in ascending order, the first
/// strictly greatest score wins. `step` falls back to it for loads too
/// large for a class key, and the tests use it as the oracle.
#[cold]
#[inline(never)]
fn scan_all_partitions(
    score: &EdgeScore,
    replicas: &ReplicaTable,
    e: Edge,
    loads: &PartitionLoads,
) -> u32 {
    let mut best_p = 0u32;
    let mut best_score = f64::NEG_INFINITY;
    for p in 0..loads.k() {
        let s = score.of(
            replicas.contains(e.src, p),
            replicas.contains(e.dst, p),
            loads.get(p),
        );
        if s > best_score {
            best_score = s;
            best_p = p;
        }
    }
    best_p
}

/// The walk of `pick_by_class`: the best `(score, partition)` among the
/// representatives of the classes walked so far.
struct ClassWalk<'a> {
    score: EdgeScore,
    loads: &'a PartitionLoads,
    minload: u64,
    row_u: &'a [u64],
    row_v: &'a [u64],
    best: Option<(f64, u32)>,
}

impl ClassWalk<'_> {
    /// The pick, once the best so far scores strictly above the bound of
    /// class `(holds_u, holds_v)`: no member of it, or of a later class,
    /// can win (module doc, step 3). Strict, so a tie is walked.
    #[inline(always)]
    fn decided_before(&self, (holds_u, holds_v): (bool, bool)) -> Option<u32> {
        let (bs, bp) = self.best?;
        (bs > self.score.of(holds_u, holds_v, self.minload)).then_some(bp)
    }

    /// From here on walks the lower-degree endpoint (the larger `g`) as
    /// `u`. `of` adds the two `g` in either order to the same sum, so the
    /// swap moves no score. Selects on the integer degrees, not a branch on
    /// `g`: no predictor knows which endpoint that is, and the partition
    /// picked should not wait for a division.
    #[inline(always)]
    fn lower_degree_first(&mut self) {
        let swap = !self.score.u_lower_degree;
        let (row_u, row_v) = (self.row_u, self.row_v);
        self.row_u = select_unpredictable(swap, row_v, row_u);
        self.row_v = select_unpredictable(swap, row_u, row_v);
        let EdgeScore { g_u, g_v, .. } = self.score;
        self.score.g_u = select_unpredictable(swap, g_v, g_u);
        self.score.g_v = select_unpredictable(swap, g_u, g_v);
    }

    /// Walks class `(holds_u, holds_v)`: its representative (module doc,
    /// step 2) joins the best if it beats it.
    #[inline(always)]
    fn walk(&mut self, (holds_u, holds_v): (bool, bool)) {
        let key = if holds_u || holds_v {
            self.loads
                .class_min(self.row_u, self.row_v, (holds_u, holds_v))
        } else {
            // Module doc, step 4.
            let m = self.loads.argmin();
            let holds = |row: &[u64]| row[m as usize / 64] >> (m % 64) & 1 != 0;
            if holds(self.row_u) || holds(self.row_v) {
                NO_MEMBER
            } else {
                class_key(self.minload, m)
            }
        };
        if key == NO_MEMBER {
            return;
        }
        let (load, p) = (key_load(key), key_partition(key));
        let s = self.score.of(holds_u, holds_v, load);
        if self
            .best
            .is_none_or(|(bs, bp)| s > bs || (s == bs && p < bp))
        {
            self.best = Some((s, p));
        }
    }
}

/// The scan's pick from one representative per class that can still win,
/// or `None` when a load does not pack into a class key (module doc,
/// steps 2–5).
#[inline]
fn pick_by_class(
    score: &EdgeScore,
    replicas: &ReplicaTable,
    e: Edge,
    loads: &PartitionLoads,
) -> Option<u32> {
    if !loads.packs_class_keys() {
        return None;
    }
    let mut walk = ClassWalk {
        score: *score,
        loads,
        minload: loads.min(),
        row_u: replicas.row(e.src),
        row_v: replicas.row(e.dst),
        best: None,
    };
    // The classes in descending order of bound: both endpoints, the
    // lower-degree one (the larger `g`), the other, neither. Bounds never
    // rise along it, so the first class whose bound is below the best ends
    // the walk. Both endpoints come first, on the rows in edge order: that
    // class is the same whichever endpoint is `u`.
    walk.walk((true, true));
    walk.lower_degree_first();
    if let Some(p) = walk.decided_before((true, false)) {
        return Some(p);
    }
    walk.walk((true, false));
    if let Some(p) = walk.decided_before((false, true)) {
        return Some(p);
    }
    walk.walk((false, true));
    if let Some(p) = walk.decided_before((false, false)) {
        return Some(p);
    }
    walk.walk((false, false));
    walk.best.map(|(_, p)| p)
}

impl EdgeKernel for HdrfKernel {
    const READS_LOADS: bool = true;

    fn report_tables(&self, memory: &mut MemoryReport) -> u64 {
        memory.add("replica-table", self.replicas.memory_bytes());
        memory.add("degrees", self.degree.memory_bytes());
        self.replicas.num_vertices().max(self.degree.len())
    }

    /// Picks the partition the full scan would pick and inserts both
    /// endpoints.
    #[inline]
    fn step(&mut self, e: Edge, loads: &PartitionLoads) -> Result<u32> {
        self.step_by(e, loads, |score, replicas| {
            pick_by_class(score, replicas, e, loads)
                .unwrap_or_else(|| scan_all_partitions(score, replicas, e, loads))
        })
    }
}

impl HdrfKernel {
    /// One HDRF step with the arg-max left to `pick` (the edge's score
    /// constants and the replica table): degree update before, replica
    /// insertion after.
    #[inline(always)]
    fn step_by(
        &mut self,
        e: Edge,
        loads: &PartitionLoads,
        pick: impl FnOnce(&EdgeScore, &ReplicaTable) -> u32,
    ) -> Result<u32> {
        let (degree, replicas) = (&mut self.degree, &mut self.replicas);
        degree.ensure(e.src.max(e.dst))?;
        replicas.ensure_vertices(u64::from(e.src.max(e.dst)) + 1)?;
        degree[e.src] += 1;
        degree[e.dst] += 1;
        let u_lower_degree = degree[e.src] <= degree[e.dst];
        let du = f64::from(degree[e.src]);
        let dv = f64::from(degree[e.dst]);
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let (maxload, minload) = (loads.max() as f64, loads.min() as f64);
        let score = EdgeScore {
            g_u: 1.0 + (1.0 - theta_u),
            g_v: 1.0 + (1.0 - theta_v),
            maxload,
            denom: 1.0 + maxload - minload,
            u_lower_degree,
        };
        let best_p = pick(&score, replicas);
        replicas.insert(e.src, best_p);
        replicas.insert(e.dst, best_p);
        Ok(best_p)
    }
}

/// The HDRF partitioner.
#[derive(Debug, Clone)]
pub struct Hdrf {
    max_vertices: u64,
}

impl Default for Hdrf {
    fn default() -> Self {
        Hdrf::with_max_vertices(DEFAULT_MAX_VERTICES)
    }
}

impl Hdrf {
    /// Caps the internal vertex id space: a stream whose ids reach the cap
    /// fails with `InvalidParam` instead of growing the tables without
    /// bound (see `crate::vertex_table`).
    pub fn with_max_vertices(max_vertices: u64) -> Self {
        Hdrf { max_vertices }
    }
}

impl Partitioner for Hdrf {
    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        run_local(stream, k, |n| HdrfKernel::new(k, n, self.max_vertices))
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

    fn kernel(k: u32, n: u64) -> HdrfKernel {
        HdrfKernel::new(k, n, DEFAULT_MAX_VERTICES).unwrap()
    }

    /// Streams `edges` through a fresh kernel, every edge decided by `pick`.
    fn assignments_by(
        edges: &[Edge],
        k: u32,
        pick: impl Fn(&EdgeScore, &ReplicaTable, Edge, &PartitionLoads) -> u32,
    ) -> Vec<u32> {
        let mut kernel = kernel(k, 0);
        let mut loads = PartitionLoads::new(k);
        edges
            .iter()
            .map(|&e| {
                let p = kernel
                    .step_by(e, &loads, |score, replicas| {
                        pick(score, replicas, e, &loads)
                    })
                    .unwrap();
                loads.add(p);
                p
            })
            .collect()
    }

    /// What the kernel's own `step` assigns.
    fn kernel_assignments(edges: &[Edge], k: u32) -> Vec<u32> {
        let mut loads = PartitionLoads::new(k);
        let mut assignments = Vec::new();
        kernel(k, 0)
            .step_chunk(edges, &mut loads, &mut assignments)
            .unwrap();
        assignments
    }

    fn web_edges(order: StreamOrder) -> Vec<Edge> {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: 600,
            ..Default::default()
        });
        ordered_edges(&g, order)
    }

    /// The web edges in canonical `(src, dst)` order, the order a pack
    /// replays.
    fn canonical_web_edges() -> Vec<Edge> {
        let mut edges = web_edges(StreamOrder::AsIs);
        edges.sort_unstable_by_key(|e| (e.src, e.dst));
        edges
    }

    #[test]
    fn step_equals_the_full_scan_over_k_and_order() {
        // Multi-word rows (k > 64), k not a multiple of 64 and the single
        // partition: the scan is the reference everywhere.
        let orders = [
            ("random", web_edges(StreamOrder::Random(9))),
            ("bfs", web_edges(StreamOrder::Bfs)),
            ("canonical", canonical_web_edges()),
        ];
        for (order, edges) in orders {
            for k in [1u32, 2, 3, 31, 32, 33, 64, 65, 130, 257] {
                let want = assignments_by(&edges, k, scan_all_partitions);
                assert_eq!(kernel_assignments(&edges, k), want, "k={k} {order}");
            }
        }
    }

    /// `pick_by_class` against the scan for the edge `(0, 1)` on drawn
    /// replica rows, with `(du, dv)` the partial degrees after the step and
    /// the score constants taken from `step_by`. Whether the pick answered.
    fn pick_matches_the_scan(
        loads: &PartitionLoads,
        (du, dv): (u32, u32),
        rng: &mut SmallRng,
    ) -> bool {
        let e = Edge::new(0, 1);
        let mut kernel = kernel(loads.k(), 2);
        // Per endpoint: no replica, a few, about half, all.
        for v in [e.src, e.dst] {
            let density = [0u32, 1, 4, 8][rng.gen_range(0..4usize)];
            for p in (0..loads.k()).filter(|_| rng.gen_range(0..8u32) < density) {
                kernel.replicas.insert(v, p);
            }
        }
        kernel.degree[e.src] = du - 1;
        kernel.degree[e.dst] = dv - 1;
        let mut answered = false;
        kernel
            .step_by(e, loads, |score, replicas| {
                let want = scan_all_partitions(score, replicas, e, loads);
                if let Some(p) = pick_by_class(score, replicas, e, loads) {
                    assert_eq!(p, want, "degrees ({du}, {dv}) loads {:?}", loads.as_slice());
                    answered = true;
                }
                want
            })
            .unwrap();
        answered
    }

    #[test]
    fn pick_by_class_equals_the_scan_on_states_a_stream_never_reaches() {
        // HDRF keeps its own loads nearly balanced, so the streamed tests
        // never see the spreads the class bounds depend on: wide, all
        // equal, one outlier, and loads at the largest a class key packs.
        // Degrees put θ_u near 0, at ½ and near 1.
        let mut rng = SmallRng::seed_from_u64(31);
        for k in [1u32, 2, 31, 64, 65, 130] {
            for _ in 0..8 {
                let base = rng.gen_range(0..1u64 << 40);
                let mut outlier = vec![base; k as usize];
                outlier[rng.gen_range(0..k) as usize] = rng.gen_range(0..1u64 << 41);
                let wide = (0..k).map(|_| rng.gen_range(0..1u64 << 40)).collect();
                // The highest load just below, at and just above the limit:
                // below it the walk answers, from it on the scan decides.
                let near_limit =
                    [KEY_LOAD_LIMIT - 1, KEY_LOAD_LIMIT, KEY_LOAD_LIMIT + 1].map(|top| {
                        let mut loads: Vec<u64> =
                            (0..k).map(|_| top - rng.gen_range(0..3u64)).collect();
                        loads[rng.gen_range(0..k) as usize] = top;
                        loads
                    });
                let drawn = [wide, vec![base; k as usize], outlier]
                    .into_iter()
                    .chain(near_limit);
                for loads in drawn.map(PartitionLoads::from_vec) {
                    let packs = loads.max() < KEY_LOAD_LIMIT;
                    for degrees in [(1, 1_000_000), (6, 6), (1_000_000, 1)] {
                        let answered = pick_matches_the_scan(&loads, degrees, &mut rng);
                        assert_eq!(answered, packs, "k={k}: max load {}", loads.max());
                    }
                }
            }
        }
    }

    #[test]
    fn the_default_configuration_never_needs_the_scan() {
        for order in [StreamOrder::Random(9), StreamOrder::Bfs, StreamOrder::AsIs] {
            let edges = web_edges(order);
            for k in [1u32, 8, 32, 130] {
                assignments_by(&edges, k, |score, replicas, e, loads| {
                    pick_by_class(score, replicas, e, loads).expect("every load packs")
                });
            }
        }
    }

    #[test]
    fn assigns_all_and_validates() {
        let edges: Vec<Edge> = (0..30).map(|i| Edge::new(i % 7, (i * 3) % 7)).collect();
        let mut s = InMemoryStream::from_edges(edges);
        let run = Hdrf::default().partition(&mut s, 4).unwrap();
        run.partitioning.validate().unwrap();
    }

    #[test]
    fn triangle_stays_together() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hdrf::default().partition(&mut s, 8).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!((q.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hub_is_the_replicated_vertex() {
        // Star with closing spokes: hub 0 plus edges among spokes. HDRF
        // should replicate the hub rather than spokes.
        let mut edges: Vec<Edge> = (1..=60).map(|i| Edge::new(0, i)).collect();
        edges.extend((1..60).map(|i| Edge::new(i, i + 1)));
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hdrf::default().partition(&mut s, 4).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        // Hub replication dominates: replicas ≈ touched + (k−1)-ish.
        assert!(
            q.mirrors <= 30,
            "too many mirrors ({}): spokes were cut instead of the hub",
            q.mirrors
        );
    }

    #[test]
    fn balance_is_tight_on_uniform_input() {
        let edges: Vec<Edge> = (0..400u32)
            .map(|i| Edge::new(i % 97, (i * 31) % 97))
            .collect();
        let mut s = InMemoryStream::from_edges(edges.clone());
        let run = Hdrf::default().partition(&mut s, 8).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!(q.relative_balance < 1.5, "balance {}", q.relative_balance);
    }

    #[test]
    fn beats_hashing_on_web_graph() {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: 3_000,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Random(11));
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let hdrf = Hdrf::default().partition(&mut s, 16).unwrap();
        let hashing = crate::baselines::Hashing.partition(&mut s, 16).unwrap();
        let qh = PartitionQuality::compute(&edges, &hdrf.partitioning);
        let qr = PartitionQuality::compute(&edges, &hashing.partitioning);
        assert!(qh.replication_factor < 0.7 * qr.replication_factor);
    }
}
