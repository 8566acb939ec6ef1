//! HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015), the
//! state-of-the-art one-pass baseline in the paper's comparison.
//!
//! For each edge `(u, v)` the partition maximizing
//!
//! ```text
//! C(u,v,p) = C_REP(u,v,p) + λ_bal · (maxload − load(p)) / (ε + maxload − minload)
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
//! 2. **One representative per class.** `EdgeScore::of` is a composition
//!    of correctly rounded `f64` operations that are each monotone
//!    (`u64 → f64`, `maxload − x`, `λ · x` for `λ ≥ 0`, `x / denom` for
//!    `denom > 0`, `g + x`), so the score is *weakly* decreasing in the
//!    load. If, for the class's minimum load `l`, the score at `l + 1` is
//!    *strictly* below the score at `l`, every member above the minimum
//!    scores strictly below it and the scan's pick inside the class is the
//!    lowest-index member holding `l` — found by an integer walk over the
//!    set bits of the two rows. When the strict step fails (`λ = 0`, or a
//!    balance term too small or too large for `f64` to separate adjacent
//!    loads) a higher-load member with a lower index can tie, so that one
//!    edge is decided by the scan itself.
//! 3. **Walk only the classes that can still win.** No partition loads
//!    less than the global minimum `minload`, so by the same monotonicity
//!    no member of a class scores above its bound
//!    `EdgeScore::of(holds_u, holds_v, minload)`. The classes are visited
//!    in descending order of bound — both endpoints, the lower-degree
//!    endpoint alone (the larger `g`), the other alone, neither — and a
//!    class is walked only if its bound is not *strictly* below the best
//!    representative score found so far. That best is the score of a real
//!    partition, so every member of a skipped class scores strictly below
//!    some partition and is not the scan's pick. A skipped class therefore
//!    needs no strict step either: the step only licenses a representative
//!    to speak for its class, and a class none of whose members can win
//!    has nothing to speak for. Each skip is its own strict comparison
//!    against a best that only grows, so the order decides how much is
//!    walked, never the answer; a `NaN` or infinite bound is never
//!    skipped. On a web graph the shared class, which holds the few bits
//!    of the low-degree endpoint, nearly always wins outright and a hub's
//!    row is never walked.
//! 4. **"Neither" needs no walk.** Its minimum-load member would be the
//!    global first minimum-load partition `m` (`PartitionLoads::argmin`).
//!    If `m` holds neither endpoint it *is* the representative. If it holds
//!    an endpoint, `m` leads its own class and "neither" cannot win:
//!    with `g > 0` that class's constant and `bal` the balance term, a
//!    "neither" partition `q` scores at most `bal(minload) ≤ g +
//!    bal(minload)`, the bound of `m`'s class. If that class was skipped,
//!    `q` is below the best. If it was walked, `m`'s strict step from (2)
//!    rules `q` out: `q` at `minload` lies behind `m` and does not score
//!    the strictly greater score a later index needs; `q` above `minload`
//!    scores at most `bal(minload + 1) ≤ g + bal(minload + 1) <
//!    g + bal(minload)`.
//! 5. **Best of the walked classes.** The scan picks the lowest index
//!    among the partitions with the greatest score; that is the
//!    greatest-scoring representative of a walked class, the lower index
//!    on equal scores.
//!
//! Both paths evaluate one expression, `EdgeScore::of`, so they cannot
//! drift apart in operation order, and the strict step is tested per edge
//! on the edge's own numbers rather than assumed: a tie, an infinity or a
//! `NaN` (a positive `ε` below half an ulp of `maxload` still rounds the
//! denominator to zero while all loads are equal) fails it and sends that
//! edge to the scan. `HdrfKernel::new` rejects what makes the rule itself
//! meaningless and the monotonicity false — `λ < 0`, `ε ≤ 0`, non-finite
//! values. At the default `λ = ε = 1` adjacent loads score `1/denom` apart
//! under a score below 8, which `f64` separates for any load spread below
//! 2^48, so the scan is never reached.

use super::kernel::{run_local, EdgeKernel, SharedTable};
use crate::error::{PartitionError, Result};
use crate::partition::PartitionRun;
use crate::partitioner::Partitioner;
use crate::state::{PartitionLoads, ReplicaTable};
use crate::vertex_table::{VertexTable, DEFAULT_MAX_VERTICES};
use clugp_graph::stream::RestreamableStream;
use clugp_graph::types::Edge;

/// The HDRF kernel: two shared tables — replica masks (slot 0) and partial
/// degrees (slot 1) — and the loads for the balance term.
pub(crate) struct HdrfKernel {
    config: HdrfConfig,
    k: u32,
    replicas: ReplicaTable,
    degree: VertexTable<u32>,
}

impl HdrfKernel {
    /// `n` pre-sizes both tables (0 for an AMPC worker's scratch).
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidParam`] for a `lambda` that is negative or
    /// not finite or an `epsilon` that is not a positive finite number (the
    /// configuration may come straight off an AMPC `Configure` frame), and
    /// for table dimensions beyond `max_vertices`.
    pub(crate) fn new(config: &HdrfConfig, k: u32, n: u64) -> Result<Self> {
        if !(config.lambda >= 0.0 && config.lambda.is_finite()) {
            return Err(PartitionError::InvalidParam(format!(
                "HDRF lambda must be finite and non-negative, got {}",
                config.lambda
            )));
        }
        if !(config.epsilon > 0.0 && config.epsilon.is_finite()) {
            return Err(PartitionError::InvalidParam(format!(
                "HDRF epsilon must be finite and positive, got {}",
                config.epsilon
            )));
        }
        Ok(HdrfKernel {
            config: config.clone(),
            k,
            replicas: ReplicaTable::with_limit(n, k, config.max_vertices)?,
            degree: VertexTable::with_limit(n, 0, config.max_vertices)?,
        })
    }
}

/// The per-edge constants of the HDRF score.
struct EdgeScore {
    g_u: f64,
    g_v: f64,
    lambda: f64,
    maxload: f64,
    denom: f64,
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
        score += self.lambda * (self.maxload - load as f64) / self.denom;
        score
    }
}

/// The published rule: every partition scored in ascending order, the first
/// strictly greatest score wins. `step` falls back to it for an edge whose
/// scores `f64` cannot separate, and the tests use it as the oracle.
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

/// Lowest-index minimum-load member of the replica class whose members
/// hold `u` iff `holds_u` and `v` iff `holds_v`, as `(load, partition)`.
/// Not for "neither": a complemented word has bits set at and past `k`.
/// A hand-rolled walk on purpose: through `partitions_of`-style iterator
/// chains and `argmin_among` this loop, the kernel's hottest, ran 1.4–1.6x
/// slower.
#[inline(always)]
fn class_min(
    row_u: &[u64],
    row_v: &[u64],
    (holds_u, holds_v): (bool, bool),
    loads: &[u64],
) -> Option<(u64, u32)> {
    // XOR with `!0` complements an endpoint's row.
    let flip = |holds: bool| if holds { 0 } else { !0 };
    let (flip_u, flip_v) = (flip(holds_u), flip(holds_v));
    let mut least: Option<(u64, u32)> = None;
    for (word, (&a, &b)) in row_u.iter().zip(row_v).enumerate() {
        let mut bits = (a ^ flip_u) & (b ^ flip_v);
        while bits != 0 {
            let p = word as u32 * 64 + bits.trailing_zeros();
            bits &= bits - 1;
            let load = loads[p as usize];
            if least.is_none_or(|(l, _)| load < l) {
                least = Some((load, p));
            }
        }
    }
    least
}

/// The scan's pick from one representative per class that can still win,
/// or `None` when a walked representative's score is not strictly above
/// the score one load higher (module doc, steps 2–5).
#[inline]
fn pick_by_class(
    score: &EdgeScore,
    replicas: &ReplicaTable,
    e: Edge,
    loads: &PartitionLoads,
) -> Option<u32> {
    // `(holds_u, holds_v)` in descending order of bound: both endpoints,
    // the lower-degree one (the larger `g`), the other, neither. Only the
    // speed depends on the order (module doc, step 3).
    let (u_first, v_first) = ((true, false), (false, true));
    let (second, third) = if score.g_u >= score.g_v {
        (u_first, v_first)
    } else {
        (v_first, u_first)
    };
    let minload = loads.min();
    let (row_u, row_v) = (replicas.row(e.src), replicas.row(e.dst));
    let mut best: Option<(f64, u32)> = None;
    for (holds_u, holds_v) in [(true, true), second, third, (false, false)] {
        // No member loads less than `minload`, so none scores above the
        // bound; strict, so a tie, an infinity or NaN is walked.
        let bound = score.of(holds_u, holds_v, minload);
        if best.is_some_and(|(bs, _)| bound < bs) {
            continue;
        }
        let rep = if holds_u || holds_v {
            class_min(row_u, row_v, (holds_u, holds_v), loads.as_slice())
        } else {
            let m = loads.argmin();
            (!replicas.contains(e.src, m) && !replicas.contains(e.dst, m)).then_some((minload, m))
        };
        let Some((load, p)) = rep else { continue };
        let s = score.of(holds_u, holds_v, load);
        // False for a tie, a pair of infinities and anything NaN.
        let strict_step = score.of(holds_u, holds_v, load.saturating_add(1)) < s;
        if !strict_step {
            return None;
        }
        if best.is_none_or(|(bs, bp)| s > bs || (s == bs && p < bp)) {
            best = Some((s, p));
        }
    }
    best.map(|(_, p)| p)
}

impl EdgeKernel for HdrfKernel {
    const TABLES: usize = 2;
    const READS_LOADS: bool = true;

    fn table(&mut self, slot: usize) -> &mut dyn SharedTable {
        match slot {
            0 => &mut self.replicas,
            _ => &mut self.degree,
        }
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
        if loads.k() != self.k {
            return Err(PartitionError::InvalidParam(format!(
                "HDRF over k={} was handed {} partition loads",
                self.k,
                loads.k()
            )));
        }
        let (degree, replicas) = (&mut self.degree, &mut self.replicas);
        degree.ensure(e.src.max(e.dst))?;
        replicas.ensure_vertices(u64::from(e.src.max(e.dst)) + 1)?;
        degree[e.src] += 1;
        degree[e.dst] += 1;
        let du = f64::from(degree[e.src]);
        let dv = f64::from(degree[e.dst]);
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let (maxload, minload) = (loads.max() as f64, loads.min() as f64);
        let score = EdgeScore {
            g_u: 1.0 + (1.0 - theta_u),
            g_v: 1.0 + (1.0 - theta_v),
            lambda: self.config.lambda,
            maxload,
            denom: self.config.epsilon + maxload - minload,
        };
        let best_p = pick(&score, replicas);
        replicas.insert(e.src, best_p);
        replicas.insert(e.dst, best_p);
        Ok(best_p)
    }
}

/// Tunables of HDRF.
#[derive(Debug, Clone, PartialEq)]
pub struct HdrfConfig {
    /// Balance weight `λ_bal`; the original paper's default is 1.0 (quality
    /// close to optimal, balance enforced softly).
    pub lambda: f64,
    /// Balance denominator smoothing term.
    pub epsilon: f64,
    /// Cap on the internal vertex id space (see `crate::vertex_table`).
    pub max_vertices: u64,
}

impl Default for HdrfConfig {
    fn default() -> Self {
        HdrfConfig {
            lambda: 1.0,
            epsilon: 1.0,
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }
}

/// The HDRF partitioner.
#[derive(Debug, Clone, Default)]
pub struct Hdrf {
    config: HdrfConfig,
}

impl Hdrf {
    /// Creates HDRF with the given configuration.
    pub fn new(config: HdrfConfig) -> Self {
        Hdrf { config }
    }
}

impl Partitioner for Hdrf {
    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        run_local(stream, k, |n| HdrfKernel::new(&self.config, k, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::gen::{generate_copying_model, CopyingModelConfig};
    use clugp_graph::order::{ordered_edges, StreamOrder};
    use clugp_graph::stream::InMemoryStream;
    use clugp_graph::types::Edge;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Streams `edges` through a fresh kernel, every edge decided by `pick`.
    fn assignments_by(
        edges: &[Edge],
        k: u32,
        config: &HdrfConfig,
        pick: impl Fn(&EdgeScore, &ReplicaTable, Edge, &PartitionLoads) -> u32,
    ) -> Vec<u32> {
        let mut kernel = HdrfKernel::new(config, k, 0).unwrap();
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
    fn kernel_assignments(edges: &[Edge], k: u32, config: &HdrfConfig) -> Vec<u32> {
        let mut kernel = HdrfKernel::new(config, k, 0).unwrap();
        let mut loads = PartitionLoads::new(k);
        let mut assignments = Vec::new();
        kernel
            .step_chunk(edges, &mut loads, &mut assignments)
            .unwrap();
        assignments
    }

    fn web_edges(order: StreamOrder) -> Vec<Edge> {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 600,
            ..Default::default()
        });
        ordered_edges(&g, order)
    }

    #[test]
    fn step_equals_the_full_scan_over_lambda_k_and_order() {
        // Multi-word rows (k > 64), k not a multiple of 64, the single
        // partition, and lambdas from "every balance term ties" (0, 1e-300)
        // through the default to "the balance term swallows C_REP" (1e18,
        // 1e300): the scan is the reference everywhere.
        for order in [StreamOrder::Random(9), StreamOrder::Bfs] {
            let edges = web_edges(order);
            for lambda in [0.0, 1e-300, 1e-12, 0.1, 1.0, 10.0, 1e6, 1e18, 1e300] {
                let config = HdrfConfig {
                    lambda,
                    ..Default::default()
                };
                for k in [1u32, 2, 3, 31, 32, 33, 64, 65, 130, 257] {
                    let want = assignments_by(&edges, k, &config, scan_all_partitions);
                    assert_eq!(
                        kernel_assignments(&edges, k, &config),
                        want,
                        "lambda={lambda} k={k} {order:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_equals_the_full_scan_when_epsilon_vanishes_next_to_the_loads() {
        // epsilon below half an ulp of maxload: the denominator rounds to
        // zero whenever all loads are equal and the scores are NaN or
        // infinite. No strict comparison holds then, so the scan decides.
        let edges = web_edges(StreamOrder::Random(4));
        let config = HdrfConfig {
            epsilon: 1e-300,
            ..Default::default()
        };
        for k in [2u32, 33] {
            let want = assignments_by(&edges, k, &config, scan_all_partitions);
            assert_eq!(kernel_assignments(&edges, k, &config), want, "k={k}");
        }
    }

    /// `pick_by_class` against the scan for the edge `(0, 1)` on drawn
    /// replica rows, with `(du, dv)` the partial degrees after the step and
    /// the score constants taken from `step_by`. Whether the pick answered.
    fn pick_matches_the_scan(
        config: &HdrfConfig,
        loads: &PartitionLoads,
        (du, dv): (u32, u32),
        rng: &mut SmallRng,
    ) -> bool {
        let e = Edge::new(0, 1);
        let mut kernel = HdrfKernel::new(config, loads.k(), 2).unwrap();
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
                    assert_eq!(
                        p,
                        want,
                        "{config:?} degrees ({du}, {dv}) loads {:?}",
                        loads.as_slice()
                    );
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
        // equal, one outlier. Degrees put θ_u near 0, at ½ and near 1.
        let mut rng = SmallRng::seed_from_u64(31);
        let configs = [0.0, 1e-300, 1e-12, 1.0, 1e6, 1e300]
            .into_iter()
            .flat_map(|lambda| {
                [1.0, 1e-300].map(|epsilon| HdrfConfig {
                    lambda,
                    epsilon,
                    ..Default::default()
                })
            })
            .collect::<Vec<_>>();
        let mut answered = 0;
        for k in [1u32, 2, 31, 64, 65, 130] {
            for _ in 0..8 {
                let base = rng.gen_range(0..1u64 << 40);
                let mut outlier = vec![base; k as usize];
                outlier[rng.gen_range(0..k) as usize] = rng.gen_range(0..1u64 << 41);
                let wide = (0..k).map(|_| rng.gen_range(0..1u64 << 40)).collect();
                for loads in [wide, vec![base; k as usize], outlier].map(PartitionLoads::from_vec) {
                    for degrees in [(1, 1_000_000), (6, 6), (1_000_000, 1)] {
                        for config in &configs {
                            let ok = pick_matches_the_scan(config, &loads, degrees, &mut rng);
                            // The default separates any spread below 2^48.
                            assert!(ok || *config != HdrfConfig::default(), "k={k}");
                            answered += u32::from(ok);
                        }
                    }
                }
            }
        }
        assert!(answered > 0);
    }

    #[test]
    fn the_default_configuration_never_needs_the_scan() {
        for order in [StreamOrder::Random(9), StreamOrder::Bfs, StreamOrder::AsIs] {
            let edges = web_edges(order);
            for k in [1u32, 8, 32, 130] {
                assignments_by(
                    &edges,
                    k,
                    &HdrfConfig::default(),
                    |score, replicas, e, loads| {
                        pick_by_class(score, replicas, e, loads)
                            .expect("lambda = epsilon = 1 separates adjacent loads")
                    },
                );
            }
        }
    }

    #[test]
    fn meaningless_lambda_and_epsilon_are_typed_errors() {
        let bad = [
            (-1.0, 1.0),
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (1.0, 0.0),
            (1.0, -0.5),
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
        ];
        for (lambda, epsilon) in bad {
            let mut s = InMemoryStream::from_edges(vec![Edge::new(0, 1)]);
            let err = Hdrf::new(HdrfConfig {
                lambda,
                epsilon,
                ..Default::default()
            })
            .partition(&mut s, 4)
            .unwrap_err();
            assert!(
                matches!(err, PartitionError::InvalidParam(_)),
                "lambda={lambda} epsilon={epsilon}: {err}"
            );
        }
    }

    #[test]
    fn a_load_vector_of_the_wrong_length_is_a_typed_error() {
        // A worker takes the loads from a token off the wire.
        let mut kernel = HdrfKernel::new(&HdrfConfig::default(), 4, 0).unwrap();
        for wrong in [3, 5] {
            let err = kernel
                .step(Edge::new(0, 1), &PartitionLoads::new(wrong))
                .unwrap_err();
            assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
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
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 3_000,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Random(11));
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let hdrf = Hdrf::default().partition(&mut s, 16).unwrap();
        let hashing = crate::baselines::Hashing::default()
            .partition(&mut s, 16)
            .unwrap();
        let qh = PartitionQuality::compute(&edges, &hdrf.partitioning);
        let qr = PartitionQuality::compute(&edges, &hashing.partitioning);
        assert!(qh.replication_factor < 0.7 * qr.replication_factor);
    }

    #[test]
    fn higher_lambda_tightens_balance() {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: 2_000,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Random(3));
        let mut s = InMemoryStream::new(g.num_vertices(), edges.clone());
        let soft = Hdrf::new(HdrfConfig {
            lambda: 0.1,
            ..Default::default()
        })
        .partition(&mut s, 8)
        .unwrap();
        let hard = Hdrf::new(HdrfConfig {
            lambda: 10.0,
            ..Default::default()
        })
        .partition(&mut s, 8)
        .unwrap();
        assert!(
            hard.partitioning.relative_balance() <= soft.partitioning.relative_balance() + 0.05
        );
    }
}
