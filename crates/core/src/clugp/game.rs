//! Pass 2 — the cluster-partitioning potential game (paper Algorithm 3, §V).
//!
//! Each cluster is a player choosing one of `k` partitions; cluster `c_i`'s
//! individual cost under strategy `a_i` is
//!
//! ```text
//! ϕ(a_i) = (λ/k)·|c_i|·|a_i|  +  ½(|e(c_i,V\a_i)| + |e(V\a_i,c_i)|)
//! ```
//!
//! (Eq. 11). The game is an exact potential game (Theorem 4) with potential
//! `Φ = λ/(2k)·Σ|p|² + ½·Σ|e(p,V\p)|`, so round-robin best response
//! converges to a pure Nash equilibrium.
//!
//! **Parallelization** (§V-D): clusters are grouped into batches by cluster
//! id (ids preserve crawl locality), and every batch plays an *independent*
//! game over its own load vector and intra-batch adjacency — cross-batch
//! edges are treated as unconditionally cut, which is the price of the
//! "Independent Processing" design in Fig. 1(d). Batch seeds derive from
//! `(SEED, batch_index)`, so results do not depend on thread scheduling.
//!
//! The seed and the round cap are constants: no experiment of the paper
//! varies them.

use super::cluster_graph::ClusterGraph;
use super::config::{ClugpConfig, LambdaMode};
use crate::error::Result;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Seed of the game's random initial profile.
const SEED: u64 = 0xC1_09_0F;
/// Best-response round cap per batch (the bound of Theorem 6 is loose;
/// convergence is typically < 10 rounds).
const MAX_ROUNDS: usize = 64;

/// Result of the cluster-partitioning game.
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// Cluster → partition (the cluster-partition mapping table).
    pub partition_of: Vec<u32>,
    /// The λ actually used.
    pub lambda: f64,
    /// Number of batches played.
    pub batches: usize,
    /// Maximum best-response rounds any batch needed.
    pub max_rounds_used: usize,
    /// Total strategy changes across all batches.
    pub total_moves: u64,
    /// Global potential Φ of the random initial profile.
    pub initial_potential: f64,
    /// Global potential Φ at equilibrium.
    pub final_potential: f64,
}

/// Resolves the λ of the game from the configured [`LambdaMode`].
pub fn resolve_lambda(cg: &ClusterGraph, k: u32, mode: LambdaMode) -> f64 {
    match mode {
        LambdaMode::Max => cg.lambda_max(k),
        LambdaMode::Weight(w) => cg.lambda_max(k) * w / (1.0 - w),
    }
}

/// Plays the batched potential game and returns the equilibrium assignment.
pub fn solve_game(cg: &ClusterGraph, k: u32, cfg: &ClugpConfig) -> Result<GameOutcome> {
    let m = cg.num_clusters as usize;
    let lambda = resolve_lambda(cg, k, cfg.lambda);
    if m == 0 {
        return Ok(GameOutcome {
            partition_of: Vec::new(),
            lambda,
            batches: 0,
            max_rounds_used: 0,
            total_moves: 0,
            initial_potential: 0.0,
            final_potential: 0.0,
        });
    }
    if k == 1 {
        let partition_of = vec![0u32; m];
        let phi = potential(cg, &partition_of, k, lambda);
        return Ok(GameOutcome {
            partition_of,
            lambda,
            batches: 1,
            max_rounds_used: 0,
            total_moves: 0,
            initial_potential: phi,
            final_potential: phi,
        });
    }

    let batch_size = if cfg.batch_size == 0 {
        m
    } else {
        cfg.batch_size
    };
    let ranges: Vec<(usize, usize)> = (0..m)
        .step_by(batch_size)
        .map(|s| (s, (s + batch_size).min(m)))
        .collect();

    // Record the initial profile for the potential diagnostic: the same
    // seeded RNG each batch will start from.
    let initial: Vec<u32> = ranges
        .iter()
        .enumerate()
        .flat_map(|(bi, &(s, e))| random_profile(bi as u64, k, e - s))
        .collect();
    let initial_potential = potential(cg, &initial, k, lambda);

    let results = crate::parallel::map(cfg.threads, &ranges, |bi, &(s, e)| {
        solve_batch(cg, k, lambda, s, e, bi as u64, MAX_ROUNDS)
    });

    let mut partition_of = Vec::with_capacity(m);
    let mut max_rounds_used = 0usize;
    let mut total_moves = 0u64;
    for r in results {
        partition_of.extend(r.assign);
        max_rounds_used = max_rounds_used.max(r.rounds);
        total_moves += r.moves;
    }
    let final_potential = potential(cg, &partition_of, k, lambda);
    Ok(GameOutcome {
        partition_of,
        lambda,
        batches: ranges.len(),
        max_rounds_used,
        total_moves,
        initial_potential,
        final_potential,
    })
}

struct BatchResult {
    assign: Vec<u32>,
    rounds: usize,
    moves: u64,
}

fn random_profile(batch_index: u64, k: u32, len: usize) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(SEED ^ batch_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..len).map(|_| rng.gen_range(0..k)).collect()
}

/// Round-robin best response over the clusters of `[start, end)`, for at
/// most `max_rounds` rounds.
fn solve_batch(
    cg: &ClusterGraph,
    k: u32,
    lambda: f64,
    start: usize,
    end: usize,
    batch_index: u64,
    max_rounds: usize,
) -> BatchResult {
    let len = end - start;
    let ku = k as usize;
    let mut assign = random_profile(batch_index, k, len);
    // Batch-local partition loads (sum of member |c_i|).
    let mut load = vec![0u64; ku];
    for (i, &p) in assign.iter().enumerate() {
        load[p as usize] += cg.size[start + i];
    }
    // Scratch: intra-batch adjacency weight to each partition, plus the
    // touched list to clear it in O(touched).
    let mut adj = vec![0u64; ku];
    let mut touched: Vec<u32> = Vec::with_capacity(ku);

    let balance_coeff = lambda / f64::from(k);
    let mut rounds = 0usize;
    let mut moves = 0u64;
    for _ in 0..max_rounds {
        rounds += 1;
        let mut moved_this_round = 0u64;
        for i in 0..len {
            let c = (start + i) as u32;
            let size = cg.size[start + i];
            let cur = assign[i];
            load[cur as usize] -= size;

            for &(nb, w) in cg.neighbors(c) {
                let nbu = nb as usize;
                if nbu >= start && nbu < end {
                    let p = assign[nbu - start] as usize;
                    if adj[p] == 0 {
                        touched.push(p as u32);
                    }
                    adj[p] += u64::from(w);
                }
            }

            // ϕ(a_i) up to a constant: (λ/k)·|c_i|·(load(p)+|c_i|) − ½·adj(p).
            let mut best_p = cur;
            let mut best_cost = f64::INFINITY;
            let mut cur_cost = f64::INFINITY;
            for p in 0..k {
                let pl = (load[p as usize] + size) as f64;
                let cost = balance_coeff * size as f64 * pl - 0.5 * adj[p as usize] as f64;
                if p == cur {
                    cur_cost = cost;
                }
                if cost < best_cost {
                    best_cost = cost;
                    best_p = p;
                }
            }
            // Move only on strict improvement so the potential strictly
            // decreases and the loop terminates.
            let chosen = if best_cost < cur_cost - 1e-9 {
                best_p
            } else {
                cur
            };
            if chosen != cur {
                moved_this_round += 1;
            }
            assign[i] = chosen;
            load[chosen as usize] += size;

            for &p in &touched {
                adj[p as usize] = 0;
            }
            touched.clear();
        }
        moves += moved_this_round;
        if moved_this_round == 0 {
            break;
        }
    }
    BatchResult {
        assign,
        rounds,
        moves,
    }
}

/// Global exact potential `Φ(Λ) = λ/(2k)·Σ_p load(p)² + ½·cut` (Def. 4),
/// where `load(p) = Σ_{c∈p} |c|` and `cut` counts every inter-cluster edge
/// whose endpoints' clusters sit in different partitions (using the full
/// adjacency, including cross-batch pairs).
pub fn potential(cg: &ClusterGraph, partition_of: &[u32], k: u32, lambda: f64) -> f64 {
    let mut load = vec![0u64; k as usize];
    for (c, &p) in partition_of.iter().enumerate() {
        load[p as usize] += cg.size[c];
    }
    let load_term: f64 = load.iter().map(|&l| (l as f64) * (l as f64)).sum();
    let mut cut = 0u64;
    for c in 0..cg.num_clusters {
        for &(nb, w) in cg.neighbors(c) {
            // Count each symmetric pair once.
            if nb > c && partition_of[c as usize] != partition_of[nb as usize] {
                cut += u64::from(w);
            }
        }
    }
    lambda / (2.0 * f64::from(k)) * load_term + 0.5 * cut as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clugp::clustering::stream_clustering;
    use crate::clugp::config::ClusterAssignMode;
    use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
    use clugp_graph::order::{ordered_edges, StreamOrder};
    use clugp_graph::stream::{InMemoryStream, RestreamableStream};

    fn web_cluster_graph(n: u64, vmax: u64) -> ClusterGraph {
        let g = generate_web_crawl(&WebCrawlConfig {
            vertices: n,
            ..Default::default()
        });
        let edges = ordered_edges(&g, StreamOrder::Bfs);
        let mut s = InMemoryStream::new(g.num_vertices(), edges);
        let clustering = stream_clustering(&mut s, vmax, true).unwrap();
        s.reset().unwrap();
        ClusterGraph::build(&mut s, &clustering)
    }

    fn single_batch_config() -> ClugpConfig {
        ClugpConfig {
            batch_size: 0,
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn equilibrium_reduces_potential() {
        let cg = web_cluster_graph(2_000, 500);
        let outcome = solve_game(&cg, 8, &single_batch_config()).unwrap();
        assert!(
            outcome.final_potential <= outcome.initial_potential,
            "potential increased: {} -> {}",
            outcome.initial_potential,
            outcome.final_potential
        );
        assert!(outcome.total_moves > 0, "game should move something");
    }

    #[test]
    fn all_clusters_get_valid_partitions() {
        let cg = web_cluster_graph(1_000, 200);
        let outcome = solve_game(&cg, 5, &ClugpConfig::default()).unwrap();
        assert_eq!(outcome.partition_of.len(), cg.num_clusters as usize);
        assert!(outcome.partition_of.iter().all(|&p| p < 5));
    }

    #[test]
    fn equilibrium_is_stable_no_unilateral_improvement() {
        // At Nash equilibrium no cluster can strictly lower its cost by
        // switching (checked against the batch-local cost in a single-batch
        // game, which sees full adjacency).
        let cg = web_cluster_graph(1_000, 250);
        let k = 4u32;
        let cfg = single_batch_config();
        let outcome = solve_game(&cg, k, &cfg).unwrap();
        let lambda = outcome.lambda;
        let assign = &outcome.partition_of;
        let mut load = vec![0u64; k as usize];
        for (c, &p) in assign.iter().enumerate() {
            load[p as usize] += cg.size[c];
        }
        for c in 0..cg.num_clusters {
            let size = cg.size[c as usize];
            let cur = assign[c as usize];
            let mut adj = vec![0u64; k as usize];
            for &(nb, w) in cg.neighbors(c) {
                adj[assign[nb as usize] as usize] += u64::from(w);
            }
            let cost = |p: u32| -> f64 {
                let without = load[cur as usize] - size;
                let pl = if p == cur {
                    without + size
                } else {
                    load[p as usize] + size
                } as f64;
                lambda / f64::from(k) * size as f64 * pl - 0.5 * adj[p as usize] as f64
            };
            let cur_cost = cost(cur);
            for p in 0..k {
                assert!(
                    cost(p) >= cur_cost - 1e-6,
                    "cluster {c} would deviate from {cur} to {p}"
                );
            }
        }
    }

    #[test]
    fn deterministic_regardless_of_threads() {
        let cg = web_cluster_graph(2_000, 100);
        let base = ClugpConfig {
            batch_size: 64,
            ..Default::default()
        };
        let a = solve_game(
            &cg,
            8,
            &ClugpConfig {
                threads: 1,
                ..base.clone()
            },
        )
        .unwrap();
        let b = solve_game(&cg, 8, &ClugpConfig { threads: 4, ..base }).unwrap();
        assert_eq!(a.partition_of, b.partition_of);
    }

    #[test]
    fn weight_mode_scales_lambda() {
        let cg = web_cluster_graph(500, 50);
        let lmax = cg.lambda_max(8);
        let half = resolve_lambda(&cg, 8, LambdaMode::Weight(0.5));
        assert_eq!(half, lmax); // λ_max · 0.5 / 0.5, exactly
        let low = resolve_lambda(&cg, 8, LambdaMode::Weight(0.1));
        let high = resolve_lambda(&cg, 8, LambdaMode::Weight(0.9));
        assert!(low < half && half < high);
    }

    #[test]
    fn empty_cluster_graph() {
        let cg = web_cluster_graph(1, 10); // single vertex, no edges
        let outcome = solve_game(&cg, 4, &ClugpConfig::default()).unwrap();
        assert!(outcome.partition_of.is_empty());
    }

    #[test]
    fn k_one_short_circuits() {
        let cg = web_cluster_graph(300, 50);
        let outcome = solve_game(&cg, 1, &ClugpConfig::default()).unwrap();
        assert!(outcome.partition_of.iter().all(|&p| p == 0));
        assert_eq!(outcome.max_rounds_used, 0);
    }

    #[test]
    fn rounds_bounded_by_config() {
        // One batch of every cluster: uncapped it needs more than 2 rounds,
        // so a cap of 2 stops it early.
        let cg = web_cluster_graph(2_000, 100);
        let lambda = cg.lambda_max(16);
        let m = cg.num_clusters as usize;
        assert!(solve_batch(&cg, 16, lambda, 0, m, 0, MAX_ROUNDS).rounds > 2);
        let capped = solve_batch(&cg, 16, lambda, 0, m, 0, 2);
        assert_eq!(capped.assign.len(), m);
        assert_eq!(capped.rounds, 2);
    }

    #[test]
    fn greedy_mode_unused_here() {
        // Guard that ClusterAssignMode is orthogonal to solve_game (the
        // dispatcher lives in mod.rs); the import is exercised for config
        // completeness.
        assert_ne!(ClusterAssignMode::Game, ClusterAssignMode::Greedy);
    }
}
