//! Cross-thread determinism: with the vendored rayon running real worker
//! threads, every parallel consumer must produce **bit-identical** results
//! for any thread count. The guarantees under test: batch games are seeded
//! by `(seed, batch_index)` (so no dependence on scheduling), the pool's
//! `collect` preserves input order, and `ThreadPool::install` scopes the
//! ambient pool without changing semantics.
//!
//! A regression back to nondeterministic (or secretly sequential-but-
//! reordered) execution fails these tests; CI runs them on every push.

use clugp::baselines::{Mint, MintConfig};
use clugp::clugp::{solve_game, stream_clustering, Clugp, ClugpConfig, ClusterGraph};
use clugp::partitioner::Partitioner;
use clugp_graph::stream::{InMemoryStream, RestreamableStream};
use clugp_repro::test_web_graph;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn web_cluster_graph(vertices: u64, seed: u64, vmax: u64) -> ClusterGraph {
    let (n, edges) = test_web_graph(vertices, seed);
    let mut s = InMemoryStream::new(n, edges);
    let clustering = stream_clustering(&mut s, vmax, true).unwrap();
    s.reset().unwrap();
    ClusterGraph::build(&mut s, &clustering)
}

#[test]
fn solve_game_is_bit_identical_across_thread_counts() {
    let cg = web_cluster_graph(3_000, 42, 120);
    let solve = |threads: usize| {
        solve_game(
            &cg,
            16,
            &ClugpConfig {
                batch_size: 32,
                threads,
                ..Default::default()
            },
        )
        .unwrap()
        .partition_of
    };
    let baseline = solve(1);
    assert!(!baseline.is_empty());
    for threads in THREAD_COUNTS {
        assert_eq!(solve(threads), baseline, "threads={threads}");
    }
    // threads = 0 (ambient pool, machine-dependent width) must also agree.
    assert_eq!(solve(0), baseline, "threads=0 (default pool)");
}

#[test]
fn full_clugp_pipeline_is_bit_identical_across_thread_counts() {
    let (n, edges) = test_web_graph(3_000, 7);
    let mut s = InMemoryStream::new(n, edges);
    let run = |threads: usize, s: &mut InMemoryStream| {
        Clugp::new(ClugpConfig {
            batch_size: 64,
            threads,
            ..Default::default()
        })
        .partition(s, 8)
        .unwrap()
        .partitioning
        .assignments
    };
    let baseline = run(1, &mut s);
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads, &mut s), baseline, "threads={threads}");
    }
}

#[test]
fn mint_is_bit_identical_across_thread_counts() {
    // Small batches force many multi-batch waves; `threads` bounds the
    // worker pool only (the wave width is a separate, fixed knob).
    let (n, edges) = test_web_graph(3_000, 23);
    let mut s = InMemoryStream::new(n, edges);
    let run = |threads: usize, s: &mut InMemoryStream| {
        Mint::new(MintConfig {
            batch_size: 101,
            threads,
            ..Default::default()
        })
        .partition(s, 8)
        .unwrap()
        .partitioning
        .assignments
    };
    let baseline = run(1, &mut s);
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads, &mut s), baseline, "threads={threads}");
    }
}
