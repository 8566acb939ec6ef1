//! Cross-thread determinism: the game's batches and Mint's wave games run
//! on real worker threads, and every parallel consumer must produce
//! **bit-identical** results for any thread count. The guarantees under
//! test: batch games are seeded by `(seed, batch_index)` (so no dependence
//! on scheduling), results come back in input order, and `threads` bounds
//! the worker count without changing semantics.
//!
//! A regression back to nondeterministic (or secretly sequential-but-
//! reordered) execution fails these tests; CI runs them on every push.

use clugp::ampc::coordinator::DistAlgo;
use clugp::clugp::{solve_game, stream_clustering, ClugpConfig, ClusterGraph};
use clugp_graph::stream::{InMemoryStream, RestreamableStream};
use clugp_repro::{test_web_graph, Case};

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
    // threads = 0 (every available CPU, machine-dependent width) must also
    // agree.
    assert_eq!(solve(0), baseline, "threads=0 (every CPU)");
}

/// `case` with its game or wave games on each of `THREAD_COUNTS` threads
/// against the reference on every CPU.
fn check_thread_counts(case: Case) {
    for threads in THREAD_COUNTS {
        Case {
            threads,
            ..case.clone()
        }
        .check()
        .unwrap();
    }
}

#[test]
fn full_clugp_pipeline_is_bit_identical_across_thread_counts() {
    let clugp = DistAlgo::Clugp(ClugpConfig {
        batch_size: 64,
        ..Default::default()
    });
    check_thread_counts(Case::new(clugp, 3_000, 7));
}

#[test]
fn mint_is_bit_identical_across_thread_counts() {
    // More than one wave of 8 batches of 6400 edges, so a full wave of
    // batch games meets every pool width; `threads` bounds the worker pool
    // only (the wave width is fixed).
    let case = Case {
        k: 4,
        ..Case::new(DistAlgo::mint(), 5_000, 23)
    };
    assert!(case.edges().1.len() > 8 * 6400, "less than a wave");
    check_thread_counts(case);
}
