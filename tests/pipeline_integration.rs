//! Cross-crate integration tests: the full CLUGP pipeline against the graph
//! substrate and all baselines, exercising the invariants the paper's
//! problem statement demands (Problem 1, Eq. 1).

use clugp::baselines::{Dbh, Greedy, Hashing, Hdrf, Mint};
use clugp::clugp::{Clugp, ClugpConfig, ClusterAssignMode, MigrationPolicy};
use clugp::metrics::PartitionQuality;
use clugp::partitioner::Partitioner;
use clugp_graph::stream::InMemoryStream;
use clugp_graph::types::Edge;
use clugp_repro::test_web_graph;

fn all_partitioners() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(Hashing::default()),
        Box::new(Dbh::default()),
        Box::new(Greedy::new()),
        Box::new(Hdrf::default()),
        Box::new(Mint::default()),
        Box::new(Clugp::default()),
        Box::new(Clugp::new(ClugpConfig {
            splitting: false,
            ..Default::default()
        })),
        Box::new(Clugp::new(ClugpConfig {
            assign_mode: ClusterAssignMode::Greedy,
            ..Default::default()
        })),
    ]
}

/// Problem 1: every edge is assigned to exactly one partition, for every
/// algorithm, across several k.
#[test]
fn every_algorithm_partitions_every_edge_exactly_once() {
    let (n, edges) = test_web_graph(3_000, 1);
    let mut stream = InMemoryStream::new(n, edges.clone());
    for partitioner in all_partitioners().iter_mut() {
        for k in [1u32, 2, 7, 32] {
            let run = partitioner.partition(&mut stream, k).unwrap();
            assert_eq!(
                run.partitioning.assignments.len(),
                edges.len(),
                "{} k={k}: assignment count",
                partitioner.name()
            );
            run.partitioning
                .validate()
                .unwrap_or_else(|e| panic!("{} k={k}: {e}", partitioner.name()));
        }
    }
}

/// Replication factor is at least 1 and at most k for every algorithm.
#[test]
fn replication_factor_bounds() {
    let (n, edges) = test_web_graph(3_000, 2);
    let mut stream = InMemoryStream::new(n, edges.clone());
    for partitioner in all_partitioners().iter_mut() {
        let k = 16;
        let run = partitioner.partition(&mut stream, k).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!(
            q.replication_factor >= 1.0 && q.replication_factor <= f64::from(k),
            "{}: rf {}",
            partitioner.name(),
            q.replication_factor
        );
    }
}

/// CLUGP's τ cap (Algorithm 1): relative balance ≤ τ plus rounding slack.
#[test]
fn clugp_respects_tau_across_settings() {
    let (n, edges) = test_web_graph(4_000, 3);
    let m = edges.len() as f64;
    let mut stream = InMemoryStream::new(n, edges);
    for tau in [1.0f64, 1.05, 1.2] {
        for k in [4u32, 16, 64] {
            let mut clugp = Clugp::new(ClugpConfig {
                tau,
                ..Default::default()
            });
            let run = clugp.partition(&mut stream, k).unwrap();
            let lmax = (tau * m / f64::from(k)).ceil();
            let max_load = *run.partitioning.loads.iter().max().unwrap() as f64;
            assert!(
                max_load <= lmax,
                "tau={tau} k={k}: max load {max_load} > Lmax {lmax}"
            );
        }
    }
}

/// The paper's headline claim at our scale: CLUGP beats Hashing/DBH/Mint
/// decisively and is competitive with HDRF on web graphs. Each algorithm
/// gets its best stream order, as in the paper's setup (random for the
/// one-pass heuristics — HDRF degenerates on BFS order — BFS for
/// Mint/CLUGP).
#[test]
fn clugp_quality_ordering_on_web_graph() {
    use clugp_graph::csr::CsrGraph;
    use clugp_graph::order::{ordered_edges, StreamOrder};
    let (n, bfs_edges) = test_web_graph(20_000, 4);
    let graph = CsrGraph::from_edges(n, &bfs_edges).unwrap();
    let random_edges = ordered_edges(&graph, StreamOrder::Random(7));
    let k = 32;
    let rf = |p: &mut dyn Partitioner, edges: &[Edge]| {
        let mut stream = InMemoryStream::new(n, edges.to_vec());
        let run = p.partition(&mut stream, k).unwrap();
        PartitionQuality::compute(edges, &run.partitioning).replication_factor
    };
    let clugp = rf(&mut Clugp::default(), &bfs_edges);
    let mint = rf(&mut Mint::default(), &bfs_edges);
    let hashing = rf(&mut Hashing::default(), &random_edges);
    let dbh = rf(&mut Dbh::default(), &random_edges);
    let hdrf = rf(&mut Hdrf::default(), &random_edges);
    assert!(clugp < 0.6 * hashing, "CLUGP {clugp} vs Hashing {hashing}");
    assert!(clugp < 0.9 * dbh, "CLUGP {clugp} vs DBH {dbh}");
    assert!(clugp < 0.9 * mint, "CLUGP {clugp} vs Mint {mint}");
    assert!(clugp < 1.35 * hdrf, "CLUGP {clugp} vs HDRF {hdrf}");
}

/// Determinism: identical runs produce identical assignments for every
/// algorithm (fixed seeds end to end).
#[test]
fn all_algorithms_are_deterministic() {
    let (n, edges) = test_web_graph(2_000, 5);
    let mut stream = InMemoryStream::new(n, edges);
    for partitioner in all_partitioners().iter_mut() {
        let a = partitioner.partition(&mut stream, 8).unwrap();
        let b = partitioner.partition(&mut stream, 8).unwrap();
        assert_eq!(
            a.partitioning.assignments,
            b.partitioning.assignments,
            "{} must be deterministic",
            partitioner.name()
        );
    }
}

/// Self-loops and duplicate edges flow through every algorithm.
#[test]
fn degenerate_edges_are_handled() {
    let mut edges: Vec<Edge> = (0..50).map(|i| Edge::new(i % 5, (i + 1) % 5)).collect();
    edges.push(Edge::new(3, 3));
    edges.push(Edge::new(3, 3));
    edges.push(Edge::new(0, 1));
    let mut stream = InMemoryStream::new(5, edges.clone());
    for partitioner in all_partitioners().iter_mut() {
        let run = partitioner.partition(&mut stream, 4).unwrap();
        assert_eq!(
            run.partitioning.assignments.len(),
            edges.len(),
            "{}",
            partitioner.name()
        );
        run.partitioning.validate().unwrap();
    }
}

/// k = 1 is the trivial partitioning with RF exactly 1 for every algorithm.
#[test]
fn k_one_is_trivial_for_everyone() {
    let (n, edges) = test_web_graph(1_000, 6);
    let mut stream = InMemoryStream::new(n, edges.clone());
    for partitioner in all_partitioners().iter_mut() {
        let run = partitioner.partition(&mut stream, 1).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!(
            (q.replication_factor - 1.0).abs() < 1e-12,
            "{}: rf {}",
            partitioner.name(),
            q.replication_factor
        );
    }
}

/// k larger than |E|: every algorithm still terminates with a valid (sparse)
/// assignment.
#[test]
fn k_exceeding_edge_count() {
    let edges: Vec<Edge> = (0..6).map(|i| Edge::new(i, i + 1)).collect();
    let mut stream = InMemoryStream::new(7, edges.clone());
    for partitioner in all_partitioners().iter_mut() {
        let run = partitioner.partition(&mut stream, 64).unwrap();
        run.partitioning.validate().unwrap();
        assert_eq!(run.partitioning.assignments.len(), edges.len());
    }
}

/// Both migration policies are safe; the anchored default never does worse
/// than the verbatim-paper policy on a locality-rich crawl.
#[test]
fn migration_policy_comparison() {
    let (n, edges) = test_web_graph(10_000, 7);
    let mut stream = InMemoryStream::new(n, edges.clone());
    let rf_of = |policy: MigrationPolicy, stream: &mut InMemoryStream| {
        let mut clugp = Clugp::new(ClugpConfig {
            migration: policy,
            ..Default::default()
        });
        let run = clugp.partition(stream, 32).unwrap();
        PartitionQuality::compute(&edges, &run.partitioning).replication_factor
    };
    let anchored = rf_of(MigrationPolicy::Anchored, &mut stream);
    let paper = rf_of(MigrationPolicy::Paper, &mut stream);
    assert!(anchored >= 1.0 && paper >= 1.0);
    assert!(
        anchored <= paper * 1.02,
        "anchored {anchored} should not lose to paper-verbatim {paper}"
    );
}
