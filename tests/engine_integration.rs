//! Engine integration: the GAS simulator must compute *exactly* what a
//! sequential implementation computes, no matter which partitioner produced
//! the placement — partitioning may change performance, never results.

use clugp::baselines::{Dbh, Greedy, Hashing, Hdrf, Mint};
use clugp::clugp::Clugp;
use clugp::partitioner::Partitioner;
use clugp_engine::apps::{sequential_pagerank, PageRank};
use clugp_engine::runtime::VertexCtx;
use clugp_engine::{CostModel, DistributedGraph, Engine, VertexProgram};
use clugp_graph::csr::CsrGraph;
use clugp_graph::stream::InMemoryStream;
use clugp_graph::types::VertexId;
use clugp_repro::{fnv1a, test_web_graph};

fn partitioners() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(Hashing),
        Box::new(Dbh::default()),
        Box::new(Greedy::new()),
        Box::new(Hdrf::default()),
        Box::new(Mint::default()),
        Box::new(Clugp::default()),
    ]
}

#[test]
fn pagerank_is_partitioning_invariant() {
    let (n, edges) = test_web_graph(2_000, 11);
    let graph = CsrGraph::from_edges(n, &edges).unwrap();
    let reference = sequential_pagerank(&graph, 0.85, 10);
    let mut stream = InMemoryStream::new(n, edges.clone());
    for partitioner in partitioners().iter_mut() {
        let run = partitioner.partition(&mut stream, 8).unwrap();
        let placed = DistributedGraph::place(&edges, &run.partitioning);
        let (ranks, _) = Engine::new(&placed).run(&PageRank::default());
        for (v, (a, b)) in ranks.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{} vertex {v}: {a} vs {b}",
                partitioner.name()
            );
        }
    }
}

/// The paper's core systems claim (Fig. 8): fewer mirrors ⇒ fewer messages.
/// CLUGP's sync traffic must be below Hashing's on a web graph.
#[test]
fn better_partitioning_means_less_communication() {
    let (n, edges) = test_web_graph(5_000, 14);
    let mut stream = InMemoryStream::new(n, edges.clone());

    let runs: Vec<(String, u64)> = partitioners()
        .iter_mut()
        .map(|p| {
            let run = p.partition(&mut stream, 16).unwrap();
            let placed = DistributedGraph::place(&edges, &run.partitioning);
            let (_, stats) = Engine::new(&placed).run(&PageRank::default());
            (p.name().to_string(), stats.total_messages())
        })
        .collect();
    let messages = |name: &str| runs.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(
        messages("CLUGP") < messages("Hashing"),
        "CLUGP {} vs Hashing {}",
        messages("CLUGP"),
        messages("Hashing")
    );
}

/// Gathers along every in-edge and changes every value: an all-active
/// superstep.
struct EveryEdge;

impl VertexProgram for EveryEdge {
    type Value = u64;
    type Accum = ();

    fn init(&self, _v: VertexId, _ctx: &VertexCtx) -> u64 {
        0
    }

    fn gather(&self, _neighbor: &u64, _ctx: &VertexCtx) {}

    fn merge(&self, _a: &mut (), _b: ()) {}

    fn apply(&self, _v: VertexId, old: &u64, _acc: Option<()>, _ctx: &VertexCtx) -> u64 {
        old + 1
    }

    fn max_supersteps(&self) -> usize {
        1
    }
}

/// Placement invariants hold for every partitioner, and the engine's cost
/// terms are the partition's quality terms. Machine `p` holds exactly
/// `loads[p]` edges, so a superstep's busiest machine scans the max load
/// (balance). A superstep gathers along in-edges: a mirror sends a partial
/// only from a machine where it has an in-edge. An all-active superstep
/// ([`EveryEdge`]) then syncs once per mirror: sync = total mirrors =
/// n·(rf − 1).
///
/// The first PageRank superstep sends the same partials, but it is not
/// all-active: a vertex whose in-shares sum to exactly 1 keeps its rank of
/// 1.0, so it syncs nothing. It is held to the exact counts it does have.
#[test]
fn placement_conserves_edges_and_replicas() {
    let (n, edges) = test_web_graph(2_000, 15);
    let mut stream = InMemoryStream::new(n, edges.clone());
    for partitioner in partitioners().iter_mut() {
        let name = partitioner.name();
        let run = partitioner.partition(&mut stream, 8).unwrap();
        let placed = DistributedGraph::place(&edges, &run.partitioning);
        assert_eq!(placed.total_edges(), edges.len() as u64, "{name}");
        let held: Vec<u64> = placed
            .machines
            .iter()
            .map(|m| m.edges.len() as u64)
            .collect();
        assert_eq!(held, run.partitioning.loads, "{name}");
        // Exactly one master per touched vertex.
        let q = clugp::metrics::PartitionQuality::compute(&edges, &run.partitioning);
        assert_eq!(placed.total_replicas(), q.total_replicas, "{name}");
        assert_eq!(placed.total_mirrors(), q.mirrors, "{name}");

        let engine = Engine::new(&placed);
        let one_step = PageRank {
            iterations: 1,
            ..Default::default()
        };
        let (ranks, stats) = engine.run(&one_step);
        let step = &stats.supersteps[0];
        let max_load = run.partitioning.loads.iter().copied().max().unwrap();
        assert_eq!(step.max_machine_edges(), max_load, "{name}");
        let (mut replicas, mut in_mirrors) = (vec![0u64; ranks.len()], 0u64);
        for m in &placed.machines {
            m.vertices.iter().for_each(|&v| replicas[v as usize] += 1);
            let mut has_in_edge = vec![false; m.vertices.len()];
            m.edges
                .iter()
                .for_each(|&(_, d)| has_in_edge[d as usize] = true);
            let local = 0..m.vertices.len();
            in_mirrors += local.filter(|&l| !m.is_master[l] && has_in_edge[l]).count() as u64;
        }
        let (_, all) = engine.run(&EveryEdge);
        let every = &all.supersteps[0];
        assert_eq!(
            every.gather_messages.iter().sum::<u64>(),
            in_mirrors,
            "{name}"
        );
        assert_eq!(every.sync_messages.iter().sum::<u64>(), q.mirrors, "{name}");

        let synced: u64 = (0..ranks.len())
            .filter(|&v| ranks[v] != 1.0 && replicas[v] > 0)
            .map(|v| replicas[v] - 1)
            .sum();
        assert_eq!(
            step.gather_messages.iter().sum::<u64>(),
            in_mirrors,
            "{name}"
        );
        assert_eq!(step.sync_messages.iter().sum::<u64>(), synced, "{name}");
    }
}

/// FNV-1a over a placement: `master_of`, then each machine's `vertices`,
/// `is_master` and `edges`, as little-endian bytes.
fn placement_hash(d: &DistributedGraph) -> u64 {
    let mut bytes = Vec::new();
    d.master_of
        .iter()
        .for_each(|m| bytes.extend(m.to_le_bytes()));
    for m in &d.machines {
        m.vertices
            .iter()
            .for_each(|v| bytes.extend(v.to_le_bytes()));
        bytes.extend(m.is_master.iter().map(|&b| u8::from(b)));
        for &(s, t) in &m.edges {
            bytes.extend(s.to_le_bytes());
            bytes.extend(t.to_le_bytes());
        }
    }
    fnv1a(bytes)
}

/// The placement itself — masters, local vertex order and local edges — not
/// only its totals. The hashes were recorded before placement recorded its
/// replicas through `ReplicaTable::record`.
#[test]
fn placement_matches_its_recorded_hashes() {
    let (n, edges) = test_web_graph(5_000, 14);
    let mut stream = InMemoryStream::new(n, edges.clone());
    let golden: [(Box<dyn Partitioner>, u64); 4] = [
        (Box::new(Clugp::default()), 0xfb14_85af_87d3_1df7),
        (Box::new(Hdrf::default()), 0x864f_58a3_0849_890a),
        (Box::new(Dbh::default()), 0x628c_f112_f1f8_6e88),
        (Box::new(Hashing), 0x800d_69c0_cc4a_0131),
    ];
    let mut wrong = Vec::new();
    for (mut partitioner, want) in golden {
        let run = partitioner.partition(&mut stream, 16).unwrap();
        let got = placement_hash(&DistributedGraph::place(&edges, &run.partitioning));
        if got != want {
            wrong.push(format!("{}: {got:#018x}", partitioner.name()));
        }
    }
    assert!(wrong.is_empty(), "placement moved: {}", wrong.join(", "));
}

/// Latency sweep monotonicity: higher RTT can only slow the estimate.
#[test]
fn cost_estimates_monotone_in_rtt() {
    let (n, edges) = test_web_graph(2_000, 16);
    let mut stream = InMemoryStream::new(n, edges.clone());
    let run = Clugp::default().partition(&mut stream, 8).unwrap();
    let placed = DistributedGraph::place(&edges, &run.partitioning);
    let (_, stats) = Engine::new(&placed).run(&PageRank::default());
    let mut last = 0.0;
    for ms in [1u64, 10, 50, 100] {
        let est = CostModel {
            rtt: std::time::Duration::from_millis(ms),
            ..Default::default()
        }
        .estimate(&stats);
        assert!(est.total_secs() >= last);
        last = est.total_secs();
    }
}
