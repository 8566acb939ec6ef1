//! Property-based tests (proptest) over the core invariants: arbitrary edge
//! multisets through every layer of the stack.

use clugp::baselines::{Dbh, Greedy, Hashing, Hdrf, HdrfConfig, Mint};
use clugp::clugp::{solve_game, stream_clustering, Clugp, ClugpConfig, ClusterGraph};
use clugp::metrics::PartitionQuality;
use clugp::partitioner::Partitioner;
use clugp_graph::csr::CsrGraph;
use clugp_graph::idmap::{IdMap, RawInMemoryStream, RemappedStream};
use clugp_graph::order::{bfs_edge_order, bfs_ranks};
use clugp_graph::sampling::compact;
use clugp_graph::stream::{EdgeStream, InMemoryStream, RestreamableStream};
use clugp_graph::types::{Edge, RawEdge};
use proptest::prelude::*;

/// Arbitrary small edge lists over up to 64 vertices (self-loops and
/// duplicates included on purpose).
fn arb_edges() -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0u32..64, 0u32..64), 1..200)
        .prop_map(|pairs| pairs.into_iter().map(|(a, b)| Edge::new(a, b)).collect())
}

/// Arbitrary raw edge lists over sparse 64-bit external ids: a small pool of
/// huge ids (so edges share endpoints, exercising the interning fast path)
/// mixed with fully random ids.
fn arb_raw_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    prop::collection::vec((0u64..40, 0u64..u64::MAX), 1..200).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(pool, wild)| {
                // Endpoint 1 from a pool of 40 scrambled huge ids; endpoint 2
                // anywhere in u64.
                RawEdge::new(clugp_graph::idmap::scramble_id(pool), wild)
            })
            .collect()
    })
}

/// Edge lists whose ids hug `u32::MAX` (mixed with small ids), including
/// empty lists: the extreme-gap regime of the pack format's varint coding.
fn arb_extreme_edges() -> impl Strategy<Value = Vec<Edge>> {
    // Draw from 0..16 and fold the top half onto u32::MAX-adjacent ids, so
    // every list mixes tiny ids with ids at the very top of the range.
    let fold = |v: u32| if v < 8 { v } else { u32::MAX - (v - 8) };
    prop::collection::vec((0u32..16, 0u32..16), 0..60).prop_map(move |pairs| {
        pairs
            .into_iter()
            .map(|(a, b)| Edge::new(fold(a), fold(b)))
            .collect()
    })
}

/// Packs `edges` under a 1-edge-per-block and a multi-edge-block regime,
/// then decodes every raw block twice — batched production decoder vs the
/// scalar reference — and asserts record-for-record equality.
fn assert_decoders_agree(edges: &[Edge], tag: &str) {
    use clugp_graph::pack::{write_pack, BlockDecoder, PackOptions, ShardedPackReader};
    let dir = std::env::temp_dir().join("clugp_prop_decoder");
    std::fs::create_dir_all(&dir).unwrap();
    let decoder = BlockDecoder;
    for block_bytes in [1usize, 48] {
        let path = dir.join(format!("{tag}{}_{block_bytes}.clugpz", edges.len()));
        write_pack(
            &path,
            0,
            edges,
            &PackOptions {
                block_bytes,
                ..Default::default()
            },
        )
        .unwrap();
        let reader = ShardedPackReader::open(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for entry in reader.index().entries() {
            let start = entry.byte_offset as usize;
            let payload = &data[start..start + entry.byte_len as usize];
            decoder.decode(payload, entry, &mut fast).unwrap();
            decoder.decode_scalar(payload, entry, &mut slow).unwrap();
            assert_eq!(fast, slow, "decoders diverged (block_bytes={block_bytes})");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// HDRF exactly as published: every partition scored per edge in ascending
/// order, the first strictly greatest score wins. Written against plain
/// vectors so it shares nothing with the crate's kernel.
fn reference_hdrf(edges: &[Edge], k: u32, lambda: f64, epsilon: f64) -> Vec<u32> {
    let n = edges
        .iter()
        .map(|e| e.src.max(e.dst) + 1)
        .max()
        .unwrap_or(0) as usize;
    let k = k as usize;
    let mut holds = vec![vec![false; k]; n];
    let mut degree = vec![0u32; n];
    let mut loads = vec![0u64; k];
    let mut assignments = Vec::with_capacity(edges.len());
    for e in edges {
        let (u, v) = (e.src as usize, e.dst as usize);
        degree[u] += 1;
        degree[v] += 1;
        let (du, dv) = (f64::from(degree[u]), f64::from(degree[v]));
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let maxload = *loads.iter().max().unwrap() as f64;
        let minload = *loads.iter().min().unwrap() as f64;
        let denom = epsilon + maxload - minload;
        let (mut best_p, mut best_score) = (0usize, f64::NEG_INFINITY);
        for p in 0..k {
            let mut score = 0.0;
            if holds[u][p] {
                score += 1.0 + (1.0 - theta_u);
            }
            if holds[v][p] {
                score += 1.0 + (1.0 - theta_v);
            }
            score += lambda * (maxload - loads[p] as f64) / denom;
            if score > best_score {
                best_score = score;
                best_p = p;
            }
        }
        holds[u][best_p] = true;
        holds[v][best_p] = true;
        loads[best_p] += 1;
        assignments.push(best_p as u32);
    }
    assignments
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HDRF's class-representative kernel places every edge where the
    /// published per-partition scan does, on multigraphs with self-loops
    /// and duplicate edges, including lambdas at which balance terms tie.
    #[test]
    fn hdrf_equals_the_published_scan(
        edges in arb_edges(),
        k in 1u32..80,
        lambda in (0usize..7).prop_map(|i| [0.0, 1e-300, 0.1, 1.0, 10.0, 1e18, 1e300][i]),
    ) {
        let config = HdrfConfig { lambda, ..Default::default() };
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let run = Hdrf::new(config.clone()).partition(&mut stream, k).unwrap();
        prop_assert_eq!(
            run.partitioning.assignments,
            reference_hdrf(&edges, k, lambda, config.epsilon)
        );
    }

    /// Every partitioner assigns every edge exactly once with in-range ids.
    #[test]
    fn partitioners_assign_all_edges(edges in arb_edges(), k in 1u32..12) {
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let mut algos: Vec<Box<dyn Partitioner>> = vec![
            Box::new(Hashing::default()),
            Box::new(Dbh::default()),
            Box::new(Greedy::new()),
            Box::new(Hdrf::default()),
            Box::new(Mint::default()),
            Box::new(Clugp::default()),
        ];
        for algo in algos.iter_mut() {
            let run = algo.partition(&mut stream, k).unwrap();
            prop_assert_eq!(run.partitioning.assignments.len(), edges.len());
            prop_assert!(run.partitioning.validate().is_ok());
        }
    }

    /// RF bounds: 1 ≤ RF ≤ min(k, max |P(v)| possible).
    #[test]
    fn replication_factor_in_range(edges in arb_edges(), k in 1u32..12) {
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let run = Clugp::default().partition(&mut stream, k).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        prop_assert!(q.replication_factor >= 1.0 - 1e-12);
        prop_assert!(q.replication_factor <= f64::from(k) + 1e-12);
    }

    /// CLUGP's balance cap holds for arbitrary inputs.
    #[test]
    fn clugp_cap_holds(edges in arb_edges(), k in 1u32..12) {
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let run = Clugp::default().partition(&mut stream, k).unwrap();
        let lmax = (edges.len() as f64 / f64::from(k)).ceil() as u64;
        prop_assert!(run.partitioning.loads.iter().all(|&l| l <= lmax));
    }

    /// Clustering invariant: tracked cluster volumes equal the sum of member
    /// degrees, and every touched vertex has a dense cluster id.
    #[test]
    fn clustering_volume_invariant(edges in arb_edges(), vmax in 2u64..64) {
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let r = stream_clustering(&mut stream, vmax, true).unwrap();
        let mut recomputed = vec![0u64; r.num_clusters as usize];
        for (v, &c) in r.cluster_of.as_slice().iter().enumerate() {
            if c != u32::MAX {
                recomputed[c as usize] += u64::from(r.degree[v as u32]);
            }
        }
        prop_assert_eq!(recomputed, r.volumes.clone());
        // Degrees double-count each edge.
        let total: u64 = r.degree.iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(total, 2 * edges.len() as u64);
    }

    /// Cluster graph conservation: intra + inter = |E| for any input.
    #[test]
    fn cluster_graph_conserves_edges(edges in arb_edges(), vmax in 2u64..64) {
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let clustering = stream_clustering(&mut stream, vmax, true).unwrap();
        stream.reset().unwrap();
        let cg = ClusterGraph::build(&mut stream, &clustering);
        prop_assert_eq!(cg.total_intra() + cg.total_inter_edges(), edges.len() as u64);
        prop_assert_eq!(cg.total_size(), 2 * edges.len() as u64);
    }

    /// The game never increases the exact potential relative to its random
    /// initial profile (single batch, full visibility).
    #[test]
    fn game_potential_never_increases(edges in arb_edges(), k in 2u32..8) {
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let clustering = stream_clustering(&mut stream, 16, true).unwrap();
        stream.reset().unwrap();
        let cg = ClusterGraph::build(&mut stream, &clustering);
        let cfg = ClugpConfig { batch_size: 0, threads: 1, ..Default::default() };
        let outcome = solve_game(&cg, k, &cfg).unwrap();
        prop_assert!(outcome.final_potential <= outcome.initial_potential + 1e-6);
    }

    /// Id-map round trip: external → internal → external is the identity on
    /// every interned id, internal ids are dense first-appearance order, and
    /// distinct externals get distinct internals (bijectivity).
    #[test]
    fn idmap_round_trip_is_bijective(raw in arb_raw_edges()) {
        let mut map = IdMap::remap();
        let mut firsts: Vec<u64> = Vec::new();
        for e in &raw {
            for ext in [e.src, e.dst] {
                let before = map.len();
                let internal = map.intern(ext).unwrap();
                if !firsts.contains(&ext) {
                    // New id: interned densely in appearance order.
                    prop_assert_eq!(u64::from(internal), before);
                    firsts.push(ext);
                } else {
                    prop_assert_eq!(map.len(), before);
                }
                prop_assert_eq!(map.external_of(internal), ext);
                prop_assert_eq!(map.resolve(ext), Some(internal));
            }
        }
        prop_assert_eq!(map.len() as usize, firsts.len());
    }

    /// Partitioning sparse external ids through the remap layer equals
    /// partitioning the pre-relabeled dense graph bit-for-bit, and the
    /// remapped stream restreams identically (CLUGP's three passes).
    #[test]
    fn remapped_partitions_equal_dense_relabeled_partitions(raw in arb_raw_edges(), k in 1u32..8) {
        // Dense reference: intern in stream order = first-appearance relabel.
        let mut map = IdMap::remap();
        let dense: Vec<Edge> = raw
            .iter()
            .map(|e| Edge::new(map.intern(e.src).unwrap(), map.intern(e.dst).unwrap()))
            .collect();
        let mut dense_stream = InMemoryStream::new(map.len(), dense);
        let mut sparse_stream = RemappedStream::remap(RawInMemoryStream::new(raw)).unwrap();
        prop_assert_eq!(sparse_stream.num_vertices_hint(), Some(map.len()));
        let mut algos: Vec<Box<dyn Partitioner>> = vec![
            Box::new(Hashing::default()),
            Box::new(Hdrf::default()),
            Box::new(Clugp::default()),
        ];
        for algo in algos.iter_mut() {
            let a = algo.partition(&mut sparse_stream, k).unwrap();
            let b = algo.partition(&mut dense_stream, k).unwrap();
            prop_assert_eq!(
                a.partitioning.assignments,
                b.partitioning.assignments
            );
            prop_assert_eq!(a.partitioning.loads, b.partitioning.loads);
        }
    }

    /// BFS stream order is a permutation of the edge multiset, and BFS ranks
    /// are a bijection.
    #[test]
    fn bfs_order_is_permutation(edges in arb_edges()) {
        let g = CsrGraph::from_edges_auto(&edges);
        let mut bfs = bfs_edge_order(&g);
        let mut orig = g.edge_vec();
        bfs.sort();
        orig.sort();
        prop_assert_eq!(bfs, orig);
        let ranks = bfs_ranks(&g);
        let mut seen = vec![false; ranks.len()];
        for &r in &ranks {
            prop_assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
    }

    /// CSR round-trips arbitrary edge lists (as multisets grouped by
    /// source).
    #[test]
    fn csr_round_trip(edges in arb_edges()) {
        let g = CsrGraph::from_edges_auto(&edges);
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        let mut out = g.edge_vec();
        let mut inp = edges.clone();
        out.sort();
        inp.sort();
        prop_assert_eq!(out, inp);
    }

    /// Compaction preserves edge count and produces dense ids.
    #[test]
    fn compaction_is_dense(edges in arb_edges()) {
        let g = compact(&edges);
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        // All vertices touched: no isolated vertex can exist after compact.
        let degrees = g.total_degrees();
        prop_assert!(degrees.iter().all(|&d| d > 0));
    }

    /// Pack round trip: for arbitrary edge multisets (self-loops and
    /// duplicates included) and every block-size regime — ~1 edge per
    /// block, a few edges per block, and the default — `pack →
    /// PackedEdgeStream → edges` yields exactly the canonical (src, dst)
    /// ordering of the input, restreams identically, and verifies.
    #[test]
    fn pack_round_trip_across_block_sizes(edges in arb_edges()) {
        use clugp_graph::pack::{
            canonical_order, verify_pack, write_pack, PackOptions, PackedEdgeStream,
            DEFAULT_BLOCK_BYTES,
        };
        use clugp_graph::stream::collect_stream;
        let want = canonical_order(&edges);
        let dir = std::env::temp_dir().join("clugp_prop_pack");
        std::fs::create_dir_all(&dir).unwrap();
        for block_bytes in [1usize, 24, DEFAULT_BLOCK_BYTES] {
            let path = dir.join(format!("g{}_{block_bytes}.clugpz", edges.len()));
            let stats = write_pack(&path, 64, &edges, &PackOptions {
                block_bytes,
                ..Default::default()
            }).unwrap();
            prop_assert_eq!(stats.num_edges, edges.len() as u64);
            let mut s = PackedEdgeStream::open(&path).unwrap();
            prop_assert_eq!(s.len_hint(), Some(edges.len() as u64));
            prop_assert_eq!(s.num_vertices_hint(), Some(64));
            let first = collect_stream(&mut s);
            prop_assert_eq!(&first, &want);
            s.reset().unwrap();
            prop_assert_eq!(&collect_stream(&mut s), &want);
            prop_assert_eq!(verify_pack(&path).unwrap(), edges.len() as u64);
            std::fs::remove_file(&path).ok();
        }
    }

    /// Pack round trip at the hostile end of the id space: ids adjacent to
    /// `u32::MAX` (the varint wide-gap regime) survive every block size.
    #[test]
    fn pack_round_trip_near_u32_max(edges in arb_extreme_edges()) {
        use clugp_graph::pack::{canonical_order, write_pack, PackOptions, PackedEdgeStream};
        use clugp_graph::stream::collect_stream;
        let want = canonical_order(&edges);
        let dir = std::env::temp_dir().join("clugp_prop_pack_extreme");
        std::fs::create_dir_all(&dir).unwrap();
        for block_bytes in [1usize, 64] {
            let path = dir.join(format!("x{}_{block_bytes}.clugpz", edges.len()));
            write_pack(&path, 0, &edges, &PackOptions {
                block_bytes,
                ..Default::default()
            }).unwrap();
            let mut s = PackedEdgeStream::open(&path).unwrap();
            prop_assert_eq!(&collect_stream(&mut s), &want);
            std::fs::remove_file(&path).ok();
        }
    }

    /// The batched production block decoder is record-for-record identical
    /// to the scalar reference decoder on every block a real pack produces,
    /// across the 1-edge-per-block and multi-edge-block regimes.
    #[test]
    fn batched_block_decoder_matches_scalar(edges in arb_edges()) {
        assert_decoders_agree(&edges, "a");
    }

    /// Same equivalence at the hostile end of the id space: ids adjacent
    /// to `u32::MAX` exercise the widest varint gaps in both decoders.
    #[test]
    fn batched_block_decoder_matches_scalar_near_u32_max(edges in arb_extreme_edges()) {
        assert_decoders_agree(&edges, "x");
    }

    /// The external-sort spill path produces byte-identical packs to the
    /// in-memory path for any input order.
    #[test]
    fn pack_spill_path_equals_in_memory_path(edges in arb_edges()) {
        use clugp_graph::pack::{write_pack, PackOptions};
        let dir = std::env::temp_dir().join("clugp_prop_pack_spill");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join(format!("mem{}.clugpz", edges.len()));
        let b = dir.join(format!("spill{}.clugpz", edges.len()));
        write_pack(&a, 64, &edges, &PackOptions::default()).unwrap();
        write_pack(&b, 64, &edges, &PackOptions {
            spill_edges: 3,
            ..Default::default()
        }).unwrap();
        let fa = std::fs::read(&a).unwrap();
        let fb = std::fs::read(&b).unwrap();
        prop_assert_eq!(fa, fb);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    /// Every leg of the writer — adjacency-list sort or packed-key sort, no
    /// run, many runs, an in-memory tail or an empty one — writes the bytes
    /// of the reference: the vector ordered by the standard library's tuple
    /// sort, encoded as one in-memory run.
    #[test]
    fn pack_bytes_equal_the_one_run_reference_in_any_order(edges in arb_edges()) {
        use clugp_graph::pack::{write_pack, PackOptions, DEFAULT_BLOCK_BYTES};
        let dir = std::env::temp_dir().join("clugp_prop_pack_legs");
        std::fs::create_dir_all(&dir).unwrap();
        let mut canonical = edges.clone();
        canonical.sort_by_key(|e| (e.src, e.dst));
        // Stable by source alone: sources ascend, adjacency lists as drawn.
        let mut ascending = edges.clone();
        ascending.sort_by_key(|e| e.src);
        let reversed: Vec<Edge> = canonical.iter().rev().copied().collect();
        let one_source: Vec<Edge> = edges.iter().map(|e| Edge::new(5, e.dst)).collect();
        let (want, got) = (dir.join(format!("want{}.clugpz", edges.len())),
                           dir.join(format!("got{}.clugpz", edges.len())));
        for block_bytes in [1usize, 64, DEFAULT_BLOCK_BYTES] {
            for (name, input) in [("drawn", &edges), ("canonical", &canonical),
                                  ("ascending", &ascending), ("reversed", &reversed),
                                  ("one source", &one_source)] {
                let mut sorted = input.clone();
                sorted.sort_by_key(|e| (e.src, e.dst));
                write_pack(&want, 64, &sorted, &PackOptions {
                    block_bytes,
                    spill_edges: usize::MAX,
                }).unwrap();
                let want_bytes = std::fs::read(&want).unwrap();
                for spill_edges in [1usize, 7, 777, 4096, usize::MAX] {
                    write_pack(&got, 64, input, &PackOptions { block_bytes, spill_edges }).unwrap();
                    prop_assert!(
                        std::fs::read(&got).unwrap() == want_bytes,
                        "{} spill={} block={}", name, spill_edges, block_bytes
                    );
                }
            }
        }
        std::fs::remove_file(&want).ok();
        std::fs::remove_file(&got).ok();
    }

    /// The format's CRC32 is the reflected IEEE polynomial division, bit by
    /// bit, whatever table layout `crc32` uses to get there: arbitrary
    /// bytes, lengths on both sides of the 16-byte slicing stride.
    #[test]
    fn crc32_equals_bitwise_polynomial_division(
        bytes in prop::collection::vec(0u8..=255, 0..300),
    ) {
        let mut want = 0xFFFF_FFFFu32;
        for &b in &bytes {
            want ^= u32::from(b);
            for _ in 0..8 {
                want = (want >> 1) ^ (0xEDB8_8320 & (want & 1).wrapping_neg());
            }
        }
        prop_assert_eq!(clugp_graph::pack::crc32(&bytes), !want);
    }

    /// Binary I/O round-trips arbitrary graphs.
    #[test]
    fn binary_io_round_trip(edges in arb_edges()) {
        use clugp_graph::io::binary::{read_binary_graph, write_binary_graph};
        let dir = std::env::temp_dir().join("clugp_prop_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("g{}.bin", edges.len()));
        write_binary_graph(&path, 64, &edges).unwrap();
        let (n, back) = read_binary_graph(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(n, 64);
        prop_assert_eq!(back, edges);
    }

    /// Engine PageRank conservation-ish property: all ranks ≥ the base
    /// (1 − d) and finite, regardless of partitioning.
    #[test]
    fn engine_pagerank_sane(edges in arb_edges(), k in 1u32..6) {
        use clugp_engine::apps::PageRank;
        use clugp_engine::{DistributedGraph, Engine};
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let run = Hashing::default().partition(&mut stream, k).unwrap();
        let placed = DistributedGraph::place(&edges, &run.partitioning);
        let (ranks, _) = Engine::new(&placed).run(&PageRank::default());
        for r in ranks {
            prop_assert!(r.is_finite());
            prop_assert!(r >= 0.15 - 1e-12);
        }
    }

    /// Partitioning snapshots round-trip through the binary format.
    #[test]
    fn partitioning_snapshot_round_trip(edges in arb_edges(), k in 1u32..8) {
        use clugp::partition_io::{read_partitioning, write_partitioning};
        let mut stream = InMemoryStream::from_edges(edges.clone());
        let run = Hashing::default().partition(&mut stream, k).unwrap();
        let dir = std::env::temp_dir().join("clugp_prop_part_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("p{}_{}.part", edges.len(), k));
        write_partitioning(&path, &run.partitioning).unwrap();
        let back = read_partitioning(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.assignments, run.partitioning.assignments);
        prop_assert_eq!(back.loads, run.partitioning.loads);
    }
}
