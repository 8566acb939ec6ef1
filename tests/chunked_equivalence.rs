//! Chunking equivalence: every partitioner must produce byte-identical
//! `PartitionRun` assignments whether its stream lends whole chunks or
//! source chunk granularities of 1 (an edge at a time), 7, and 4096 edges —
//! and the empty stream must behave the same everywhere. Every source must
//! in turn deliver one edge sequence whatever the consumer asks for. This is
//! the contract behind "chunk boundaries are not semantic".

use clugp::baselines::{Dbh, Greedy, Hashing, Hdrf, Mint, MintConfig};
use clugp::clugp::{Clugp, ClugpConfig, ClusterAssignMode};
use clugp::partitioner::Partitioner;
use clugp_graph::stream::{ChunkLimited, InMemoryStream, RestreamableStream};
use clugp_graph::types::Edge;
use clugp_repro::test_web_graph;

/// The roster under test: CLUGP (+ablations) and every vertex-cut baseline.
fn roster() -> Vec<(&'static str, Box<dyn Partitioner>)> {
    vec![
        ("Hashing", Box::new(Hashing::default())),
        ("DBH", Box::new(Dbh::default())),
        ("Greedy", Box::new(Greedy::new())),
        ("HDRF", Box::new(Hdrf::default())),
        // Small batches so batch boundaries interleave with chunk limits.
        (
            "Mint",
            Box::new(Mint::new(MintConfig {
                batch_size: 97,
                ..Default::default()
            })),
        ),
        ("CLUGP", Box::new(Clugp::default())),
        (
            "CLUGP-S",
            Box::new(Clugp::new(ClugpConfig {
                splitting: false,
                ..Default::default()
            })),
        ),
        (
            "CLUGP-G",
            Box::new(Clugp::new(ClugpConfig {
                assign_mode: ClusterAssignMode::Greedy,
                ..Default::default()
            })),
        ),
    ]
}

fn run(
    p: &mut dyn Partitioner,
    stream: &mut dyn RestreamableStream,
    k: u32,
) -> (Vec<u32>, Vec<u64>) {
    let run = p.partition(stream, k).expect("partition");
    (run.partitioning.assignments, run.partitioning.loads)
}

#[test]
fn per_edge_and_chunked_paths_are_bit_identical() {
    let (n, edges) = test_web_graph(2_000, 31);
    let k = 8;
    for (name, mut p) in roster() {
        // Reference: whole chunks lent by the native source.
        let mut native = InMemoryStream::new(n, edges.clone());
        let reference = run(p.as_mut(), &mut native, k);
        assert_eq!(reference.0.len(), edges.len(), "{name}: wrong edge count");

        // Arbitrary source chunk granularities; 1 is an edge per pull.
        for limit in [1usize, 7, 4096] {
            let mut limited = ChunkLimited::new(InMemoryStream::new(n, edges.clone()), limit);
            assert_eq!(
                run(p.as_mut(), &mut limited, k),
                reference,
                "{name}: chunk limit {limit} changed the partition"
            );
        }
    }
}

#[test]
fn empty_stream_is_identical_on_every_path() {
    for (name, mut p) in roster() {
        let mut native = InMemoryStream::new(0, vec![]);
        let reference = run(p.as_mut(), &mut native, 4);
        assert!(
            reference.0.is_empty(),
            "{name}: empty stream assigned edges"
        );
        assert_eq!(reference.1, vec![0; 4], "{name}: empty stream has load");

        for limit in [1usize, 7, 4096] {
            let mut limited = ChunkLimited::new(InMemoryStream::new(0, vec![]), limit);
            assert_eq!(run(p.as_mut(), &mut limited, 4), reference, "{name}");
        }
    }
}

#[test]
fn mint_batch_boundaries_survive_any_chunking() {
    // Mint is the one consumer whose *semantics* depend on how many edges it
    // groups per batch: if chunk granularity leaked into batch boundaries,
    // equilibria would change. Exercise batch sizes that are coprime with
    // the chunk limits.
    let (n, edges) = test_web_graph(1_500, 32);
    for batch_size in [37usize, 64, 1000] {
        let mut reference_stream = InMemoryStream::new(n, edges.clone());
        let reference = Mint::new(MintConfig {
            batch_size,
            ..Default::default()
        })
        .partition(&mut reference_stream, 8)
        .unwrap()
        .partitioning
        .assignments;
        for limit in [1usize, 7, 4096] {
            let mut s = ChunkLimited::new(InMemoryStream::new(n, edges.clone()), limit);
            let got = Mint::new(MintConfig {
                batch_size,
                ..Default::default()
            })
            .partition(&mut s, 8)
            .unwrap()
            .partitioning
            .assignments;
            assert_eq!(
                got, reference,
                "batch_size={batch_size} limit={limit} changed Mint's equilibria"
            );
        }
    }
}

#[test]
fn packed_input_partitions_bit_identical_to_flat_binary() {
    // The storage contract of the CLUGPZ pack: for the same logical edge
    // sequence (a pack stores the canonical (src, dst) order), every
    // partitioner — CLUGP with ablations and all five baselines — must
    // produce byte-identical partitions whether it streams the flat binary
    // file or decodes the compressed pack, at any source chunk granularity.
    use clugp_graph::io::binary::{write_binary_graph, FileEdgeStream};
    use clugp_graph::pack::{canonical_order, write_pack, PackOptions, PackedEdgeStream};
    let (n, edges) = test_web_graph(1_500, 36);
    let canonical = canonical_order(&edges);
    let dir = std::env::temp_dir().join("clugp_packed_equiv");
    std::fs::create_dir_all(&dir).unwrap();
    let flat_path = dir.join("equiv.bin");
    let pack_path = dir.join("equiv.clugpz");
    write_binary_graph(&flat_path, n, &canonical).unwrap();
    // Pack from the *original* order: the writer's external sort must land
    // on the same canonical sequence. A small block size keeps many block
    // boundaries in play.
    write_pack(
        &pack_path,
        n,
        &edges,
        &PackOptions {
            block_bytes: 2048,
            ..Default::default()
        },
    )
    .unwrap();

    for (name, mut p) in roster() {
        let mut flat = FileEdgeStream::open(&flat_path).unwrap();
        let reference = run(p.as_mut(), &mut flat, 8);
        assert_eq!(reference.0.len(), edges.len(), "{name}: wrong edge count");

        let mut packed = PackedEdgeStream::open(&pack_path).unwrap();
        assert_eq!(
            run(p.as_mut(), &mut packed, 8),
            reference,
            "{name}: packed stream diverged from flat binary"
        );

        for limit in [1usize, 7, 4096] {
            let mut limited = ChunkLimited::new(PackedEdgeStream::open(&pack_path).unwrap(), limit);
            assert_eq!(
                run(p.as_mut(), &mut limited, 8),
                reference,
                "{name}: chunk limit {limit} over the pack diverged"
            );
        }
    }
    std::fs::remove_file(&flat_path).ok();
    std::fs::remove_file(&pack_path).ok();
}

#[test]
fn file_backed_stream_matches_in_memory_chunked() {
    use clugp_graph::io::binary::{write_binary_graph, FileEdgeStream};
    let (n, edges) = test_web_graph(1_200, 33);
    let dir = std::env::temp_dir().join("clugp_chunked_equiv");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("equiv.bin");
    write_binary_graph(&path, n, &edges).unwrap();

    let mut mem = InMemoryStream::new(n, edges.clone());
    let mut file = FileEdgeStream::open(&path).unwrap();
    let mut clugp = Clugp::default();
    let a = run(&mut clugp, &mut mem, 8);
    let b = run(&mut clugp, &mut file, 8);
    assert_eq!(a, b, "block-read file stream diverged from memory stream");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sparse_remapped_stream_matches_dense_relabeled_run_bit_for_bit() {
    // The id-space contract: partitioning a stream of sparse 64-bit hashed
    // ids through the remap layer must equal partitioning the equivalent
    // pre-relabeled dense graph (remap interns ids in first-appearance
    // order, which IS the dense relabeling of the stream) — for every
    // algorithm, at every source chunk granularity.
    use clugp_graph::idmap::{scramble_edges, IdMap, RawInMemoryStream, RemappedStream};
    let (_, edges) = test_web_graph(1_500, 35);
    let raw = scramble_edges(&edges);
    // Dense first-appearance relabeling of the same stream.
    let mut map = IdMap::remap();
    let relabeled: Vec<Edge> = edges
        .iter()
        .map(|e| {
            Edge::new(
                map.intern(u64::from(e.src)).unwrap(),
                map.intern(u64::from(e.dst)).unwrap(),
            )
        })
        .collect();
    let distinct = map.len();

    let remap = || RemappedStream::remap(RawInMemoryStream::new(raw.clone())).unwrap();
    for (name, mut p) in roster() {
        let mut dense = InMemoryStream::new(distinct, relabeled.clone());
        let reference = run(p.as_mut(), &mut dense, 8);
        let mut sparse = remap();
        assert_eq!(
            run(p.as_mut(), &mut sparse, 8),
            reference,
            "{name}: remapped sparse stream diverged from dense relabeling"
        );
        for limit in [1usize, 7, 4096] {
            let mut limited = ChunkLimited::new(remap(), limit);
            assert_eq!(
                run(p.as_mut(), &mut limited, 8),
                reference,
                "{name}: chunk limit {limit} over the remap layer diverged"
            );
        }
    }
}

#[test]
fn every_source_delivers_one_sequence_at_any_cap() {
    // The pull contract, source by source: the same graph comes out as the
    // same edge sequence whatever `cap` the consumer names (0 reads as 1,
    // `usize::MAX` sizes nothing), no chunk is empty before the end or
    // longer than `cap`, and a `reset` replays it.
    use clugp_graph::idmap::{IdMap, RawInMemoryStream, RemappedStream};
    use clugp_graph::io::binary::{write_binary_graph, FileEdgeStream};
    use clugp_graph::io::{open_edge_stream, write_edge_list};
    use clugp_graph::pack::{
        canonical_order, write_pack, DecodeOptions, PackOptions, PackedEdgeStream,
        PipelinedPackStream,
    };
    use clugp_graph::types::RawEdge;
    let (n, edges) = test_web_graph(1_000, 37);
    // A pack stores the canonical order, so every source gets that one.
    let want = canonical_order(&edges);
    let dir = std::env::temp_dir().join("clugp_source_table");
    std::fs::create_dir_all(&dir).unwrap();
    let (flat, text, pack) = (dir.join("g.bin"), dir.join("g.txt"), dir.join("g.clugpz"));
    write_binary_graph(&flat, n, &want).unwrap();
    write_edge_list(&text, &want).unwrap();
    let small_blocks = PackOptions {
        block_bytes: 2048,
        ..Default::default()
    };
    write_pack(&pack, n, &want, &small_blocks).unwrap();
    let decode_ahead = DecodeOptions {
        threads: 1,
        ..Default::default()
    };
    let raw = want.iter().map(|&e| RawEdge::from(e)).collect();
    // The remap layer yields the first-appearance relabeling.
    let mut map = IdMap::remap();
    let relabeled: Vec<Edge> = want
        .iter()
        .map(|e| {
            let mut id = |v: u32| map.intern(v.into()).unwrap();
            Edge::new(id(e.src), id(e.dst))
        })
        .collect();
    let sources: Vec<(&str, Box<dyn RestreamableStream>)> = vec![
        ("memory", Box::new(InMemoryStream::new(n, want.clone()))),
        ("binary", Box::new(FileEdgeStream::open(&flat).unwrap())),
        ("text", open_edge_stream(&text).unwrap()),
        ("pack", Box::new(PackedEdgeStream::open(&pack).unwrap())),
        (
            "pipelined pack",
            Box::new(PipelinedPackStream::open(&pack, decode_ahead).unwrap()),
        ),
        (
            "remapped",
            Box::new(RemappedStream::remap(RawInMemoryStream::new(raw)).unwrap()),
        ),
    ];
    for (name, mut s) in sources {
        let want = if name == "remapped" {
            &relabeled
        } else {
            &want
        };
        for cap in [0usize, 1, 7, 4096, usize::MAX] {
            for pass in 0..2 {
                let mut seen = Vec::with_capacity(want.len());
                while seen.len() < want.len() {
                    let chunk = s.next_chunk(cap);
                    assert!(!chunk.is_empty(), "{name} cap={cap}: empty before the end");
                    assert!(chunk.len() <= cap.max(1), "{name} cap={cap}: over the cap");
                    seen.extend_from_slice(chunk);
                }
                assert_eq!(&seen, want, "{name} cap={cap} pass={pass}");
                assert!(
                    s.next_chunk(cap).is_empty(),
                    "{name} cap={cap}: past the end"
                );
                s.reset().unwrap();
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
