//! Chunking equivalence: every partitioner must produce byte-identical
//! `PartitionRun` assignments whether its stream lends whole chunks or
//! source chunk granularities of 1 (an edge at a time), 7, and 4096 edges —
//! and the empty stream must behave the same everywhere. Every source must
//! in turn deliver one edge sequence whatever the consumer asks for. This is
//! the contract behind "chunk boundaries are not semantic".

use clugp::ampc::coordinator::DistAlgo;
use clugp_graph::pack::canonical_order;
use clugp_graph::stream::{ChunkLimited, InMemoryStream, RestreamableStream};
use clugp_graph::types::Edge;
use clugp_repro::{partition, roster, scratch_dir, test_web_graph, Case, Family, Input, Mode};
use std::collections::BTreeSet;

/// Arbitrary source chunk granularities; 1 is an edge per pull.
const LIMITS: [usize; 3] = [1, 7, 4096];

/// `case` as the monolith over its source capped at each of `LIMITS`.
fn check_limits(case: &Case) {
    for chunk_limit in LIMITS {
        let mode = Mode::Monolith { chunk_limit };
        Case {
            mode,
            ..case.clone()
        }
        .check()
        .unwrap();
    }
}

#[test]
fn per_edge_and_chunked_paths_are_bit_identical() {
    let (_, edges) = test_web_graph(2_000, 31);
    for (name, algo) in roster() {
        let case = Case::new(algo, 2_000, 31);
        assert_eq!(
            case.reference().0.len(),
            edges.len(),
            "{name}: wrong edge count"
        );
        check_limits(&case);
    }
}

#[test]
fn empty_stream_is_identical_on_every_path() {
    for (name, algo) in roster() {
        let case = Case {
            family: Family::Empty,
            k: 4,
            ..Case::new(algo, 0, 0)
        };
        let (assignments, loads, _) = case.reference();
        assert!(
            assignments.is_empty(),
            "{name}: empty stream assigned edges"
        );
        assert_eq!(loads, vec![0; 4], "{name}: empty stream has load");
        check_limits(&case);
    }
}

#[test]
fn mint_batch_boundaries_survive_any_chunking() {
    // Mint is the one consumer whose *semantics* depend on how many edges it
    // groups per batch: if chunk granularity leaked into batch boundaries,
    // equilibria would change. The graph holds more than one wave of 8
    // batches of 6400 edges, and both boundaries (6400 and 51 200 edges)
    // fall inside a pull of 7 and of 4096 edges.
    let case = Case {
        k: 4,
        ..Case::new(DistAlgo::mint(), 5_000, 32)
    };
    assert!(case.edges().1.len() > 8 * 6400, "less than a wave");
    check_limits(&case);
}

#[test]
fn packed_input_partitions_bit_identical_to_flat_binary() {
    // The storage contract of the CLUGPZ pack: for the same logical edge
    // sequence (a pack stores the canonical (src, dst) order), every
    // partitioner must produce byte-identical partitions whether it streams
    // the flat binary file or decodes the compressed pack, at any source
    // chunk granularity. The pack is written from the original order, so
    // the writer's external sort must land on the same canonical sequence;
    // a small block size keeps many block boundaries in play.
    let (n, edges) = test_web_graph(1_500, 36);
    let flat_path = scratch_dir("packed_equiv").join("equiv.bin");
    Input::Binary.write(&flat_path, n, &canonical_order(&edges));
    for (name, algo) in roster() {
        let packed = Case {
            input: Input::Pack {
                block_bytes: 2048,
                prefetch: 0,
            },
            ..Case::new(algo.clone(), 1_500, 36)
        };
        let reference = packed.reference();
        assert_eq!(reference.0.len(), edges.len(), "{name}: wrong edge count");
        let mut flat = Input::Binary.open(&flat_path, n, &[]);
        assert_eq!(
            partition(&algo, flat.as_mut(), 8),
            reference,
            "{name}: flat binary diverged from the monolith"
        );
        packed.check().unwrap();
        check_limits(&packed);
    }
    std::fs::remove_file(&flat_path).ok();
}

#[test]
fn file_backed_stream_matches_in_memory_chunked() {
    let case = Case {
        input: Input::Binary,
        ..Case::new(DistAlgo::clugp(), 1_200, 33)
    };
    case.check().unwrap();
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
    for (name, algo) in roster() {
        let mut dense = InMemoryStream::new(distinct, relabeled.clone());
        let reference = partition(&algo, &mut dense, 8);
        let mut sparse = remap();
        assert_eq!(
            partition(&algo, &mut sparse, 8),
            reference,
            "{name}: remapped sparse stream diverged from dense relabeling"
        );
        for limit in LIMITS {
            let mut limited = ChunkLimited::new(remap(), limit);
            assert_eq!(
                partition(&algo, &mut limited, 8),
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
    use clugp_graph::pack::DecodeOptions;
    use clugp_graph::types::RawEdge;
    let (n, edges) = test_web_graph(1_000, 37);
    // A pack stores the canonical order, so every source gets that one.
    let want = canonical_order(&edges);
    let dir = scratch_dir("source_table");
    let pack = |prefetch| Input::Pack {
        block_bytes: 2048,
        prefetch,
    };
    let inputs = [
        Input::Memory,
        Input::Binary,
        Input::Text,
        pack(0),
        pack(DecodeOptions::default().prefetch),
    ];
    let mut sources: Vec<(String, Box<dyn RestreamableStream>)> = (0..)
        .zip(inputs)
        .map(|(i, input)| {
            let path = dir.join(format!("g{i}"));
            input.write(&path, n, &want);
            (format!("{input:?}"), input.open(&path, n, &want))
        })
        .collect();
    let raw = want.iter().map(|&e| RawEdge::from(e)).collect();
    let remapped = RemappedStream::remap(RawInMemoryStream::new(raw)).unwrap();
    sources.push(("remapped".into(), Box::new(remapped)));
    // The remap layer yields the first-appearance relabeling.
    let mut map = IdMap::remap();
    let relabeled: Vec<Edge> = want
        .iter()
        .map(|e| {
            let mut id = |v: u32| map.intern(v.into()).unwrap();
            Edge::new(id(e.src), id(e.dst))
        })
        .collect();
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

#[test]
fn drawn_cases_match_the_monolith() {
    // One drawn property over the whole matrix: graph family × algorithm ×
    // input format × pack reader and block size × mode and source cap ×
    // fault plan. A failure
    // names the case and the seed it was drawn from; `Case::draw(seed)`
    // replays it. The seeds are fixed, and must reach every axis below.
    let mut hit = BTreeSet::new();
    for seed in 0..40 {
        let case = Case::draw(seed);
        hit.insert(format!("{:?}", case.algo));
        let input = match case.input {
            Input::Pack { prefetch: 0, .. } => "pack read serially".to_string(),
            Input::Pack { .. } => "pack read ahead".to_string(),
            input => format!("{input:?}"),
        };
        if case.faults.is_some() {
            hit.insert(format!("faulted {}", &input[..4]));
        }
        hit.insert(input);
        match case.mode {
            Mode::Monolith { .. } => hit.insert("monolith".to_string()),
            Mode::Sequenced { workers } => hit.insert(format!("{workers} workers")),
        };
        // `check` asserts; what it returns is a sequenced run's outcome or
        // a faulted run's typed error.
        let _ = case.check();
    }
    let mut want: Vec<String> = roster()
        .into_iter()
        .map(|(_, algo)| format!("{algo:?}"))
        .collect();
    want.extend(
        [
            "Memory",
            "Text",
            "Binary",
            "pack read serially",
            "pack read ahead",
            "monolith",
            "1 workers",
            "2 workers",
            "4 workers",
            "faulted pack",
            "faulted Memo",
        ]
        .map(String::from),
    );
    let missed: Vec<_> = want.iter().filter(|w| !hit.contains(*w)).collect();
    assert!(missed.is_empty(), "no seed drew {missed:?}");
}
