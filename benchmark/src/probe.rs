//! The layer probe: the `probe` child process.
//!
//! Calls each layer's public functions in isolation on one packed input and
//! times them from outside. Kernels run over an `InMemoryStream` of the
//! canonical edges, so decode cost is excluded from kernel numbers and
//! measured on its own. Prints one flat JSON object, metric name → value.

use crate::json;
use crate::pipeline::{build_replicas, partitioner, staged_clugp};
use crate::spec::{Algo, K};
use clugp::baselines::Greedy;
use clugp::metrics::PartitionQuality;
use clugp::partition_io::{read_placement_dir, write_placement_dir};
use clugp::{Partitioner, Partitioning};
use clugp_graph::idmap::{scramble_edges, RawInMemoryStream, RemappedStream};
use clugp_graph::io::open_edge_stream;
use clugp_graph::pack::{ChecksumPolicy, DecodeOptions, PackedEdgeStream, PipelinedPackStream};
use clugp_graph::stream::{
    chunk_edges, collect_stream, for_each_chunk, EdgeStream, InMemoryStream, RestreamableStream,
};
use clugp_obs::now_us;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of the decode-family probes: `pack.crc_s` is a difference of
/// two of them, so each is a median. Kernels run once — they take seconds.
const DECODE_REPS: usize = 3;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn median_of(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut times = (0..reps).map(|_| f()).collect::<Result<Vec<f64>, _>>()?;
    times.sort_by(f64::total_cmp);
    Ok(times[times.len() / 2])
}

/// Pulls every chunk of `stream` and returns how many edges went by.
fn drain(stream: &mut dyn EdgeStream) -> u64 {
    let mut edges = 0u64;
    for_each_chunk(stream, chunk_edges(), |chunk| {
        edges += black_box(chunk).len() as u64;
    });
    edges
}

fn kernel(
    partitioner: &mut dyn Partitioner,
    stream: &mut InMemoryStream,
) -> Result<(Partitioning, usize, f64), String> {
    let (run, secs) = timed(|| partitioner.partition(stream, K));
    let run = run.map_err(|e| e.to_string())?;
    Ok((run.partitioning, run.memory.total_bytes(), secs))
}

/// Runs every probe on `pack`, using `scratch` for the emitted placement.
pub fn run(pack: &Path, scratch: &Path) -> Result<String, String> {
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let graph_err = |e: clugp_graph::GraphError| e.to_string();

    // graph::pack / graph::io / graph::stream
    metrics.push(("pack.open_s", timed(|| open_edge_stream(pack)).1));
    let mut num_edges = 0u64;
    let decode_s = median_of(DECODE_REPS, || {
        let mut stream = open_edge_stream(pack).map_err(graph_err)?;
        let (edges, secs) = timed(|| drain(stream.as_mut()));
        num_edges = edges;
        Ok(secs)
    })?;
    let decode_nocrc_s = median_of(DECODE_REPS, || {
        let mut stream =
            PackedEdgeStream::open_with(pack, ChecksumPolicy::Off).map_err(graph_err)?;
        Ok(timed(|| drain(&mut stream)).1)
    })?;
    let decode_pipelined_s = median_of(DECODE_REPS, || {
        let options = DecodeOptions {
            threads: 1,
            ..Default::default()
        };
        let mut stream = PipelinedPackStream::open(pack, options).map_err(graph_err)?;
        Ok(timed(|| drain(&mut stream)).1)
    })?;
    metrics.push(("pack.decode_s", decode_s));
    metrics.push(("pack.decode_edges_per_s", num_edges as f64 / decode_s));
    metrics.push(("pack.decode_nocrc_s", decode_nocrc_s));
    metrics.push(("pack.crc_s", decode_s - decode_nocrc_s));
    metrics.push(("pack.decode_pipelined_s", decode_pipelined_s));

    let mut stream = open_edge_stream(pack).map_err(graph_err)?;
    let num_vertices = stream
        .num_vertices_hint()
        .ok_or("pack header has no vertex count")?;
    let (edges, collect_s) = timed(|| collect_stream(stream.as_mut()));
    metrics.push(("io.collect_s", collect_s));
    let mut mem = InMemoryStream::new(num_vertices, edges);
    let mem_drain_s = median_of(DECODE_REPS, || {
        mem.reset().map_err(graph_err)?;
        Ok(timed(|| drain(&mut mem)).1)
    })?;
    metrics.push(("stream.mem_drain_s", mem_drain_s));

    // graph::idmap: interning sparse 64-bit ids, over and above the drain.
    let raw = RawInMemoryStream::new(scramble_edges(mem.edges()));
    let (remapped, remap_s) = timed(|| -> Result<_, String> {
        let mut remapped = RemappedStream::remap(raw).map_err(graph_err)?;
        drain(&mut remapped);
        Ok(remapped)
    });
    let remapped = remapped?;
    let id_map = remapped.id_map();
    metrics.push(("idmap.intern_s", remap_s - mem_drain_s));
    metrics.push((
        "idmap.bytes_per_vertex",
        id_map.memory_bytes() as f64 / id_map.len().max(1) as f64,
    ));
    drop(remapped);

    // core::clugp: stage by stage, then the whole kernel.
    let mut stage_s: Vec<(&'static str, f64)> = Vec::new();
    let staged = staged_clugp(&mut mem, &mut |name, start_us| {
        stage_s.push((name, (now_us() - start_us) as f64 / 1e6));
    })?;
    for ((_, secs), name) in stage_s.iter().zip([
        "clugp.clustering_s",
        "clugp.cluster_graph_s",
        "clugp.game_s",
        "clugp.transform_s",
    ]) {
        metrics.push((name, *secs));
    }
    let (clugp, clugp_state, clugp_s) = kernel(partitioner(Algo::Clugp).as_mut(), &mut mem)?;
    if clugp.assignments != staged.partitioning.assignments {
        return Err("staged CLUGP differs from Clugp::partition".to_string());
    }
    metrics.push(("clugp.kernel_s", clugp_s));
    metrics.push(("clugp.state_bytes", clugp_state as f64));
    metrics.push(("clugp.clusters", staged.clusters as f64));
    metrics.push(("clugp.splits", staged.splits as f64));
    metrics.push(("clugp.migrations", staged.migrations as f64));
    metrics.push((
        "clugp.inter_cluster_edges",
        staged.inter_cluster_edges as f64,
    ));
    metrics.push(("clugp.game_batches", staged.game_batches as f64));
    metrics.push(("clugp.game_rounds_max", staged.game_rounds_max as f64));
    metrics.push(("clugp.game_moves", staged.game_moves as f64));
    metrics.push(("clugp.balance_reroutes", staged.balance_reroutes as f64));

    // core::baselines
    let (_, hdrf_state, hdrf_s) = kernel(partitioner(Algo::Hdrf).as_mut(), &mut mem)?;
    let (_, _, greedy_s) = kernel(&mut Greedy::new(), &mut mem)?;
    let (_, _, dbh_s) = kernel(partitioner(Algo::Dbh).as_mut(), &mut mem)?;
    metrics.push(("hdrf.kernel_s", hdrf_s));
    metrics.push(("greedy.kernel_s", greedy_s));
    metrics.push(("dbh.kernel_s", dbh_s));
    metrics.push(("hdrf.greedy_ratio", hdrf_s / greedy_s));
    metrics.push(("hdrf.state_bytes", hdrf_state as f64));

    // core::metrics / core::state / core::partition_io, on CLUGP's output.
    let (_, quality_s) = timed(|| black_box(PartitionQuality::compute(mem.edges(), &clugp)));
    metrics.push(("quality.compute_s", quality_s));
    let (replicas, build_s) = timed(|| build_replicas(&mut mem, &clugp));
    let replicas = replicas?;
    let placement = scratch.join("probe-placement");
    let (written, write_s) = timed(|| write_placement_dir(&placement, &clugp, &replicas));
    written.map_err(|e| e.to_string())?;
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(&placement).map_err(|e| e.to_string())? {
        bytes += entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
    }
    let (read_back, read_s) = timed(|| read_placement_dir(&placement));
    read_back.map_err(|e| e.to_string())?;
    metrics.push(("emit.replica_build_s", build_s));
    metrics.push(("emit.write_s", write_s));
    metrics.push(("emit.bytes", bytes as f64));
    metrics.push(("emit.read_s", read_s));

    let mut report = clugp_obs::json::Obj::new();
    for (name, value) in metrics {
        report = report.raw(name, &json::num(value));
    }
    Ok(report.finish())
}

/// The `relaxed-pack` child: relaxed mode fed `DistInput::Pack` with two
/// workers. It panics today (README, "known findings"); the parent turns
/// the exit status into `ampc.relaxed_pack_ok`.
pub fn relaxed_pack(pack: &Path) -> Result<(), String> {
    use clugp::ampc::coordinator::DistAlgo;
    use clugp::ampc::{run_distributed, DistInput};
    let out = run_distributed(
        &DistAlgo::Clugp(Default::default()),
        DistInput::Pack(pack),
        K,
        &crate::pipeline::dist_config(2, true, None),
    )
    .map_err(|e| e.to_string())?;
    out.partitioning.validate()
}
