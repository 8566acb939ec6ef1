//! `clugp-part` — command-line vertex-cut partitioning.
//!
//! ```text
//! clugp-part <edges-file> --k <K> [options]
//!
//! <edges-file>      text edge list ("src dst" per line, # comments), the
//!                   flat binary format (CLUGPGR1), or a compressed pack
//!                   (CLUGPZ01, written by clugp-pack) — detected by magic
//!                   bytes, never by extension
//! --k <K>           number of partitions (required, at most 2^20)
//! --algo <name>     clugp (default) | hdrf | greedy | hashing | dbh | mint
//! --order <name>    bfs | dfs | random | asis (default: the algorithm's own —
//!                   random for hdrf, greedy, hashing and dbh, bfs for clugp
//!                   and mint). `asis` is the order the input's graph is
//!                   stored in: a pack's own (canonical `(src, dst)`) order,
//!                   and CSR order — a stable sort of the file's edges by
//!                   source — for text and flat binary
//! --tau <float>     CLUGP imbalance factor (default 1.0)
//! --threads <N>     CLUGP/Mint worker threads (default: all cores)
//! --sparse          treat the input as a text edge list with arbitrary
//!                   (sparse) 64-bit vertex ids — hashed URLs, crawl ids —
//!                   remapped onto the dense internal space during the
//!                   first pass; the output TSV is translated back to the
//!                   external ids (a placement directory holds the internal
//!                   ones). Streams in file order.
//! --output <file>   write per-edge assignment as "src dst partition" TSV
//! --workers <N>     CLUGP only: shard the run across N workers through the
//!                   coordinator/worker engine (default 1; results are
//!                   bit-identical at any worker count). Any other --algo
//!                   with --workers > 1 or --transport unix exits 2: the
//!                   baselines run as their monoliths
//! --transport <t>   channel (default: in-process worker threads) | unix
//!                   (spawn N worker *processes* talking length-prefixed
//!                   frames over Unix sockets)
//! --socket-dir <d>  where unix-transport sockets live (default: a fresh
//!                   temp directory); stale *.sock files there are removed
//!                   at startup
//! --ampc-mode <m>   sequenced (default: the streaming token makes results
//!                   bit-identical to the monolith) | relaxed (pass 1
//!                   clusters every worker's range at once and the
//!                   transform caps each worker at a slice of the load cap;
//!                   deterministic for a fixed worker count, but quality
//!                   drifts from the monolith)
//! --worker-timeout <secs>
//!                   distributed runs: max silence from a worker before its
//!                   link is declared dead (default 30; 0 disables the
//!                   deadline)
//! --max-retries <N> distributed runs: pass replays from the last barrier
//!                   checkpoint before the run fails (default 2; 0 turns
//!                   supervision off)
//! --checkpoint-dir <dir>
//!                   distributed runs: persist barrier checkpoints
//!                   (CLUGPCK1 files) here; without it checkpoints stay in
//!                   memory for crash recovery only
//! --resume          distributed runs: skip passes already covered by the
//!                   newest valid checkpoint in --checkpoint-dir
//! --trace-out <file>
//!                   distributed runs: record pass/chunk/barrier spans on
//!                   the coordinator and every worker and write a Chrome
//!                   trace-event JSON (loads in Perfetto or
//!                   chrome://tracing; one lane per process). Tracing never
//!                   changes the partition — the emitted assignment stays
//!                   byte-identical to an untraced run
//! --trace-summary   distributed runs: print a per-lane span/counter table
//!                   on stderr after the run
//! --metrics-out <file>
//!                   distributed runs: write the structured metrics
//!                   snapshot (pass wall-clock, bytes per verb,
//!                   checkpoint durations, retries) as JSON
//! --net-stats       distributed runs: print the per-verb frame/byte
//!                   breakdown on stderr
//! --emit-placement <dir>
//!                   write a placement directory (assignment snapshot +
//!                   replica table) consumable by the engine crate
//! ```
//!
//! Every run is one sequence — open the input as a stream, partition it,
//! replay it once for the replica table, report — and what it holds follows
//! from what it was asked, never from a flag. A pack in `asis` order is
//! streamed from the file on every pass (sequenced `--workers` open their
//! own block ranges of it) and `--sparse` streams the text file through its
//! id map: O(|V|) tables plus 4 B/edge of assignment stay resident. Every
//! other run holds the ordered edges, and says so on stderr: `bfs|dfs|random`
//! are computed over the whole graph, `asis` of a text or binary file is a
//! sort, and relaxed workers split by edge count where a pack splits by
//! block. A pack decodes ahead on one more thread wherever the process may
//! use a second CPU (`--workers` read their ranges serially), and every
//! read checks every CRC; no flag changes either. stderr ends with
//! `peak rss = N MiB` (Linux).

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::proto::{Msg, Stage};
use clugp::ampc::{
    run_coordinator, run_distributed, run_worker, AmpcMode, DistConfig, DistInput, NetStats,
    SuperviseConfig, Transport, UnixTransport,
};
use clugp::error::{FaultKind, PartitionError};
use clugp::metrics::{replay_replicas, PartitionQuality};
use clugp::obs;
use clugp::partition::MAX_PARTITIONS;
use clugp::partition_io::write_placement_dir;
use clugp_graph::csr::CsrGraph;
use clugp_graph::idmap::RemappedStream;
use clugp_graph::io::{
    open_edge_stream, open_sparse_edge_stream, sniff_format, GraphFileFormat, RawTextEdgeStream,
};
use clugp_graph::order::{ordered_edges, StreamOrder, RANDOM_ORDER_SEED};
use clugp_graph::stream::{
    chunk_edges, collect_stream, EdgeStream, InMemoryStream, RestreamableStream,
};
use clugp_graph::types::Edge;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Options {
    input: String,
    k: u32,
    algo: String,
    order: String,
    tau: f64,
    threads: usize,
    sparse: bool,
    output: Option<String>,
    workers: u32,
    transport: String,
    ampc_mode: AmpcMode,
    socket_dir: Option<String>,
    worker_timeout: Option<Duration>,
    max_retries: Option<u32>,
    checkpoint_dir: Option<String>,
    resume: bool,
    trace_out: Option<String>,
    trace_summary: bool,
    metrics_out: Option<String>,
    net_stats: bool,
    emit_placement: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            input: String::new(),
            k: 0,
            algo: "clugp".into(),
            order: "bfs".into(),
            tau: 1.0,
            threads: 0,
            sparse: false,
            output: None,
            workers: 1,
            transport: "channel".into(),
            ampc_mode: AmpcMode::Sequenced,
            socket_dir: None,
            worker_timeout: None,
            max_retries: None,
            checkpoint_dir: None,
            resume: false,
            trace_out: None,
            trace_summary: false,
            metrics_out: None,
            net_stats: false,
            emit_placement: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter().peekable();
    let mut positional = Vec::new();
    let mut order_set = false;
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--k" => opts.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--algo" => opts.algo = value("--algo")?.to_lowercase(),
            "--order" => {
                opts.order = value("--order")?.to_lowercase();
                order_set = true;
            }
            "--tau" => opts.tau = value("--tau")?.parse().map_err(|e| format!("--tau: {e}"))?,
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--sparse" => opts.sparse = true,
            "--output" => opts.output = Some(value("--output")?),
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--transport" => {
                opts.transport = value("--transport")?.to_lowercase();
                if opts.transport != "channel" && opts.transport != "unix" {
                    return Err(format!(
                        "--transport must be channel or unix, got {:?}",
                        opts.transport
                    ));
                }
            }
            "--ampc-mode" => {
                opts.ampc_mode = match value("--ampc-mode")?.to_lowercase().as_str() {
                    "sequenced" => AmpcMode::Sequenced,
                    "relaxed" => AmpcMode::Relaxed,
                    other => {
                        return Err(format!(
                            "--ampc-mode must be sequenced or relaxed, got {other:?}"
                        ))
                    }
                };
            }
            "--socket-dir" => opts.socket_dir = Some(value("--socket-dir")?),
            "--worker-timeout" => {
                let secs: f64 = value("--worker-timeout")?
                    .parse()
                    .map_err(|e| format!("--worker-timeout: {e}"))?;
                let timeout = Duration::try_from_secs_f64(secs).map_err(|e| {
                    format!("--worker-timeout must be a non-negative number of seconds: {e}")
                })?;
                opts.worker_timeout = Some(timeout);
            }
            "--max-retries" => {
                opts.max_retries = Some(
                    value("--max-retries")?
                        .parse()
                        .map_err(|e| format!("--max-retries: {e}"))?,
                )
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--resume" => opts.resume = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-summary" => opts.trace_summary = true,
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--net-stats" => opts.net_stats = true,
            "--emit-placement" => opts.emit_placement = Some(value("--emit-placement")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(a.clone()),
        }
    }
    match positional.as_slice() {
        [input] => opts.input = input.clone(),
        [] => return Err("missing input file".into()),
        _ => return Err("expected exactly one input file".into()),
    }
    if opts.k == 0 || opts.k > MAX_PARTITIONS {
        return Err(format!(
            "--k is required and must be within 1..={MAX_PARTITIONS}"
        ));
    }
    let algo = build_algo(&opts)?;
    if !order_set {
        opts.order = order_name(algo.stream_order()).into();
    }
    parse_order(&opts.order)?;
    if opts.sparse && order_set {
        return Err(
            "--sparse streams in file order (ids are remapped on the fly); \
             --order is not supported with it"
                .into(),
        );
    }
    if opts.sparse && distributed(&opts) {
        return Err("--sparse is not supported with --workers/--transport".into());
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir to load checkpoints from".into());
    }
    let fault_flags = opts.worker_timeout.is_some()
        || opts.max_retries.is_some()
        || opts.checkpoint_dir.is_some()
        || opts.resume;
    if fault_flags && !distributed(&opts) {
        return Err(
            "--worker-timeout/--max-retries/--checkpoint-dir/--resume apply to \
             distributed runs (--workers > 1 or --transport unix)"
                .into(),
        );
    }
    if opts.ampc_mode == AmpcMode::Relaxed {
        if !distributed(&opts) {
            return Err("--ampc-mode applies to distributed runs \
                 (--workers > 1 or --transport unix)"
                .into());
        }
        if !matches!(algo, DistAlgo::Clugp(_)) {
            return Err(format!(
                "relaxed mode runs CLUGP only, not {} (--ampc-mode relaxed \
                 parallelises CLUGP's own passes)",
                opts.algo
            ));
        }
    }
    if distributed(&opts) && !matches!(algo, DistAlgo::Clugp(_)) {
        return Err(format!(
            "the coordinator/worker engine runs CLUGP only, not {} \
             (--workers > 1 or --transport unix); without them it runs as its monolith",
            opts.algo
        ));
    }
    let obs_flags = opts.trace_out.is_some()
        || opts.trace_summary
        || opts.metrics_out.is_some()
        || opts.net_stats;
    if obs_flags && !distributed(&opts) {
        return Err(
            "--trace-out/--trace-summary/--metrics-out/--net-stats apply to \
             distributed runs (--workers > 1 or --transport unix)"
                .into(),
        );
    }
    Ok(opts)
}

/// Translates the CLI fault-tolerance knobs into the engine's
/// [`DistConfig`]. Distributed runs supervise by default (30 s worker
/// timeout, 2 retries); `--worker-timeout 0` / `--max-retries 0` opt out.
fn dist_config(opts: &Options) -> DistConfig {
    DistConfig {
        workers: opts.workers,
        supervise: SuperviseConfig {
            worker_timeout: match opts.worker_timeout {
                Some(timeout) => (!timeout.is_zero()).then_some(timeout),
                None => Some(Duration::from_secs(30)),
            },
            max_retries: opts.max_retries.unwrap_or(2),
            ..Default::default()
        },
        checkpoint_dir: opts.checkpoint_dir.as_ref().map(PathBuf::from),
        resume: opts.resume,
        mode: opts.ampc_mode,
        // --net-stats reads NetStats, which every run collects anyway; only
        // the exporters that need the event record turn recording on.
        trace: opts.trace_out.is_some() || opts.trace_summary || opts.metrics_out.is_some(),
        ..Default::default()
    }
}

/// Whether the run goes through the coordinator/worker engine.
fn distributed(opts: &Options) -> bool {
    opts.workers > 1 || opts.transport == "unix"
}

/// The algorithm `--algo` names, with the CLI's knobs applied. The
/// single-process path runs its [`DistAlgo::monolith`], so either path
/// produces the same partitions.
fn build_algo(opts: &Options) -> Result<DistAlgo, String> {
    let mut algo = DistAlgo::by_name(&opts.algo)
        .ok_or_else(|| format!("unknown algorithm {:?}", opts.algo))?;
    match &mut algo {
        DistAlgo::Clugp(cfg) => {
            cfg.tau = opts.tau;
            cfg.threads = opts.threads;
        }
        DistAlgo::Mint { threads } => *threads = opts.threads,
        _ => {}
    }
    Ok(algo)
}

/// `--order`'s names for the orders it streams in.
const ORDERS: [(&str, StreamOrder); 4] = [
    ("bfs", StreamOrder::Bfs),
    ("dfs", StreamOrder::Dfs),
    ("random", StreamOrder::Random(RANDOM_ORDER_SEED)),
    ("asis", StreamOrder::AsIs),
];

fn parse_order(name: &str) -> Result<StreamOrder, String> {
    ORDERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, order)| order)
        .ok_or_else(|| format!("unknown order {name:?}"))
}

/// The `--order` name of an algorithm's own order.
fn order_name(order: StreamOrder) -> &'static str {
    ORDERS
        .iter()
        .find(|(_, o)| *o == order)
        .map(|&(name, _)| name)
        .expect("every algorithm's own order has an --order name")
}

/// The opened input: the one stream partition, replay and TSV pull from.
enum Source {
    /// A pack in its own order, read from the file on every pass.
    Pack(Box<dyn RestreamableStream>),
    /// `--sparse`: the text file in file order, ids ranked by its id map.
    Sparse(Box<RemappedStream<RawTextEdgeStream>>),
    /// The reordered edges, held.
    Mem(InMemoryStream),
}

impl Source {
    fn stream(&mut self) -> &mut dyn RestreamableStream {
        match self {
            Source::Pack(s) => s.as_mut(),
            Source::Sparse(s) => s.as_mut(),
            Source::Mem(s) => s,
        }
    }
}

/// Opens the input as the stream the run partitions (which inputs are one
/// already and which are held, and why: the header). The raw edges and the
/// CSR of a held order are gone before the partitioner starts.
fn open(opts: &Options) -> Result<Source, String> {
    let path = Path::new(&opts.input);
    if opts.sparse {
        let stream = open_sparse_edge_stream(path).map_err(|e| format!("--sparse: {e}"))?;
        eprintln!(
            "loaded {} (sparse ids): |V|={} distinct, id map {:.1} KiB (order: file)",
            opts.input,
            stream.id_map().len(),
            stream.id_map().memory_bytes() as f64 / 1024.0,
        );
        return Ok(Source::Sparse(Box::new(stream)));
    }
    let order = parse_order(&opts.order)?;
    let err = |e: clugp_graph::GraphError| e.to_string();
    // Format is sniffed from the magic bytes, never the extension. A pack
    // reads serial or decoded ahead, as the CPU count picks; both deliver
    // the same chunk sequence, so the partitions cannot differ.
    let packed = sniff_format(path).map_err(err)? == GraphFileFormat::Packed;
    let mut s = open_edge_stream(path).map_err(err)?;
    if packed && order == StreamOrder::AsIs && opts.ampc_mode == AmpcMode::Sequenced {
        eprintln!(
            "opened {}: streamed from the pack (order: asis)",
            opts.input
        );
        return Ok(Source::Pack(s));
    }
    let n = s
        .num_vertices_hint()
        .ok_or_else(|| format!("{}: no vertex count", opts.input))?;
    let raw_edges = collect_stream(s.as_mut());
    s.reset().map_err(err)?; // surface parked read errors
    drop(s);
    let graph = CsrGraph::from_edges(n, &raw_edges).map_err(err)?;
    drop(raw_edges);
    let edges = ordered_edges(&graph, order);
    drop(graph);
    eprintln!(
        "loaded {}: |V|={n} |E|={} (order: {}, held in memory)",
        opts.input,
        edges.len(),
        opts.order
    );
    Ok(Source::Mem(InMemoryStream::new(n, edges)))
}

/// `VmHWM` of this process in MiB; `None` where `/proc` does not say.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kib.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()? / 1024.0)
}

fn run(opts: &Options) -> Result<(), String> {
    let err = |e: PartitionError| e.to_string();
    let algo = build_algo(opts)?;
    let mut source = open(opts)?;

    let (partitioning, time, engine_lines) = if distributed(opts) {
        let input = match &source {
            Source::Pack(_) => DistInput::Pack(Path::new(&opts.input)),
            Source::Mem(mem) => DistInput::Edges {
                num_vertices: mem.num_vertices_hint().unwrap_or(0),
                edges: mem.edges(),
            },
            Source::Sparse(_) => unreachable!("parse_args rejects --sparse with workers"),
        };
        let cfg = dist_config(opts);
        let start = Instant::now();
        let out = if opts.transport == "unix" {
            run_multiprocess(&algo, input, opts, &cfg)?
        } else {
            run_distributed(&algo, input, opts.k, &cfg).map_err(err)?
        };
        let time = start.elapsed();
        report_observability(opts, &out, time)?;
        let lines = format!(
            "workers            = {} ({})\n\
             ampc mode          = {}\n\
             recoveries         = {}\n\
             bytes exchanged    = {} ({} frames)\n",
            out.workers,
            opts.transport,
            opts.ampc_mode.name(),
            out.recoveries,
            out.net.bytes_sent,
            out.net.frames_sent
        );
        (out.partitioning, time, lines)
    } else {
        let run = algo
            .monolith()
            .partition(source.stream(), opts.k)
            .map_err(err)?;
        let lines = format!("working memory     = {}\n", run.memory);
        (run.partitioning, run.timings.total, lines)
    };

    // One replay of the stream gives the one replica table that quality,
    // the placement directory and the mirrors line are all read from.
    let replicas = replay_replicas(source.stream(), &partitioning).map_err(err)?;
    let quality = PartitionQuality::of(&replicas, &partitioning);
    println!("algorithm          = {}", algo.name());
    println!("k                  = {}", opts.k);
    if let Source::Sparse(s) = &source {
        println!("distinct vertices  = {}", s.id_map().len());
    }
    println!("replication factor = {:.4}", quality.replication_factor);
    println!("relative balance   = {:.4}", quality.relative_balance);
    println!("mirrors            = {}", quality.mirrors);
    println!("partition time     = {time:?}");
    print!("{engine_lines}");
    let m = partitioning.num_edges();
    if opts.k > 1 && m > 0 && quality.loads.iter().max() == Some(&m) {
        let order = if opts.sparse { "file" } else { &opts.order };
        eprintln!(
            "warning: {} put all {m} edges on one of {} partitions in {order} order; \
             try --order random",
            algo.name(),
            opts.k
        );
    }

    if let Some(dir) = &opts.emit_placement {
        write_placement_dir(Path::new(dir), &partitioning, &replicas).map_err(err)?;
        let ids = if opts.sparse { " (internal ids)" } else { "" };
        eprintln!("placement written to {dir}{ids}");
    }
    if let Some(out) = &opts.output {
        let mut w =
            std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?);
        let mut parts = partitioning.assignments.iter();
        // The chunk is copied out of the stream so that a sparse run can
        // read the id map the stream owns while it writes.
        let mut chunk: Vec<Edge> = Vec::new();
        source.stream().reset().map_err(|e| e.to_string())?;
        loop {
            chunk.clear();
            chunk.extend_from_slice(source.stream().next_chunk(chunk_edges()));
            if chunk.is_empty() {
                break;
            }
            let ids = match &source {
                Source::Sparse(s) => Some(s.id_map()),
                _ => None,
            };
            // Back to the input's own ids.
            let ext = |v: u32| ids.map_or(u64::from(v), |map| map.external_of(v));
            for (e, p) in chunk.iter().zip(parts.by_ref()) {
                writeln!(w, "{}\t{}\t{}", ext(e.src), ext(e.dst), p).map_err(|e| e.to_string())?;
            }
        }
        // A source that failed mid-pass ended early and parked the error.
        source.stream().reset().map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        let ids = if opts.sparse { " (external ids)" } else { "" };
        eprintln!("assignment written to {out}{ids}");
    }
    if let Some(mib) = peak_rss_mib() {
        eprintln!("peak rss = {mib:.1} MiB");
    }
    Ok(())
}

/// Emits the post-run observability artifacts the CLI flags asked for:
/// the per-verb traffic table, the metrics snapshot, the Chrome trace, and
/// the human span summary. All of them are derived from [`clugp::ampc::DistOutcome`]
/// after the partition is already fixed, so none can perturb the result.
fn report_observability(
    opts: &Options,
    out: &clugp::ampc::DistOutcome,
    wall: Duration,
) -> Result<(), String> {
    if opts.net_stats {
        eprint!("{}", net_stats_table(&out.net));
    }
    if opts.metrics_out.is_none() && opts.trace_out.is_none() && !opts.trace_summary {
        return Ok(());
    }
    let metrics = metrics_json(out, wall);
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, &metrics).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = &opts.trace_out {
        let json = obs::export::chrome_trace(&out.trace, out.workers, Some(&metrics));
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    if opts.trace_summary {
        eprint!("{}", obs::export::summary_table(&out.trace));
    }
    Ok(())
}

/// `--net-stats`: one row per wire verb that carried traffic, sent and
/// received combined across every coordinator↔worker link.
fn net_stats_table(net: &clugp::ampc::NetStats) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{:<14} {:>10} {:>14}", "verb", "frames", "bytes");
    for (tag, tally) in net.by_verb.iter().enumerate() {
        if tally.frames == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "{:<14} {:>10} {:>14}",
            Msg::verb_name(tag),
            tally.frames,
            tally.bytes
        );
    }
    let _ = writeln!(
        s,
        "{:<14} {:>10} {:>14}",
        "total",
        net.frames_sent + net.frames_received,
        net.bytes_sent + net.bytes_received
    );
    s
}

/// The structured metrics snapshot (`--metrics-out`, and embedded in the
/// Chrome trace under the top-level `clugpMetrics` key).
fn metrics_json(out: &clugp::ampc::DistOutcome, wall: Duration) -> String {
    let rec = &out.trace;
    let passes = obs::json::Obj::new()
        .u64("pass1Us", rec.span_total_us("pass:pass1"))
        .u64("pairsUs", rec.span_total_us("pass:pairs"))
        .u64("transformUs", rec.span_total_us("pass:transform"))
        .finish();
    let mut verbs = obs::json::Obj::new();
    for (tag, tally) in out.net.by_verb.iter().enumerate() {
        if tally.frames == 0 {
            continue;
        }
        let entry = obs::json::Obj::new()
            .u64("frames", tally.frames)
            .u64("bytes", tally.bytes)
            .finish();
        verbs = verbs.raw(Msg::verb_name(tag), &entry);
    }
    let checkpoints = obs::json::Obj::new()
        .u64("writes", out.ckpt_writes)
        .u64("writeUs", out.ckpt_write_us)
        .u64("restores", out.ckpt_restores)
        .u64("restoreUs", out.ckpt_restore_us)
        .finish();
    obs::json::Obj::new()
        .u64("wallUs", wall.as_micros() as u64)
        .u64("workers", u64::from(out.workers))
        .raw("passes", &passes)
        .raw("bytesByVerb", &verbs.finish())
        .raw("checkpoints", &checkpoints)
        .u64("retries", u64::from(out.recoveries))
        .u64("respawns", rec.count("respawn") as u64)
        .u64("droppedEvents", rec.dropped)
        .finish()
}

/// The worker-process fleet for multi-process mode: spawns `--workers`
/// copies of this binary, slots their connections by `Hello{index}`, and
/// — through the coordinator's respawner hook — replaces workers that die
/// mid-run. `Drop` reaps every child it still owns, so no exit path (help
/// text, errors, panics) leaves zombies behind.
struct WorkerFleet {
    exe: PathBuf,
    sock: PathBuf,
    listener: std::os::unix::net::UnixListener,
    children: Vec<Option<std::process::Child>>,
    /// `CLUGP_AMPC_KILL_AT="<worker>:<frames>"` — arm worker `<worker>`
    /// (first incarnation only) to die abruptly after receiving
    /// `<frames>` frames. A deterministic crash injection for tests.
    kill_at: Option<(u32, u64)>,
    /// Bound on waiting for a worker to connect and say Hello.
    accept_timeout: Duration,
}

impl WorkerFleet {
    fn new(opts: &Options, dir: &Path, accept_timeout: Duration) -> Result<WorkerFleet, String> {
        // Remove stale sockets from earlier runs that died without
        // cleanup; anything still present in our socket dir is dead weight
        // (we are about to bind the only live one).
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|x| x == "sock") {
                    std::fs::remove_file(entry.path()).ok();
                }
            }
        }
        let sock = dir.join("coordinator.sock");
        let listener = std::os::unix::net::UnixListener::bind(&sock)
            .map_err(|e| format!("{}: {e}", sock.display()))?;
        // Non-blocking accept: the wait loop polls children, so a worker
        // that dies before saying Hello is reported, not waited on forever.
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        // Test hook: substitute the worker executable.
        let exe = match std::env::var_os("CLUGP_AMPC_WORKER_EXE") {
            Some(p) => PathBuf::from(p),
            None => std::env::current_exe().map_err(|e| e.to_string())?,
        };
        let kill_at = std::env::var("CLUGP_AMPC_KILL_AT").ok().and_then(|s| {
            let (w, n) = s.split_once(':')?;
            Some((w.parse().ok()?, n.parse().ok()?))
        });
        Ok(WorkerFleet {
            exe,
            sock,
            listener,
            children: (0..opts.workers).map(|_| None).collect(),
            kill_at,
            accept_timeout,
        })
    }

    fn spawn(&mut self, i: u32, arm_kill: bool) -> Result<(), String> {
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.arg("--ampc-worker")
            .arg(&self.sock)
            .arg("--ampc-index")
            .arg(i.to_string());
        if arm_kill {
            if let Some((w, frames)) = self.kill_at {
                if w == i {
                    cmd.arg("--ampc-kill-at").arg(frames.to_string());
                }
            }
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning worker {i} ({}): {e}", self.exe.display()))?;
        self.children[i as usize] = Some(child);
        Ok(())
    }

    /// Accepts one worker connection and reads its `Hello`, polling child
    /// liveness meanwhile: a worker that exits before connecting fails the
    /// accept immediately, naming the worker and its exit status. `only`
    /// restricts the liveness poll to that child — during a respawn, the
    /// *other* workers may legitimately be dead already (that is what the
    /// recovery is recovering from) and are the supervisor's business, not
    /// this accept's.
    fn accept_one(&mut self, only: Option<u32>) -> Result<(u32, Box<dyn Transport>), String> {
        let deadline = Instant::now() + self.accept_timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                    let mut t = UnixTransport::new(stream);
                    t.set_deadline(Some(self.accept_timeout));
                    let hello = t
                        .recv()
                        .and_then(Msg::decode)
                        .map_err(|e| format!("worker hello: {e}"))?;
                    // The supervisor owns deadlines from here on.
                    t.set_deadline(None);
                    return match hello {
                        Msg::Hello { worker } if (worker as usize) < self.children.len() => {
                            Ok((worker, Box::new(t)))
                        }
                        other => Err(format!("expected Hello, got {}", other.kind())),
                    };
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let watched: Vec<usize> = match only {
                        Some(i) => vec![i as usize],
                        None => (0..self.children.len()).collect(),
                    };
                    for i in watched {
                        let Some(child) = self.children[i].as_mut() else {
                            continue;
                        };
                        if let Ok(Some(status)) = child.try_wait() {
                            self.children[i] = None;
                            return Err(format!("worker {i} exited before connecting: {status}"));
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "timed out after {:?} waiting for a worker to connect",
                            self.accept_timeout
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
    }

    /// Replaces worker `i`: reap whatever is left of the old process,
    /// spawn a fresh one (never re-armed with the kill knob), and wait for
    /// it to connect.
    fn respawn(&mut self, i: u32) -> Result<Box<dyn Transport>, String> {
        if let Some(mut child) = self.children[i as usize].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.spawn(i, false)?;
        let (who, conn) = self.accept_one(Some(i))?;
        if who != i {
            return Err(format!(
                "expected worker {i} to reconnect, got worker {who}"
            ));
        }
        Ok(conn)
    }

    /// Post-run reaping: lets workers that were sent `Shutdown` exit on
    /// their own (briefly), then hard-kills stragglers. Reports surprise
    /// exit codes when the run itself succeeded.
    fn reap(&mut self, run_ok: bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut alive = false;
            for i in 0..self.children.len() {
                let Some(child) = self.children[i].as_mut() else {
                    continue;
                };
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() && run_ok {
                            eprintln!("warning: worker {i} exited with {status}");
                        }
                        self.children[i] = None;
                    }
                    Ok(None) => alive = true,
                    Err(e) => {
                        eprintln!("warning: waiting for worker {i}: {e}");
                        self.children[i] = None;
                    }
                }
            }
            if !alive || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop handles anything that ignored Shutdown.
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        for slot in &mut self.children {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        std::fs::remove_file(&self.sock).ok();
    }
}

/// Multi-process mode: spawns `--workers` copies of this binary as worker
/// processes, each connected over a Unix socket with the same
/// length-prefixed framing the in-process unix transport uses. The fleet
/// doubles as the coordinator's respawner, so a worker killed mid-run is
/// replaced by a fresh process and the pass replays from the last barrier
/// checkpoint.
fn run_multiprocess(
    algo: &DistAlgo,
    input: DistInput<'_>,
    opts: &Options,
    cfg: &DistConfig,
) -> Result<clugp::ampc::DistOutcome, String> {
    let own_dir = opts.socket_dir.is_none();
    let dir: PathBuf = match &opts.socket_dir {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("clugp-ampc-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut fleet = WorkerFleet::new(opts, &dir, cfg.supervise.effective_timeout())?;
    for i in 0..opts.workers {
        fleet.spawn(i, true)?;
    }
    // Workers identify themselves with Hello{index}; accept order is
    // arbitrary, the index is what assigns the slot.
    let mut conns: Vec<Option<Box<dyn Transport>>> = (0..opts.workers).map(|_| None).collect();
    for _ in 0..opts.workers {
        let (worker, conn) = fleet.accept_one(None)?;
        if conns[worker as usize].is_some() {
            return Err(format!("worker {worker} connected twice"));
        }
        conns[worker as usize] = Some(conn);
    }
    let conns: Vec<Box<dyn Transport>> = conns.into_iter().map(|c| c.unwrap()).collect();
    let mut respawn = |i: u32| {
        fleet
            .respawn(i)
            .map_err(|e| PartitionError::fault(FaultKind::Disconnected, e))
    };
    let result = run_coordinator(conns, algo, input, opts.k, cfg, Some(&mut respawn))
        .map_err(|e| e.to_string());
    fleet.reap(result.is_ok());
    drop(fleet);
    if own_dir {
        std::fs::remove_dir(&dir).ok();
    }
    result
}

/// Deterministic crash injection for the worker side: forwards frames
/// until `remaining` inbound frames have been consumed, then dies as
/// abruptly as SIGKILL would — no unwinding, no `Err` frame, the
/// coordinator sees only a dead link. Frame ordinals are deterministic,
/// so the crash lands at the same protocol point every run — and the last
/// line on stderr says which point that was, so a fixture can assert it
/// instead of trusting an ordinal.
struct KillAtTransport {
    inner: UnixTransport,
    remaining: u64,
    /// The `RunStage` this worker has not answered with `StageDone` yet.
    holding: Option<Stage>,
}

impl Transport for KillAtTransport {
    fn send(&mut self, frame: Vec<u8>) -> clugp::error::Result<()> {
        if Msg::verb_name(NetStats::verb_slot(&frame)) == "StageDone" {
            self.holding = None;
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> clugp::error::Result<Vec<u8>> {
        let frame = self.inner.recv()?;
        if Msg::verb_name(NetStats::verb_slot(&frame)) == "RunStage" {
            if let Ok(Msg::RunStage { stage, .. }) = Msg::decode(frame.clone()) {
                self.holding = Some(stage);
            }
        }
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            match self.holding {
                Some(stage) => eprintln!("kill switch fired: holding the token of {stage:?}"),
                None => eprintln!("kill switch fired: not holding a token"),
            }
            std::process::abort();
        }
        Ok(frame)
    }

    fn set_deadline(&mut self, timeout: Option<Duration>) {
        self.inner.set_deadline(timeout);
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
}

/// Hidden child mode: connect to the coordinator socket, introduce
/// ourselves, and serve stages until `Shutdown`.
fn run_ampc_worker(socket: &str, index: u32, kill_at: Option<u64>) -> Result<(), String> {
    let stream =
        std::os::unix::net::UnixStream::connect(socket).map_err(|e| format!("{socket}: {e}"))?;
    let mut t = UnixTransport::new(stream);
    t.send(Msg::Hello { worker: index }.encode())
        .map_err(|e| e.to_string())?;
    match kill_at {
        Some(frames) => run_worker(Box::new(KillAtTransport {
            inner: t,
            remaining: frames,
            holding: None,
        })),
        None => run_worker(Box::new(t)),
    }
    .map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden worker-process mode (spawned by --transport unix).
    if let Some(at) = args.iter().position(|a| a == "--ampc-worker") {
        let socket = args.get(at + 1).cloned();
        let lookup = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        };
        let index = lookup("--ampc-index").and_then(|v| v.parse::<u32>().ok());
        let kill_at = lookup("--ampc-kill-at").and_then(|v| v.parse::<u64>().ok());
        return match (socket, index) {
            (Some(socket), Some(index)) => match run_ampc_worker(&socket, index, kill_at) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("worker {index}: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("error: --ampc-worker needs a socket path and --ampc-index <i>");
                ExitCode::from(2)
            }
        };
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: clugp-part <edges-file> --k <K> [--algo clugp|hdrf|greedy|hashing|dbh|mint] \
             [--order bfs|dfs|random|asis (default: the algorithm's own)] \
             [--tau F] [--threads N] \
             [--sparse] \
             [--output file] [--workers N (CLUGP only)] [--transport channel|unix] \
             [--socket-dir dir] \
             [--ampc-mode sequenced|relaxed] \
             [--worker-timeout S] [--max-retries N] [--checkpoint-dir dir] [--resume] \
             [--trace-out file] [--trace-summary] [--metrics-out file] [--net-stats] \
             [--emit-placement dir]"
        );
        return ExitCode::from(2);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal_invocation() {
        let o = parse_args(&strs(&["graph.txt", "--k", "8"])).unwrap();
        assert_eq!(o.input, "graph.txt");
        assert_eq!(o.k, 8);
        assert_eq!(o.algo, "clugp");
        assert_eq!(o.order, "bfs");
        // Without --order each algorithm streams in its own order.
        for (algo, order) in [("hdrf", "random"), ("greedy", "random"), ("mint", "bfs")] {
            let o = parse_args(&strs(&["graph.txt", "--k", "8", "--algo", algo])).unwrap();
            assert_eq!(o.order, order, "{algo}");
        }
        let o = parse_args(&strs(&[
            "g.txt", "--k", "8", "--algo", "hdrf", "--order", "bfs",
        ]));
        assert_eq!(o.unwrap().order, "bfs");
    }

    #[test]
    fn parses_all_flags() {
        let o = parse_args(&strs(&[
            "--algo",
            "HDRF",
            "--order",
            "random",
            "--tau",
            "1.05",
            "--threads",
            "4",
            "--output",
            "out.tsv",
            "g.bin",
            "--k",
            "16",
        ]))
        .unwrap();
        assert_eq!(o.algo, "hdrf");
        assert_eq!(o.order, "random");
        assert_eq!(o.tau, 1.05);
        assert_eq!(o.threads, 4);
        assert_eq!(o.output.as_deref(), Some("out.tsv"));
        assert_eq!(o.k, 16);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&strs(&["--k", "8"])).is_err()); // no file
        assert!(parse_args(&strs(&["g.txt"])).is_err()); // no k
        assert!(parse_args(&strs(&["g.txt", "--k", "0"])).is_err());
        // `k` sizes load vectors everywhere downstream: capped at the parse.
        assert!(parse_args(&strs(&["g.txt", "--k", "1048577"])).is_err());
        assert!(parse_args(&strs(&["g.txt", "--k", "1048576"])).is_ok());
        assert!(parse_args(&strs(&["g.txt", "--k", "4", "--bogus"])).is_err());
        assert!(parse_args(&strs(&["a.txt", "b.txt", "--k", "4"])).is_err());
        // Decode is no knob: the CPU count picks the reader, every CRC is
        // checked.
        for flag in ["--decode-threads", "--prefetch", "--checksums"] {
            let err = parse_args(&strs(&["g.txt", "--k", "4", flag, "1"])).unwrap_err();
            assert!(err.contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn algorithm_roster_builds() {
        for algo in ["clugp", "hdrf", "greedy", "hashing", "dbh", "mint"] {
            let opts = Options {
                input: "x".into(),
                k: 4,
                algo: algo.into(),
                ..Options::default()
            };
            let built = build_algo(&opts).unwrap_or_else(|e| panic!("{algo}: {e}"));
            // Its own order is one --order can name.
            assert_eq!(
                parse_order(order_name(built.stream_order())),
                Ok(built.stream_order())
            );
        }
        // A name outside the roster is a usage error.
        for algo in ["metis", "grid"] {
            let err = parse_args(&strs(&["g.txt", "--k", "4", "--algo", algo])).unwrap_err();
            assert!(err.contains("unknown algorithm"), "{err}");
        }
        let err = parse_args(&strs(&["g.txt", "--k", "4", "--order", "sorted"])).unwrap_err();
        assert!(err.contains("unknown order"), "{err}");
    }

    #[test]
    fn order_names() {
        assert!(matches!(parse_order("bfs"), Ok(StreamOrder::Bfs)));
        assert!(matches!(parse_order("dfs"), Ok(StreamOrder::Dfs)));
        assert!(matches!(parse_order("asis"), Ok(StreamOrder::AsIs)));
        assert!(parse_order("sorted").is_err());
    }

    #[test]
    fn end_to_end_on_temp_file() {
        let dir = std::env::temp_dir().join("clugp_part_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let output = dir.join("out.tsv");
        std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n").unwrap();
        let opts = Options {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            order: "asis".into(),
            tau: 1.5,
            threads: 1,
            output: Some(output.to_string_lossy().into_owned()),
            ..Options::default()
        };
        run(&opts).unwrap();
        let written = std::fs::read_to_string(&output).unwrap();
        assert_eq!(written.lines().count(), 4);
        for line in written.lines() {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 3);
            let p: u32 = cols[2].parse().unwrap();
            assert!(p < 2);
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn sparse_mode_round_trips_external_ids() {
        let dir = std::env::temp_dir().join("clugp_part_cli_sparse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let output = dir.join("out.tsv");
        // Hashed-URL-style ids, far outside u32.
        std::fs::write(
            &input,
            "18446744073709551615 9000000000\n9000000000 1099511627776\n1099511627776 18446744073709551615\n",
        )
        .unwrap();
        let opts = Options {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            algo: "hdrf".into(),
            threads: 1,
            sparse: true,
            output: Some(output.to_string_lossy().into_owned()),
            ..Options::default()
        };
        run(&opts).unwrap();
        let written = std::fs::read_to_string(&output).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len(), 3);
        // External ids round-trip into the output, in file order.
        let first: Vec<&str> = lines[0].split('\t').collect();
        assert_eq!(first[0], "18446744073709551615");
        assert_eq!(first[1], "9000000000");
        assert!(first[2].parse::<u32>().unwrap() < 2);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn sparse_mode_emits_a_placement_of_internal_ids() {
        let dir = std::env::temp_dir().join("clugp_part_cli_sparse_placement_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let placement = dir.join("placement");
        std::fs::write(&input, "900 7000000000\n7000000000 55\n55 900\n").unwrap();
        let opts = Options {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            algo: "hdrf".into(),
            threads: 1,
            sparse: true,
            emit_placement: Some(placement.to_string_lossy().into_owned()),
            ..Options::default()
        };
        run(&opts).unwrap();
        let (p, replicas) = clugp::partition_io::read_placement_dir(&placement).unwrap();
        assert_eq!((p.k, p.num_vertices, p.assignments.len()), (2, 3, 3));
        // Internal ids are first-appearance ranks: 900 → 0, 7000000000 → 1, 55 → 2.
        for ((src, dst), &part) in [(0, 1), (1, 2), (2, 0)].into_iter().zip(&p.assignments) {
            for v in [src, dst] {
                assert!(
                    replicas.partitions_of(v).any(|q| q == part),
                    "vertex {v} missing replica on partition {part}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparse_flag_parses_and_rejects_explicit_order() {
        let o = parse_args(&strs(&["g.txt", "--k", "4", "--sparse"])).unwrap();
        assert!(o.sparse);
        // Sparse mode streams in file order; an explicit --order would be
        // silently ignored, so it is a usage error instead.
        let err = parse_args(&strs(&[
            "g.txt", "--k", "4", "--sparse", "--order", "random",
        ]))
        .unwrap_err();
        assert!(err.contains("--order"), "{err}");
    }

    #[test]
    fn chunk_size_flag_parses_and_rejects_zero() {
        // The pull size is the constant `chunk_edges()`: `--chunk-size` is
        // refused as unknown for a valid size, a zero and a non-number alike,
        // while the same invocation without it parses.
        assert_eq!(clugp_graph::stream::chunk_edges(), 4096);
        assert!(parse_args(&strs(&["g.txt", "--k", "4"])).is_ok());
        for value in ["512", "0", "x"] {
            let err = parse_args(&strs(&["g.txt", "--k", "4", "--chunk-size", value])).unwrap_err();
            assert!(err.contains("unknown flag --chunk-size"), "{err}");
        }
    }

    #[test]
    fn decode_pipeline_flags_parse_and_reject_zero() {
        // Decode is no knob: the CPU count picks the reader, every read
        // checks every CRC and every consumer pulls the fixed
        // `chunk_edges()`, so each former decode flag is refused as
        // unknown, a zero or a valid-looking value alike.
        for (flag, value) in [
            ("--decode-threads", "0"),
            ("--decode-threads", "1"),
            ("--prefetch", "0"),
            ("--prefetch", "8"),
            ("--checksums", "full"),
            ("--checksums", "header"),
            ("--chunk-size", "0"),
            ("--chunk-size", "64"),
        ] {
            let err = parse_args(&strs(&["g.txt", "--k", "4", flag, value])).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn packed_input_is_detected_by_magic_and_partitions() {
        use clugp_graph::pack::{write_pack, PackOptions};
        use clugp_graph::types::Edge;
        let dir = std::env::temp_dir().join("clugp_part_cli_packed_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Deliberately misleading extension: detection is magic-based.
        let input = dir.join("in.txt");
        let output = dir.join("out.tsv");
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(1, 2),
            Edge::new(2, 3),
        ];
        write_pack(&input, 4, &edges, &PackOptions::default()).unwrap();
        let opts = Options {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            algo: "hdrf".into(),
            order: "asis".into(),
            threads: 1,
            output: Some(output.to_string_lossy().into_owned()),
            ..Options::default()
        };
        run(&opts).unwrap();
        let written = std::fs::read_to_string(&output).unwrap();
        assert_eq!(written.lines().count(), 4);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn sparse_mode_rejects_packed_input() {
        use clugp_graph::pack::{write_pack, PackOptions};
        use clugp_graph::types::Edge;
        let dir = std::env::temp_dir().join("clugp_part_cli_sparse_packed");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.clugpz");
        write_pack(&input, 2, &[Edge::new(0, 1)], &PackOptions::default()).unwrap();
        let opts = Options {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            algo: "hdrf".into(),
            threads: 1,
            sparse: true,
            ..Options::default()
        };
        let err = run(&opts).unwrap_err();
        assert!(err.contains("--sparse"), "{err}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn distributed_flags_parse_and_validate() {
        let o = parse_args(&strs(&["g.txt", "--k", "4", "--workers", "3"])).unwrap();
        assert_eq!(o.workers, 3);
        assert!(distributed(&o));
        let o = parse_args(&strs(&["g.txt", "--k", "4", "--transport", "unix"])).unwrap();
        assert_eq!(o.transport, "unix");
        assert!(distributed(&o)); // unix always goes multi-process
        let o = parse_args(&strs(&["g.txt", "--k", "4"])).unwrap();
        assert!(!distributed(&o));

        let err = parse_args(&strs(&["g.txt", "--k", "4", "--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse_args(&strs(&["g.txt", "--k", "4", "--transport", "tcp"])).unwrap_err();
        assert!(err.contains("--transport"), "{err}");
        let err =
            parse_args(&strs(&["g.txt", "--k", "4", "--sparse", "--workers", "2"])).unwrap_err();
        assert!(err.contains("--sparse"), "{err}");

        // The engine runs CLUGP only: a baseline asking for it is a usage
        // error (exit 2) before anything is spawned, and a baseline at one
        // in-process worker still runs its monolith.
        for extra in [["--workers", "2"], ["--transport", "unix"]] {
            for algo in ["hdrf", "dbh", "greedy", "hashing", "mint"] {
                let args = [&["g.txt", "--k", "4", "--algo", algo][..], &extra].concat();
                let err = parse_args(&strs(&args)).unwrap_err();
                assert!(
                    err.contains(&format!("engine runs CLUGP only, not {algo}")),
                    "{extra:?} {algo}: {err}"
                );
            }
        }
        let o = parse_args(&strs(&[
            "g.txt",
            "--k",
            "4",
            "--algo",
            "hdrf",
            "--workers",
            "1",
        ]));
        assert!(!distributed(&o.unwrap()));

        // --worker-timeout is converted at the flag: 0 disables the
        // deadline, and a value no `Duration` holds is a usage error.
        let timeout = |secs: &str| {
            parse_args(&strs(&[
                "g.txt",
                "--k",
                "4",
                "--workers",
                "2",
                "--worker-timeout",
                secs,
            ]))
        };
        let o = timeout("1.5").unwrap();
        assert_eq!(o.worker_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(dist_config(&o).supervise.worker_timeout, o.worker_timeout);
        assert_eq!(
            dist_config(&timeout("0").unwrap()).supervise.worker_timeout,
            None
        );
        for secs in ["-1", "NaN", "inf", "1e300"] {
            let err = timeout(secs).unwrap_err();
            assert!(err.contains("--worker-timeout"), "{secs}: {err}");
        }
    }

    #[test]
    fn ampc_mode_flags_parse_and_validate() {
        let args = |extra: &[&str]| {
            let base = ["g.txt", "--k", "4", "--workers", "2", "--ampc-mode"];
            parse_args(&strs(&[&base[..], extra].concat()))
        };
        let o = args(&["relaxed"]).unwrap();
        assert_eq!(o.ampc_mode, AmpcMode::Relaxed);
        assert_eq!(dist_config(&o).mode, AmpcMode::Relaxed);
        let o = args(&["sequenced"]).unwrap();
        assert_eq!(dist_config(&o).mode, AmpcMode::Sequenced);

        let err = args(&["eventual"]).unwrap_err();
        assert!(err.contains("--ampc-mode"), "{err}");
        // Relaxed mode parallelises CLUGP's own passes and nothing else.
        for algo in ["hdrf", "greedy", "hashing", "dbh", "mint"] {
            let err = args(&["relaxed", "--algo", algo]).unwrap_err();
            assert!(err.contains("relaxed mode runs CLUGP only"), "{err}");
            assert!(err.contains(algo), "{err}");
        }
        let err = args(&["sequenced", "--algo", "hdrf"]).unwrap_err();
        assert!(err.contains("engine runs CLUGP only, not hdrf"), "{err}");
        // The mode requires a distributed run.
        let err = parse_args(&strs(&["g.txt", "--k", "4", "--ampc-mode", "relaxed"])).unwrap_err();
        assert!(err.contains("distributed"), "{err}");
    }

    #[test]
    fn trace_flags_parse_and_validate() {
        let o = parse_args(&strs(&[
            "g.txt",
            "--k",
            "4",
            "--workers",
            "2",
            "--trace-out",
            "t.json",
            "--trace-summary",
            "--metrics-out",
            "m.json",
            "--net-stats",
        ]))
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert!(o.trace_summary);
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert!(o.net_stats);
        assert!(dist_config(&o).trace);

        // --net-stats reads NetStats only; it must not flip recording on.
        let o = parse_args(&strs(&[
            "g.txt",
            "--k",
            "4",
            "--workers",
            "2",
            "--net-stats",
        ]))
        .unwrap();
        assert!(o.net_stats);
        assert!(!dist_config(&o).trace);

        // Every observability flag needs a distributed run.
        for flags in [
            &["--trace-out", "t.json"][..],
            &["--trace-summary"][..],
            &["--metrics-out", "m.json"][..],
            &["--net-stats"][..],
        ] {
            let mut args = strs(&["g.txt", "--k", "4"]);
            args.extend(flags.iter().map(|s| s.to_string()));
            let err = parse_args(&args).unwrap_err();
            assert!(err.contains("distributed"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn traced_channel_run_is_bit_identical_and_emits_valid_artifacts() {
        let dir = std::env::temp_dir().join("clugp_part_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 0\n1 3\n0 4\n").unwrap();
        let plain_tsv = dir.join("plain.tsv");
        let traced_tsv = dir.join("traced.tsv");
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        let base = Options {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            algo: "clugp".into(),
            order: "asis".into(),
            threads: 1,
            workers: 3,
            output: Some(plain_tsv.to_string_lossy().into_owned()),
            ..Options::default()
        };
        run(&base).unwrap();
        let traced = Options {
            output: Some(traced_tsv.to_string_lossy().into_owned()),
            trace_out: Some(trace.to_string_lossy().into_owned()),
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            trace_summary: true,
            net_stats: true,
            ..base
        };
        run(&traced).unwrap();
        assert_eq!(
            std::fs::read_to_string(&plain_tsv).unwrap(),
            std::fs::read_to_string(&traced_tsv).unwrap(),
            "tracing must not change the partition"
        );
        let json = std::fs::read_to_string(&trace).unwrap();
        obs::json::validate(&json).unwrap_or_else(|e| panic!("trace not valid JSON: {e}"));
        // Coordinator pass span, worker stage spans, and per-chunk spans
        // all made it into the merged record.
        assert!(json.contains("\"pass:pass1\""), "coordinator span missing");
        assert!(json.contains("\"stage:pass1\""), "worker span missing");
        assert!(json.contains("\"chunk\""), "chunk span missing");
        assert!(
            json.contains("\"clugpMetrics\""),
            "embedded metrics missing"
        );
        let mjson = std::fs::read_to_string(&metrics).unwrap();
        obs::json::validate(&mjson).unwrap_or_else(|e| panic!("metrics not valid JSON: {e}"));
        assert!(mjson.contains("\"bytesByVerb\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_placement_flag_parses() {
        let o = parse_args(&strs(&[
            "g.txt",
            "--k",
            "4",
            "--emit-placement",
            "place_dir",
        ]))
        .unwrap();
        assert_eq!(o.emit_placement.as_deref(), Some("place_dir"));
    }

    #[test]
    fn distributed_channel_run_matches_monolith_and_emits_placement() {
        let dir = std::env::temp_dir().join("clugp_part_cli_dist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        std::fs::write(&input, "0 1\n1 2\n2 0\n2 3\n3 4\n4 0\n1 3\n").unwrap();
        let mono_out = dir.join("mono.tsv");
        let dist_out = dir.join("dist.tsv");
        let placement = dir.join("placement");
        let base = Options {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            algo: "clugp".into(),
            order: "asis".into(),
            threads: 1,
            output: Some(mono_out.to_string_lossy().into_owned()),
            ..Options::default()
        };
        run(&base).unwrap();
        let dist = Options {
            workers: 3,
            output: Some(dist_out.to_string_lossy().into_owned()),
            emit_placement: Some(placement.to_string_lossy().into_owned()),
            ..base
        };
        run(&dist).unwrap();
        assert_eq!(
            std::fs::read_to_string(&mono_out).unwrap(),
            std::fs::read_to_string(&dist_out).unwrap(),
            "3-worker channel run must be bit-identical to the monolith"
        );
        let (p, replicas) = clugp::partition_io::read_placement_dir(&placement).unwrap();
        assert_eq!(p.k, 2);
        assert_eq!(p.assignments.len(), 7);
        // Every edge endpoint must be replicated on its edge's partition, in
        // the stream order the TSV lists (`asis` of text is CSR order).
        let tsv = std::fs::read_to_string(&dist_out).unwrap();
        for (line, &part) in tsv.lines().zip(&p.assignments) {
            let ids: Vec<u32> = line.split('\t').map(|f| f.parse().unwrap()).collect();
            assert_eq!(ids[2], part, "{line}");
            for v in [ids[0], ids[1]] {
                assert!(
                    replicas.partitions_of(v).any(|q| q == part),
                    "vertex {v} missing replica on partition {part}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
