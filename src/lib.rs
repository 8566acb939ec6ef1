//! Reproduction root crate for *Clustering-based Partitioning for Large Web
//! Graphs* (ICDE 2022).
//!
//! This crate only hosts the runnable examples (`examples/`), the
//! cross-crate integration tests (`tests/`) and the equivalence harness
//! they share ([`Case`]); the implementation lives in:
//!
//! * [`clugp_graph`] — graph substrate (CSR, streams, generators, I/O).
//! * [`clugp`] — the CLUGP partitioner and all baselines.
//! * [`clugp_engine`] — the PowerGraph-style GAS execution simulator.
//!
//! See README.md for the repository map and EXPERIMENTS.md for
//! paper-vs-measured results.

pub use clugp;
pub use clugp_engine;
pub use clugp_graph;

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::{
    run_distributed, DistConfig, DistInput, DistOutcome, FaultPlan, SuperviseConfig, TransportKind,
};
use clugp::clugp::{ClugpConfig, ClusterAssignMode, MigrationPolicy};
use clugp::error::PartitionError;
use clugp::partition::Partitioning;
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::pack::{canonical_order, DecodeOptions, PackedEdgeStream, PipelinedPackStream};
use clugp_graph::stream::{collect_stream, ChunkLimited, InMemoryStream, RestreamableStream};
use clugp_graph::types::Edge;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Convenience used by the integration tests: a deterministic mid-sized web
/// graph in BFS stream order.
pub fn test_web_graph(vertices: u64, seed: u64) -> (u64, Vec<Edge>) {
    Family::Web.edges(vertices, seed, StreamOrder::Bfs)
}

/// Every algorithm a bit-identity check runs: each `DistAlgo::by_name`
/// entry (Mint in batches of 97, so that wave boundaries cross chunk and
/// worker-range boundaries), the CLUGP ablations and the non-default
/// migration policy, so that every `MigrationPolicy` wire tag crosses a
/// `Configure`.
pub fn roster() -> Vec<(&'static str, DistAlgo)> {
    let mut roster: Vec<_> = ["hashing", "dbh", "greedy", "hdrf", "mint", "clugp"]
        .into_iter()
        .map(|name| {
            let mut algo = DistAlgo::by_name(name).expect("registered algorithm");
            if let DistAlgo::Mint(cfg) = &mut algo {
                cfg.batch_size = 97;
            }
            (algo.name(), algo)
        })
        .collect();
    let ablations: [(_, fn(&mut ClugpConfig)); 3] = [
        ("CLUGP-S", |c| c.splitting = false),
        ("CLUGP-G", |c| c.assign_mode = ClusterAssignMode::Greedy),
        ("CLUGP/paper", |c| c.migration = MigrationPolicy::Paper),
    ];
    for (name, set) in ablations {
        let mut cfg = ClugpConfig::default();
        set(&mut cfg);
        roster.push((name, DistAlgo::Clugp(cfg)));
    }
    roster
}

/// What two runs must agree on: the assignments, the loads and the vertex
/// count.
pub type Outcome = (Vec<u32>, Vec<u64>, u64);

/// The [`Outcome`] of a partitioning.
pub fn outcome(p: Partitioning) -> Outcome {
    (p.assignments, p.loads, p.num_vertices)
}

/// Runs `algo`'s monolith over `stream`.
pub fn partition(algo: &DistAlgo, stream: &mut dyn RestreamableStream, k: u32) -> Outcome {
    let run = algo.monolith().partition(stream, k);
    outcome(run.unwrap_or_else(|e| panic!("{algo:?}: {e}")).partitioning)
}

/// The reference run: `algo`'s monolith over `edges` in memory, lent whole
/// chunks.
pub fn monolith(algo: &DistAlgo, num_vertices: u64, edges: &[Edge], k: u32) -> Outcome {
    let mut stream = InMemoryStream::new(num_vertices, edges.to_vec());
    partition(algo, &mut stream, k)
}

/// FNV-1a over `bytes`, the hash every recorded golden value is.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// [`fnv1a`] over the little-endian bytes of an assignment vector.
pub fn assignment_hash(assignments: &[u32]) -> u64 {
    fnv1a(assignments.iter().flat_map(|p| p.to_le_bytes()))
}

/// A tight supervision policy for tests: a `timeout_ms` deadline,
/// `retries` replays and a fast back-off.
pub fn supervised(timeout_ms: u64, retries: u32) -> SuperviseConfig {
    SuperviseConfig {
        worker_timeout: Some(Duration::from_millis(timeout_ms)),
        max_retries: retries,
        backoff: Duration::from_millis(10),
    }
}

/// The `clugp-part` binary the process-level integration tests drive,
/// looked up in the target directory of the running test binary. `cargo
/// test` at the root does not rebuild a workspace member's bins, so the
/// one beside the test binary may predate the source; tier-1 builds the
/// release profile first. Takes whichever profile was built last; `None`
/// when neither was (the callers skip with a note).
pub fn clugp_part_exe() -> Option<PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let target = dir.parent()?;
    ["debug", "release"]
        .iter()
        .map(|profile| {
            target
                .join(profile)
                .join(format!("clugp-part{}", std::env::consts::EXE_SUFFIX))
        })
        .filter(|exe| exe.exists())
        .max_by_key(|exe| exe.metadata().and_then(|m| m.modified()).ok())
}

/// A fresh, empty directory `name` under the system temp dir.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("clugp-repro").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    dir
}

/// Writes `test_web_graph(vertices, seed)` into `dir` as `input` (a
/// `web.txt`, `web.bin` or `web.clugpz`) and returns its path.
pub fn web_fixture(dir: &Path, input: Input, vertices: u64, seed: u64) -> PathBuf {
    let (n, edges) = test_web_graph(vertices, seed);
    let path = dir.join(input.file_name("web"));
    input.write(&path, n, &edges);
    path
}

/// Which generator a case's graph comes from: a site-structured web crawl,
/// a Barabási–Albert graph with 8 edges per vertex, or no vertex at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Web,
    Social,
    Empty,
}

impl Family {
    /// The graph of `vertices` vertices drawn from `seed`: its vertex count
    /// and its edges in `order`.
    pub fn edges(self, vertices: u64, seed: u64, order: StreamOrder) -> (u64, Vec<Edge>) {
        use clugp_graph::gen::{generate_ba, generate_web_crawl, BaConfig, WebCrawlConfig};
        let g = match self {
            Family::Web => generate_web_crawl(&WebCrawlConfig {
                vertices,
                seed,
                ..Default::default()
            }),
            Family::Social => generate_ba(&BaConfig {
                vertices,
                edges_per_vertex: 8,
                seed,
            }),
            Family::Empty => return (0, Vec::new()),
        };
        (g.num_vertices(), ordered_edges(&g, order))
    }
}

/// Where a case's edges come from: memory, an edge-list text file, a flat
/// `CLUGPGR1` binary file or a pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    Memory,
    Text,
    Binary,
    /// A `CLUGPZ` pack of `block_bytes`-byte blocks, which replays the
    /// canonical `(src, dst)` order. `prefetch` blocks are decoded ahead of
    /// the consumer on a thread of their own; 0 reads the pack serially.
    Pack {
        block_bytes: usize,
        prefetch: usize,
    },
}

impl Input {
    fn file_name(self, stem: &str) -> String {
        let ext = match self {
            Input::Memory => "none",
            Input::Text => "txt",
            Input::Binary => "bin",
            Input::Pack { .. } => "clugpz",
        };
        format!("{stem}.{ext}")
    }

    /// Writes `edges` to `path` in this format; `Memory` writes nothing.
    /// The one fixture writer of the integration tests.
    pub fn write(self, path: &Path, num_vertices: u64, edges: &[Edge]) {
        use clugp_graph::io::{write_binary_graph, write_edge_list};
        use clugp_graph::pack::{write_pack, PackOptions};
        let written = match self {
            Input::Memory => Ok(()),
            Input::Text => write_edge_list(path, edges),
            Input::Binary => write_binary_graph(path, num_vertices, edges),
            Input::Pack { block_bytes, .. } => {
                let opts = PackOptions {
                    block_bytes,
                    ..Default::default()
                };
                write_pack(path, num_vertices, edges, &opts).map(drop)
            }
        };
        written.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }

    /// Opens what [`Input::write`] wrote; `Memory` lends `edges` instead.
    pub fn open(self, path: &Path, n: u64, edges: &[Edge]) -> Box<dyn RestreamableStream> {
        let opened: clugp_graph::Result<Box<dyn RestreamableStream>> = match self {
            Input::Memory => Ok(Box::new(InMemoryStream::new(n, edges.to_vec()))),
            Input::Text | Input::Binary => clugp_graph::io::open_edge_stream(path),
            Input::Pack { prefetch: 0, .. } => {
                PackedEdgeStream::open(path).map(|s| Box::new(s) as _)
            }
            Input::Pack { prefetch, .. } => {
                let opts = DecodeOptions {
                    prefetch,
                    ..Default::default()
                };
                PipelinedPackStream::open(path, opts).map(|s| Box::new(s) as _)
            }
        };
        opened.unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }
}

/// How a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The monolith over the input, its source capped at `chunk_limit`
    /// edges a pull (`usize::MAX` lends whole chunks).
    Monolith { chunk_limit: usize },
    /// The sequenced coordinator/worker engine, which runs CLUGP only, at
    /// `chunk_edges` edges a chunk (0 = the stream default). A pack read
    /// serially is handed to the workers as block ranges; any other input is
    /// read by the coordinator and shipped inline.
    Sequenced {
        workers: u32,
        transport: TransportKind,
        chunk_edges: usize,
    },
}

impl Mode {
    /// `workers` sequenced workers over channels at the default chunk size.
    pub fn sequenced(workers: u32) -> Mode {
        let (transport, chunk_edges) = (TransportKind::Channel, 0);
        Mode::Sequenced {
            workers,
            transport,
            chunk_edges,
        }
    }
}

/// One point of the matrix every chunked, decode-ahead, distributed and
/// faulted path must agree on: `algo` at `k` over the `family`
/// graph of `vertices` vertices drawn from `seed` (a drawn case's seed is
/// the one it was drawn from) in `order`, with CLUGP's game or Mint's wave
/// games on `threads` threads (0 = every CPU, which the reference runs on).
/// A sequenced run with `faults` runs supervised (600 ms deadline, 2
/// retries) and traced. [`Case::check`] asserts that the case places the
/// edges as the monolith does over the same edge sequence.
#[derive(Debug, Clone)]
pub struct Case {
    pub family: Family,
    pub vertices: u64,
    pub seed: u64,
    pub order: StreamOrder,
    pub algo: DistAlgo,
    pub k: u32,
    pub threads: usize,
    pub input: Input,
    pub mode: Mode,
    pub faults: Option<FaultPlan>,
}

/// Values computed so far, keyed by what determines them: the checks of
/// one graph and algorithm generate the graph, write its file and run the
/// reference once.
struct Memo<T>(Mutex<BTreeMap<String, T>>);

impl<T: Clone> Memo<T> {
    fn get(&self, key: String, make: impl FnOnce() -> T) -> T {
        let poisoned = "a check panicked while holding the memo";
        if let Some(known) = self.0.lock().expect(poisoned).get(&key) {
            return known.clone();
        }
        let made = make();
        self.0.lock().expect(poisoned).insert(key, made.clone());
        made
    }
}

static GRAPHS: Memo<(u64, Vec<Edge>)> = Memo(Mutex::new(BTreeMap::new()));
static FILES: Memo<Vec<u8>> = Memo(Mutex::new(BTreeMap::new()));
static REFERENCES: Memo<Outcome> = Memo(Mutex::new(BTreeMap::new()));
/// Numbers the scratch directories of concurrent checks.
static CHECKS: AtomicUsize = AtomicUsize::new(0);

impl Case {
    /// `algo` over the web graph of `vertices` vertices drawn from `seed`
    /// in BFS order, in memory, at k = 8 and the default thread count, as
    /// the monolith lent whole chunks.
    pub fn new(algo: DistAlgo, vertices: u64, seed: u64) -> Case {
        Case {
            family: Family::Web,
            vertices,
            seed,
            order: StreamOrder::Bfs,
            algo,
            k: 8,
            threads: 0,
            input: Input::Memory,
            mode: Mode::Monolith {
                chunk_limit: usize::MAX,
            },
            faults: None,
        }
    }

    /// Draws a case from `seed`: any graph family (the empty graph too),
    /// roster entry, k, order, thread count, input format and block size,
    /// either pack reader, the monolith under any source cap or — for the
    /// CLUGP rows, the ones the engine runs — 1 to 4 sequenced workers over
    /// either transport at any chunk size, and for half of the sequenced
    /// cases a seeded fault plan.
    pub fn draw(seed: u64) -> Case {
        let mut state = seed;
        let mut pick = |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let family = [Family::Web, Family::Web, Family::Social, Family::Empty][pick(4)];
        let vertices = [100, 300, 600][pick(3)];
        let orders = [StreamOrder::Bfs, StreamOrder::Dfs, StreamOrder::AsIs];
        let order = orders
            .get(pick(4))
            .copied()
            .unwrap_or(StreamOrder::Random(seed));
        let mut roster = roster();
        let algo = roster.swap_remove(pick(roster.len())).1;
        let (k, threads) = ([1, 2, 5, 8, 32][pick(5)], pick(4));
        let input = match pick(4) {
            0 => Input::Memory,
            1 => Input::Text,
            2 => Input::Binary,
            _ => Input::Pack {
                block_bytes: [64, 512, 2048, 65536][pick(4)],
                prefetch: [0, 0, 1, 4][pick(4)],
            },
        };
        let (mode, faults) = match pick(3) {
            n if n == 0 || !matches!(algo, DistAlgo::Clugp(_)) => {
                let chunk_limit = [1, 7, 173, 4096, usize::MAX][pick(5)];
                (Mode::Monolith { chunk_limit }, None)
            }
            _ => {
                let workers = 1 + pick(4) as u32;
                let transport = [TransportKind::Channel, TransportKind::Unix][pick(2)];
                let chunk_edges = [0, 1, 37, 4096][pick(4)];
                // The seven frames a link carries behind the handshake.
                let faults = (pick(2) == 0).then(|| FaultPlan::seeded(seed, workers, 7));
                let mode = Mode::Sequenced {
                    workers,
                    transport,
                    chunk_edges,
                };
                (mode, faults)
            }
        };
        Case {
            family,
            vertices,
            seed,
            order,
            algo,
            k,
            threads,
            input,
            mode,
            faults,
        }
    }

    /// What determines the graph: its family, size, seed and stream order.
    fn graph(&self) -> String {
        format!("{:?}", (self.family, self.vertices, self.seed, self.order))
    }

    /// The graph's vertex count and its edges in stream order.
    pub fn edges(&self) -> (u64, Vec<Edge>) {
        GRAPHS.get(self.graph(), || {
            self.family.edges(self.vertices, self.seed, self.order)
        })
    }

    /// `self.algo` with its game or wave games on `threads` threads.
    fn algo_on(&self, threads: usize) -> DistAlgo {
        let mut algo = self.algo.clone();
        match &mut algo {
            DistAlgo::Clugp(cfg) => cfg.threads = threads,
            DistAlgo::Mint(cfg) => cfg.threads = threads,
            _ => {}
        }
        algo
    }

    /// The monolith's outcome, on every CPU, over the edge sequence the
    /// input replays (the canonical order for a pack, the stream order
    /// otherwise) in memory, with the generator's vertex count.
    pub fn reference(&self) -> Outcome {
        let (n, edges) = self.edges();
        self.reference_of(n, edges)
    }

    fn reference_of(&self, num_vertices: u64, edges: Vec<Edge>) -> Outcome {
        let (algo, packed) = (self.algo_on(0), matches!(self.input, Input::Pack { .. }));
        let key = format!(
            "{} {packed} {num_vertices} {algo:?} {}",
            self.graph(),
            self.k
        );
        REFERENCES.get(key, || {
            let sequence = if packed {
                canonical_order(&edges)
            } else {
                edges
            };
            monolith(&algo, num_vertices, &sequence, self.k)
        })
    }

    /// Runs the case and asserts that its assignments, loads and vertex
    /// count equal the monolith's over the same edge sequence: the stream
    /// order, or the canonical order a pack replays. Returns the sequenced
    /// run's outcome (`None` in monolith mode). A faulted run may stop
    /// instead with a typed error, which is returned: a transport
    /// [`PartitionError::Fault`], or the [`PartitionError::InvalidParam`] a
    /// worker reports for a frame corrupted on its way to it. Any other
    /// error, or a result that differs, panics naming the case.
    pub fn check(&self) -> Result<Option<DistOutcome>, PartitionError> {
        let (n, edges) = self.edges();
        let id = CHECKS.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_dir(&format!("case-{}-{id}", std::process::id()));
        let path = dir.join(self.input.file_name("g"));
        if self.input != Input::Memory {
            let bytes = FILES.get(format!("{} {:?}", self.graph(), self.input), || {
                self.input.write(&path, n, &edges);
                std::fs::read(&path).unwrap()
            });
            std::fs::write(&path, bytes).unwrap();
        }
        let mut source = self.input.open(&path, n, &edges);
        let hint = source.num_vertices_hint().unwrap_or(0);
        let reference = self.reference_of(hint, edges);
        let algo = self.algo_on(self.threads);
        let checked = match self.mode {
            Mode::Monolith { chunk_limit } => {
                let mut limited = ChunkLimited::new(source.as_mut(), chunk_limit);
                self.assert_same(partition(&algo, &mut limited, self.k), &reference);
                Ok(None)
            }
            Mode::Sequenced {
                workers,
                transport,
                chunk_edges,
            } => {
                let read;
                let input = match self.input {
                    Input::Pack { prefetch: 0, .. } => DistInput::Pack(&path),
                    _ => {
                        read = collect_stream(source.as_mut());
                        DistInput::Edges {
                            num_vertices: hint,
                            edges: &read,
                        }
                    }
                };
                let cfg = DistConfig {
                    workers,
                    transport,
                    chunk_edges,
                    supervise: match self.faults {
                        Some(_) => supervised(600, 2),
                        None => SuperviseConfig::default(),
                    },
                    faults: self.faults.clone().unwrap_or_default(),
                    trace: self.faults.is_some(),
                    ..Default::default()
                };
                run_distributed(&algo, input, self.k, &cfg).map(|out| {
                    assert_eq!(out.workers, workers, "{self:?}: wrong worker count");
                    self.assert_same(outcome(out.partitioning.clone()), &reference);
                    Some(out)
                })
            }
        };
        std::fs::remove_dir_all(dir).ok();
        match checked {
            Err(PartitionError::Fault { .. } | PartitionError::InvalidParam(_))
                if self.faults.is_some() =>
            {
                checked
            }
            Err(e) => panic!("{self:?}: {e}"),
            checked => checked,
        }
    }

    fn assert_same(&self, got: Outcome, want: &Outcome) {
        let first = got.0.iter().zip(&want.0).position(|(a, b)| a != b);
        assert!(
            got == *want,
            "{self:?} diverged from the monolith: first differing edge {first:?} of {} \
             and {}, loads {:?} and {:?}, {} and {} vertices",
            got.0.len(),
            want.0.len(),
            got.1,
            want.1,
            got.2,
            want.2
        );
    }
}

#[cfg(test)]
mod tests {
    use super::test_web_graph;
    use std::collections::HashSet;

    #[test]
    fn fixture_is_deterministic_per_seed() {
        let (n1, e1) = test_web_graph(800, 7);
        let (n2, e2) = test_web_graph(800, 7);
        assert_eq!(n1, n2);
        assert_eq!(e1, e2, "same (vertices, seed) must give identical streams");
    }

    #[test]
    fn fixture_varies_across_seeds() {
        let (_, a) = test_web_graph(800, 1);
        let (_, b) = test_web_graph(800, 2);
        assert_ne!(a, b, "different seeds should give different streams");
    }

    #[test]
    fn endpoints_are_in_range_and_stream_is_nonempty() {
        let (n, edges) = test_web_graph(500, 3);
        assert!(!edges.is_empty());
        assert!(edges
            .iter()
            .all(|e| u64::from(e.src) < n && u64::from(e.dst) < n));
    }

    /// BFS streams emit each vertex's whole out-burst contiguously: a source
    /// id never reappears after its burst ended.
    #[test]
    fn bfs_stream_has_contiguous_source_bursts() {
        let (_, edges) = test_web_graph(600, 11);
        let mut finished: HashSet<u32> = HashSet::new();
        let mut current = None;
        for e in &edges {
            if current != Some(e.src) {
                if let Some(prev) = current {
                    finished.insert(prev);
                }
                assert!(
                    !finished.contains(&e.src),
                    "source {} restarted a burst — not a BFS emission order",
                    e.src
                );
                current = Some(e.src);
            }
        }
    }

    /// BFS discovery order: when a burst starts for a vertex never seen
    /// before in the stream, it must be a fresh BFS root, and roots are
    /// taken in increasing id order.
    #[test]
    fn bfs_stream_discovers_before_expanding() {
        let (_, edges) = test_web_graph(600, 5);
        let mut seen: HashSet<u32> = HashSet::new();
        let mut last_root: Option<u32> = None;
        let mut current = None;
        for e in &edges {
            if current != Some(e.src) {
                current = Some(e.src);
                if !seen.contains(&e.src) {
                    // Unreached source ⇒ a new BFS root; root ids ascend.
                    if let Some(r) = last_root {
                        assert!(
                            e.src > r,
                            "root {} started after root {r}; roots must ascend",
                            e.src
                        );
                    }
                    last_root = Some(e.src);
                }
            }
            seen.insert(e.src);
            seen.insert(e.dst);
        }
    }
}
