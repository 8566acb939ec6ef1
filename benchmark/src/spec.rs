//! What the benchmark runs and what it reports.
//!
//! The workloads' pipelines are code and live here; the metric names,
//! units, directions and regression bounds are data and live in
//! `BENCHMARK.json` at the repository root, which this module reads. The
//! harness reports exactly the metrics that file declares, so the file is
//! the one place a metric name or a bound is written down. Its `workloads`
//! are the ones the benchmark driver runs: four of the seven here, because
//! the driver's time limit divides among them (README, *Workloads*).

use crate::json::{self, Value};
use std::path::{Path, PathBuf};

/// Partition count of every workload (comparable with the committed
/// `results/BENCH_*.json`, which are k = 32 throughout).
pub const K: u32 = 32;

/// Which generated graph a workload streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Site-structured crawl, the it-s parameters of `crates/bench`.
    Web,
    /// Preferential attachment without site locality (twitter-s).
    Social,
}

impl Input {
    pub fn name(self) -> &'static str {
        match self {
            Input::Web => "web",
            Input::Social => "social",
        }
    }
}

/// The monolithic partitioners the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Clugp,
    Hdrf,
    Dbh,
}

/// How a workload gets from an opened input to a partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `Partitioner::partition` over the opened pack stream.
    Monolith(Algo),
    /// `run_distributed` with CLUGP over in-process channels. Sequenced
    /// runs hand the engine the pack path; the relaxed run collects the
    /// edges first, exactly as `clugp-part --workers` feeds the engine
    /// (relaxed mode over `DistInput::Pack` panics today — see README).
    Ampc {
        workers: u32,
        relaxed: bool,
        checkpoints: bool,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    pub input: Input,
    pub route: Route,
    /// Pipelines run back to back inside one timed sample, so that no
    /// sample is much shorter than a second at the full input size. Times
    /// are reported per pipeline.
    pub inner: u32,
}

impl Workload {
    pub fn is_ampc(&self) -> bool {
        matches!(self.route, Route::Ampc { .. })
    }

    /// Sequenced AMPC samples are confined to one CPU. Sequenced mode keeps
    /// one worker streaming at a time, so a second CPU buys it nothing; what
    /// a second CPU adds is a cross-vCPU wake-up on each of the tens of
    /// thousands of synchronous frames, and after sustained two-core load
    /// this sandbox's hypervisor makes those wake-ups slow for minutes
    /// (`web-clugp-ampc2`: 1.65 s → 2.4 s per pipeline, same output, same
    /// bytes). On one CPU the run is never slower and no longer bimodal, so
    /// the number measures the engine, not the host's scheduler.
    pub fn runs_on_one_cpu(&self) -> bool {
        matches!(self.route, Route::Ampc { relaxed: false, .. })
    }

    /// Monolithic and sequenced CLUGP promise max load ≤ ⌈τ|E|/k⌉; relaxed
    /// mode relaxes the cap per slice and the baselines never had it.
    pub fn holds_tau_cap(&self) -> bool {
        matches!(
            self.route,
            Route::Monolith(Algo::Clugp) | Route::Ampc { relaxed: false, .. }
        )
    }
}

/// The workloads, in the order `run` executes them. The names are final.
/// `BENCHMARK.json` lists, with the same reasons, the four the benchmark
/// driver runs.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "web-clugp",
        why: "web pack -> monolithic CLUGP -> placement: the paper's headline path; three decode passes, clustering, cluster graph and transform share the time",
        input: Input::Web,
        route: Route::Monolith(Algo::Clugp),
        inner: 2,
    },
    Workload {
        name: "web-hdrf",
        why: "web pack -> HDRF: kernel-bound by the O(k) scoring loop, decode a few percent; HDRF work must show here, decode and CLUGP work must not",
        input: Input::Web,
        route: Route::Monolith(Algo::Hdrf),
        inner: 1,
    },
    Workload {
        name: "web-dbh",
        why: "web pack -> DBH: ingest-bound, the kernel is so fast that decode, CRC and emit are most of the time; kernel work does not show here",
        input: Input::Web,
        route: Route::Monolith(Algo::Dbh),
        inner: 5,
    },
    Workload {
        name: "social-clugp",
        why: "social pack -> CLUGP: same layers without site locality, many small clusters, high rf; a clustering change tuned to locality pays here",
        input: Input::Social,
        route: Route::Monolith(Algo::Clugp),
        inner: 4,
    },
    Workload {
        name: "web-clugp-ampc1",
        why: "web pack -> sequenced AMPC CLUGP, 1 worker: pure coordination tax with nothing remote, against web-clugp",
        input: Input::Web,
        route: Route::Ampc {
            workers: 1,
            relaxed: false,
            checkpoints: false,
        },
        inner: 1,
    },
    Workload {
        name: "web-clugp-ampc2",
        why: "web pack -> sequenced AMPC CLUGP, 2 workers, checkpoints on disk: remote route relays and CLUGPCK1 barriers; the wire/table/checkpoint workload",
        input: Input::Web,
        route: Route::Ampc {
            workers: 2,
            relaxed: false,
            checkpoints: true,
        },
        inner: 1,
    },
    Workload {
        name: "web-clugp-relaxed2",
        why: "web pack -> collected edges -> relaxed AMPC CLUGP, 2 workers: the concurrent driver on both cores, with its quality drift visible",
        input: Input::Web,
        route: Route::Ampc {
            workers: 2,
            relaxed: true,
            checkpoints: false,
        },
        inner: 2,
    },
];

/// The workload sequenced AMPC runs must match bit for bit, and the base of
/// the `ampc.overhead_ratio` and `ampc.rf_drift` ratios.
pub const REFERENCE_WORKLOAD: &str = "web-clugp";

pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", names.join(", "))
    })
}

/// Vertex counts of the two generated inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub web_vertices: u64,
    pub social_vertices: u64,
}

impl Sizes {
    /// The measured size: the it-s analogue at the scale of the committed
    /// `results/` (160 000 vertices, ≈ 5.9 M edges) and a social graph with
    /// the issue's 2:1 vertex ratio (80 000 × 34 ≈ 2.7 M edges).
    pub const FULL: Sizes = Sizes {
        web_vertices: 160_000,
        social_vertices: 80_000,
    };
    /// `--smoke`: small enough that all workloads finish in seconds.
    pub const SMOKE: Sizes = Sizes {
        web_vertices: 20_000,
        social_vertices: 10_000,
    };

    pub fn vertices(&self, input: Input) -> u64 {
        match input {
            Input::Web => self.web_vertices,
            Input::Social => self.social_vertices,
        }
    }
}

/// One metric declaration of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness uses.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Directory that holds `BENCHMARK.json` (the repository root).
    pub root: PathBuf,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    /// Finds `BENCHMARK.json` in the current directory or the nearest
    /// ancestor that has one (the driver runs the benchmark from the
    /// repository root, `cargo test` from `benchmark/`).
    pub fn locate() -> Result<Spec, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
        let root = cwd
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .ok_or_else(|| format!("no BENCHMARK.json in {} or above", cwd.display()))?;
        Spec::load(root)
    }

    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let decls = |key: &str| -> Result<Vec<MetricDecl>, String> {
            doc.get(key)
                .map(Value::items)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: m.string("name")?.to_string(),
                        unit: m.string("unit")?.to_string(),
                        lower_is_better: m.string("better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            root: root.to_path_buf(),
            run_seconds: doc.num("run_seconds")?,
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
        })
    }

    /// Where everything the benchmark writes goes (git-ignored).
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("benchmark").join("out")
    }

    /// Where the traced pass leaves the Chrome trace of `workload`.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out_dir().join(format!("trace-{workload}.json"))
    }

    /// The results-file section and the declared metrics of one pass: the
    /// traced pass yields the per-layer metrics, the plain one the
    /// end-to-end metrics.
    pub fn pass(&self, traced: bool) -> (&'static str, &[MetricDecl]) {
        if traced {
            ("per_layer", &self.per_layer)
        } else {
            ("end_to_end", &self.end_to_end)
        }
    }
}
