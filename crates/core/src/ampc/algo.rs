//! The roster of the paper's algorithms: which partitioners exist, the
//! monolith each one is built as, and the stream order it is granted by
//! default. The CLI, the experiment harness and the coordinator/worker
//! engine (which runs the CLUGP rows) all read it; nothing else enumerates
//! algorithms.

use crate::baselines::{dbh, hashing, Dbh, Greedy, Hashing, Hdrf, HdrfConfig, Mint, MintConfig};
use crate::clugp::{Clugp, ClugpConfig};
use crate::partitioner::Partitioner;
use crate::vertex_table::DEFAULT_MAX_VERTICES;
use clugp_graph::order::{StreamOrder, RANDOM_ORDER_SEED};

/// One of the paper's partitioners, at its parameters.
///
/// Every variant builds its monolith ([`DistAlgo::monolith`]). The
/// coordinator/worker engine runs [`DistAlgo::Clugp`], bit-identical to its
/// monolith when sequenced, and refuses the others.
#[derive(Debug, Clone)]
pub enum DistAlgo {
    /// PowerGraph random vertex-cut.
    Hashing {
        /// Hash seed (monolith default when built via [`DistAlgo::hashing`]).
        seed: u64,
    },
    /// Degree-based hashing.
    Dbh {
        /// Hash seed.
        seed: u64,
        /// Vertex-id cap (see [`DEFAULT_MAX_VERTICES`]).
        max_vertices: u64,
    },
    /// PowerGraph oblivious greedy.
    Greedy {
        /// Vertex-id cap.
        max_vertices: u64,
    },
    /// High-Degree Replicated First.
    Hdrf(HdrfConfig),
    /// Quasi-streaming game partitioning.
    Mint(MintConfig),
    /// The paper's three-pass pipeline.
    Clugp(ClugpConfig),
}

impl DistAlgo {
    /// Hashing with the monolith's default seed.
    pub fn hashing() -> Self {
        DistAlgo::Hashing {
            seed: hashing::DEFAULT_SEED,
        }
    }

    /// DBH with the monolith's defaults.
    pub fn dbh() -> Self {
        DistAlgo::Dbh {
            seed: dbh::DEFAULT_SEED,
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }

    /// Greedy with the monolith's defaults.
    pub fn greedy() -> Self {
        DistAlgo::Greedy {
            max_vertices: DEFAULT_MAX_VERTICES,
        }
    }

    /// HDRF with the monolith's defaults.
    pub fn hdrf() -> Self {
        DistAlgo::Hdrf(HdrfConfig::default())
    }

    /// Mint with the monolith's defaults.
    pub fn mint() -> Self {
        DistAlgo::Mint(MintConfig::default())
    }

    /// CLUGP with the monolith's defaults.
    pub fn clugp() -> Self {
        DistAlgo::Clugp(ClugpConfig::default())
    }

    /// The algorithm behind a command-line name (`clugp`, `hdrf`,
    /// `greedy`, `hashing`, `dbh`, `mint`), at its defaults.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "hashing" => DistAlgo::hashing(),
            "dbh" => DistAlgo::dbh(),
            "greedy" => DistAlgo::greedy(),
            "hdrf" => DistAlgo::hdrf(),
            "mint" => DistAlgo::mint(),
            "clugp" => DistAlgo::clugp(),
            _ => return None,
        })
    }

    /// The monolithic partitioner of this algorithm (for CLUGP, the one a
    /// sequenced engine run is bit-identical to).
    pub fn monolith(&self) -> Box<dyn Partitioner> {
        match self {
            DistAlgo::Hashing { seed } => Box::new(Hashing::new(*seed)),
            DistAlgo::Dbh { seed, max_vertices } => {
                Box::new(Dbh::with_max_vertices(*seed, *max_vertices))
            }
            DistAlgo::Greedy { max_vertices } => Box::new(Greedy::with_max_vertices(*max_vertices)),
            DistAlgo::Hdrf(cfg) => Box::new(Hdrf::new(cfg.clone())),
            DistAlgo::Mint(cfg) => Box::new(Mint::new(cfg.clone())),
            DistAlgo::Clugp(cfg) => Box::new(Clugp::new(cfg.clone())),
        }
    }

    /// The stream order the paper grants this algorithm ("for a fair
    /// comparison, we choose default settings and best streaming orders
    /// for each of the competitors"): random for Hashing, DBH, Greedy and
    /// HDRF, BFS for Mint and CLUGP with its ablations. Under BFS, HDRF and
    /// Greedy follow the crawl's locality onto one partition.
    pub fn stream_order(&self) -> StreamOrder {
        match self {
            DistAlgo::Hashing { .. }
            | DistAlgo::Dbh { .. }
            | DistAlgo::Greedy { .. }
            | DistAlgo::Hdrf(_) => StreamOrder::Random(RANDOM_ORDER_SEED),
            DistAlgo::Mint(_) | DistAlgo::Clugp(_) => StreamOrder::Bfs,
        }
    }

    /// The display name: the monolith's `Partitioner::name`.
    pub fn name(&self) -> &'static str {
        self.monolith().name()
    }
}
