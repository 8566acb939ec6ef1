//! The algorithm registry of the coordinator/worker engine: which
//! partitioners a distributed run can execute, the monolith each one is
//! bit-identical to, and the wire spec a worker builds its kernel from.
//! This is the only place the engine's coordinator side enumerates
//! algorithms; everything else reads the kernel description.

use super::proto::AlgoSpec;
use super::worker::migration_tag;
use crate::baselines::{
    dbh, grid, hashing, Dbh, Greedy, Grid, Hashing, Hdrf, HdrfConfig, Mint, MintConfig,
};
use crate::clugp::{Clugp, ClugpConfig};
use crate::partitioner::Partitioner;
use crate::vertex_table::DEFAULT_MAX_VERTICES;

/// Which partitioner a distributed run executes.
///
/// Every variant is driven through the same per-edge kernel as its
/// monolithic counterpart, so a single-worker run is bit-identical to
/// the corresponding `Partitioner` implementation.
#[derive(Debug, Clone)]
pub enum DistAlgo {
    /// PowerGraph random vertex-cut.
    Hashing {
        /// Hash seed (monolith default when built via [`DistAlgo::hashing`]).
        seed: u64,
    },
    /// 2D constrained hashing.
    Grid {
        /// Hash seed.
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

    /// Grid with the monolith's default seed.
    pub fn grid() -> Self {
        DistAlgo::Grid {
            seed: grid::DEFAULT_SEED,
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
    /// `greedy`, `hashing`, `dbh`, `grid`, `mint`), at its defaults.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "hashing" => DistAlgo::hashing(),
            "grid" => DistAlgo::grid(),
            "dbh" => DistAlgo::dbh(),
            "greedy" => DistAlgo::greedy(),
            "hdrf" => DistAlgo::hdrf(),
            "mint" => DistAlgo::mint(),
            "clugp" => DistAlgo::clugp(),
            _ => return None,
        })
    }

    /// The monolithic partitioner a sequenced run of this algorithm is
    /// bit-identical to.
    pub fn monolith(&self) -> Box<dyn Partitioner> {
        match self {
            DistAlgo::Hashing { seed } => Box::new(Hashing::new(*seed)),
            DistAlgo::Grid { seed } => Box::new(Grid::new(*seed)),
            DistAlgo::Dbh { seed, max_vertices } => {
                Box::new(Dbh::with_max_vertices(*seed, *max_vertices))
            }
            DistAlgo::Greedy { max_vertices } => Box::new(Greedy::with_max_vertices(*max_vertices)),
            DistAlgo::Hdrf(cfg) => Box::new(Hdrf::new(cfg.clone())),
            DistAlgo::Mint(cfg) => Box::new(Mint::new(cfg.clone())),
            DistAlgo::Clugp(cfg) => Box::new(Clugp::new(cfg.clone())),
        }
    }

    /// The display name: the monolith's `Partitioner::name`.
    pub fn name(&self) -> &'static str {
        self.monolith().name()
    }

    /// Lowers to the wire spec a worker builds its kernel from.
    /// Coordinator-only parameters (the CLUGP game, tau) stay out.
    pub(crate) fn spec(&self) -> AlgoSpec {
        match self {
            DistAlgo::Hashing { seed } => AlgoSpec::Hashing { seed: *seed },
            DistAlgo::Grid { seed } => AlgoSpec::Grid { seed: *seed },
            DistAlgo::Dbh { seed, max_vertices } => AlgoSpec::Dbh {
                seed: *seed,
                max_vertices: *max_vertices,
            },
            DistAlgo::Greedy { max_vertices } => AlgoSpec::Greedy {
                max_vertices: *max_vertices,
            },
            DistAlgo::Hdrf(cfg) => AlgoSpec::Hdrf(cfg.clone()),
            DistAlgo::Mint(cfg) => AlgoSpec::Mint(cfg.clone()),
            DistAlgo::Clugp(cfg) => AlgoSpec::Clugp {
                splitting: cfg.splitting,
                migration: migration_tag(cfg.migration),
                max_vertices: cfg.max_vertices,
            },
        }
    }
}
