//! The partitioners under evaluation: the headline six and the CLUGP
//! ablations, each one entry of the core's roster ([`DistAlgo`]), which
//! builds it and names the stream order the paper grants it.

use clugp::ampc::coordinator::DistAlgo;
use clugp::baselines::MintConfig;
use clugp::clugp::{ClugpConfig, ClusterAssignMode};
use clugp::partitioner::Partitioner;
use clugp_graph::order::StreamOrder;

/// Identifier of an algorithm under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Random hashing (PowerGraph default).
    Hashing,
    /// Degree-based hashing.
    Dbh,
    /// PowerGraph oblivious greedy.
    Greedy,
    /// High-Degree Replicated First.
    Hdrf,
    /// Quasi-streaming game partitioning.
    Mint,
    /// The paper's method.
    Clugp,
    /// Ablation: CLUGP without the splitting operation.
    ClugpNoSplit,
    /// Ablation: CLUGP with greedy cluster assignment instead of the game.
    ClugpGreedyAssign,
}

impl Algorithm {
    /// The six algorithms of the headline comparison (Fig. 3, 6, 7, 8).
    pub const COMPETITORS: [Algorithm; 6] = [
        Algorithm::Hdrf,
        Algorithm::Greedy,
        Algorithm::Hashing,
        Algorithm::Dbh,
        Algorithm::Mint,
        Algorithm::Clugp,
    ];

    /// The ablation set of Fig. 9.
    pub const ABLATIONS: [Algorithm; 3] = [
        Algorithm::Clugp,
        Algorithm::ClugpNoSplit,
        Algorithm::ClugpGreedyAssign,
    ];

    /// Display name (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Hashing => "Hashing",
            Algorithm::Dbh => "DBH",
            Algorithm::Greedy => "Greedy",
            Algorithm::Hdrf => "HDRF",
            Algorithm::Mint => "Mint",
            Algorithm::Clugp => "CLUGP",
            Algorithm::ClugpNoSplit => "CLUGP-S",
            Algorithm::ClugpGreedyAssign => "CLUGP-G",
        }
    }

    /// The roster entry this algorithm runs as, with the sweep's
    /// overrides applied.
    pub fn dist_algo(&self, opts: &BuildOptions) -> DistAlgo {
        match self {
            Algorithm::Hashing => DistAlgo::hashing(),
            Algorithm::Dbh => DistAlgo::dbh(),
            Algorithm::Greedy => DistAlgo::greedy(),
            Algorithm::Hdrf => DistAlgo::hdrf(),
            Algorithm::Mint => DistAlgo::Mint(MintConfig {
                threads: opts.threads,
                ..Default::default()
            }),
            Algorithm::Clugp => DistAlgo::Clugp(opts.clugp_config(true, true)),
            Algorithm::ClugpNoSplit => DistAlgo::Clugp(opts.clugp_config(false, true)),
            Algorithm::ClugpGreedyAssign => DistAlgo::Clugp(opts.clugp_config(true, false)),
        }
    }

    /// The stream order the paper grants this algorithm
    /// ([`DistAlgo::stream_order`]).
    pub fn stream_order(&self) -> StreamOrder {
        self.dist_algo(&BuildOptions::default()).stream_order()
    }

    /// Instantiates the partitioner with the paper's default parameters.
    pub fn build(&self) -> Box<dyn Partitioner> {
        self.build_with(&BuildOptions::default())
    }

    /// Instantiates with overrides (thread counts, batch size, τ, weight —
    /// the knobs the parameter-study figures sweep).
    pub fn build_with(&self, opts: &BuildOptions) -> Box<dyn Partitioner> {
        self.dist_algo(opts).monolith()
    }
}

/// Parameter overrides for the sweep experiments.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Worker threads (0 = default pool).
    pub threads: usize,
    /// CLUGP game batch size.
    pub batch_size: usize,
    /// CLUGP imbalance factor τ.
    pub tau: f64,
    /// CLUGP relative weight w (None = paper default λ_max).
    pub relative_weight: Option<f64>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            threads: 0,
            batch_size: 6400,
            tau: 1.0,
            relative_weight: None,
        }
    }
}

impl BuildOptions {
    fn clugp_config(&self, splitting: bool, game: bool) -> ClugpConfig {
        ClugpConfig {
            tau: self.tau,
            batch_size: self.batch_size,
            threads: self.threads,
            lambda: match self.relative_weight {
                Some(w) => clugp::clugp::LambdaMode::Weight(w),
                None => clugp::clugp::LambdaMode::Max,
            },
            splitting,
            assign_mode: if game {
                ClusterAssignMode::Game
            } else {
                ClusterAssignMode::Greedy
            },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Algorithm::COMPETITORS.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn stream_orders_match_paper() {
        let random = StreamOrder::Random(clugp_graph::order::RANDOM_ORDER_SEED);
        for a in [
            Algorithm::Hdrf,
            Algorithm::Greedy,
            Algorithm::Hashing,
            Algorithm::Dbh,
        ] {
            assert_eq!(a.stream_order(), random, "{}", a.name());
        }
        for a in [Algorithm::Mint].into_iter().chain(Algorithm::ABLATIONS) {
            assert_eq!(a.stream_order(), StreamOrder::Bfs, "{}", a.name());
        }
    }

    #[test]
    fn build_produces_matching_names() {
        for a in Algorithm::COMPETITORS {
            assert_eq!(a.build().name(), a.name());
        }
        for a in Algorithm::ABLATIONS {
            assert_eq!(a.build().name(), a.name());
        }
    }

    #[test]
    fn options_flow_into_clugp() {
        let opts = BuildOptions {
            tau: 1.08,
            ..Default::default()
        };
        let cfg = opts.clugp_config(true, true);
        assert_eq!(cfg.tau, 1.08);
        assert!(cfg.splitting);
    }
}
