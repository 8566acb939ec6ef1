//! CLUGP configuration (the paper's experiment defaults are the `Default`s).

use crate::error::{PartitionError, Result};

/// How pass 2 maps clusters to partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAssignMode {
    /// The potential game of Algorithm 3 (the paper's method).
    Game,
    /// LPT greedy: biggest cluster to least-loaded partition — the CLUGP-G
    /// ablation of Fig. 9.
    Greedy,
}

/// Migration rule of the clustering pass (a design-choice ablation; see
/// DESIGN.md §4 honest-divergence notes and the `fig9` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Our default: only *loose* vertices (alone in their cluster) migrate,
    /// and only when the destination keeps headroom below `Vmax`. Prevents
    /// both migration-overfill split cascades and community churn from
    /// popular vertices being yanked by single cross edges.
    Anchored,
    /// Algorithm 2 verbatim: any vertex in the smaller cluster migrates
    /// whenever both clusters are under `Vmax` (no headroom check).
    Paper,
}

/// How the normalization factor λ of Eq. 10/11 is chosen.
///
/// The equal-importance balance point of Eq. 15 coincides with
/// [`LambdaMode::Max`] under the even-assignment estimate the paper uses
/// (`Σ|p_i|² ≈ (Σ|c_i|)²/k`), so `Max` covers both of the paper's settings.
///
/// Two modes are equal when they resolve to the same λ: `Weight(0.5)` is
/// `Max`, since `λ_max · 0.5 / 0.5` is `λ_max` exactly.
#[derive(Debug, Clone, Copy)]
pub enum LambdaMode {
    /// λ at its maximum value `k²·Σe(c_i,V\c_i) / (Σ|c_i|)²` (Theorem 5) —
    /// the paper's experimental default.
    Max,
    /// Relative weight `w ∈ (0,1)` between load balancing and edge-cutting
    /// (Fig. 11(b)): `λ(w) = λ_max · w / (1−w)`, so `w = 0.5` reproduces
    /// [`LambdaMode::Max`].
    Weight(f64),
}

impl PartialEq for LambdaMode {
    fn eq(&self, other: &Self) -> bool {
        let weight = |mode: &LambdaMode| match *mode {
            LambdaMode::Max => 0.5,
            LambdaMode::Weight(w) => w,
        };
        weight(self) == weight(other)
    }
}

/// Full CLUGP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClugpConfig {
    /// Multiplier on the default maximum cluster volume: `Vmax =
    /// vmax_factor · |E| / k` (the paper uses `|E|/k`, i.e. factor 1.0,
    /// following Hollocou's suggestion).
    pub vmax_factor: f64,
    /// Imbalance factor τ ≥ 1 of the transformation pass (`Lmax = τ|E|/k`).
    pub tau: f64,
    /// λ selection for the cluster-partitioning game.
    pub lambda: LambdaMode,
    /// Clusters per game batch (paper default 6400). `0` means a single
    /// batch containing every cluster (the sequential full game).
    pub batch_size: usize,
    /// Max threads playing the game's batches (0 = every available CPU,
    /// 1 = inline). Affects wall-clock only, never the result.
    pub threads: usize,
    /// Enable the splitting operation (off = Holl clustering; the CLUGP-S
    /// ablation).
    pub splitting: bool,
    /// Migration rule of the clustering pass.
    pub migration: MigrationPolicy,
    /// Cluster → partition assignment mode (Greedy = CLUGP-G ablation).
    pub assign_mode: ClusterAssignMode,
    /// Cap on the internal vertex id space: clustering-table growth past it
    /// fails with `InvalidParam` instead of OOM (see `crate::vertex_table`).
    /// Sparse 64-bit external ids must come through `clugp_graph::idmap`.
    pub max_vertices: u64,
}

impl Default for ClugpConfig {
    fn default() -> Self {
        ClugpConfig {
            vmax_factor: 1.0,
            tau: 1.0,
            lambda: LambdaMode::Max,
            batch_size: 6400,
            threads: 0,
            splitting: true,
            migration: MigrationPolicy::Anchored,
            assign_mode: ClusterAssignMode::Game,
            max_vertices: crate::vertex_table::DEFAULT_MAX_VERTICES,
        }
    }
}

impl ClugpConfig {
    /// Maximum cluster volume for a stream of `m` edges and `k` partitions.
    /// At least 2 so a single edge cannot overflow a fresh cluster.
    pub fn vmax(&self, m: u64, k: u32) -> u64 {
        (((m as f64) * self.vmax_factor / f64::from(k)).ceil() as u64).max(2)
    }

    /// Checks parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.tau.is_nan() || self.tau < 1.0 {
            return Err(PartitionError::InvalidParam(format!(
                "imbalance factor tau must be >= 1.0, got {}",
                self.tau
            )));
        }
        if self.vmax_factor.is_nan() || self.vmax_factor <= 0.0 {
            return Err(PartitionError::InvalidParam(
                "vmax_factor must be positive".into(),
            ));
        }
        if let LambdaMode::Weight(w) = self.lambda {
            if !(0.0 < w && w < 1.0) {
                return Err(PartitionError::InvalidParam(format!(
                    "relative weight must be in (0,1), got {w}"
                )));
            }
        }
        if self.max_vertices == 0 {
            return Err(PartitionError::InvalidParam(
                "max_vertices must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ClugpConfig::default();
        assert_eq!(c.vmax_factor, 1.0);
        assert_eq!(c.tau, 1.0);
        assert_eq!(c.batch_size, 6400);
        assert!(c.splitting);
        assert_eq!(c.assign_mode, ClusterAssignMode::Game);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn vmax_is_edges_over_k() {
        let c = ClugpConfig::default();
        assert_eq!(c.vmax(1_000, 10), 100);
        assert_eq!(c.vmax(1_001, 10), 101); // ceil
        assert_eq!(c.vmax(1, 10), 2); // floor of 2
    }

    #[test]
    fn rejects_bad_tau() {
        for tau in [0.9, f64::NAN] {
            let c = ClugpConfig {
                tau,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "tau {tau}");
        }
    }

    #[test]
    fn rejects_bad_weight() {
        for w in [0.0, 1.0, -0.5, 2.0] {
            let c = ClugpConfig {
                lambda: LambdaMode::Weight(w),
                ..Default::default()
            };
            assert!(c.validate().is_err(), "weight {w} should be rejected");
        }
        let ok = ClugpConfig {
            lambda: LambdaMode::Weight(0.3),
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn rejects_nonpositive_vmax_factor() {
        for vmax_factor in [0.0, f64::NAN] {
            let c = ClugpConfig {
                vmax_factor,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "vmax_factor {vmax_factor}");
        }
    }
}
