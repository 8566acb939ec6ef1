//! Partitioning results: the edge→partition assignment plus run metadata
//! (phase timings, memory report).

use crate::memory::MemoryReport;
use std::time::Duration;

/// The most partitions a partitioning file or the CLI's `--k` may name. `k`
/// sizes the load vector, so a reader holds the four header bytes against
/// this before it allocates (2^20 loads are 8 MiB; the paper runs k ≤ 256).
pub const MAX_PARTITIONS: u32 = 1 << 20;

/// The output of a vertex-cut streaming partitioner.
///
/// `assignments[i]` is the partition of the `i`-th edge *in stream order*
/// (the order the stream yielded edges during the run). Callers that built
/// the stream from an edge vector can zip the two to recover `(Edge, p)`
/// pairs; that is how [`crate::metrics::PartitionQuality`] and the GAS
/// engine consume it.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Number of partitions.
    pub k: u32,
    /// Number of vertices of the streamed graph.
    pub num_vertices: u64,
    /// Per-edge partition id, aligned with stream order.
    pub assignments: Vec<u32>,
    /// Per-partition edge counts (`|p_i|`).
    pub loads: Vec<u64>,
}

impl Partitioning {
    /// Number of edges assigned.
    pub fn num_edges(&self) -> u64 {
        self.assignments.len() as u64
    }

    /// Relative load balance `k · max|p_i| / |E|` (paper §II-B). 0 for an
    /// empty graph.
    pub fn relative_balance(&self) -> f64 {
        let m = self.num_edges();
        if m == 0 {
            return 0.0;
        }
        let max = self.loads.iter().copied().max().unwrap_or(0);
        self.k as f64 * max as f64 / m as f64
    }

    /// Validates internal consistency: every assignment is `< k` and the
    /// load vector matches the assignment counts. Used by tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.loads.len() != self.k as usize {
            return Err(format!(
                "loads has {} entries for k={}",
                self.loads.len(),
                self.k
            ));
        }
        let mut recount = vec![0u64; self.k as usize];
        for (i, &p) in self.assignments.iter().enumerate() {
            if p >= self.k {
                return Err(format!("edge {i} assigned to out-of-range partition {p}"));
            }
            recount[p as usize] += 1;
        }
        if recount != self.loads {
            return Err("load vector disagrees with assignments".to_string());
        }
        Ok(())
    }
}

/// Wall-clock timings of a partitioning run.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// End-to-end duration.
    pub total: Duration,
    /// Named phases (e.g. CLUGP's `clustering` / `cluster-graph` / `game` /
    /// `transform`) in execution order.
    pub phases: Vec<(&'static str, Duration)>,
}

impl Timings {
    /// Duration of the named phase, if recorded.
    pub fn phase(&self, name: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
    }
}

/// Everything a partitioning run produces.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// The edge assignment.
    pub partitioning: Partitioning,
    /// Peak footprint of the algorithm's internal state.
    pub memory: MemoryReport,
    /// Wall-clock timings.
    pub timings: Timings,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Partitioning {
        Partitioning {
            k: 2,
            num_vertices: 3,
            assignments: vec![0, 1, 1],
            loads: vec![1, 2],
        }
    }

    #[test]
    fn balance_formula() {
        let p = sample();
        // k*max/|E| = 2*2/3
        assert!((p.relative_balance() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_balance_is_zero() {
        let p = Partitioning {
            k: 4,
            num_vertices: 0,
            assignments: vec![],
            loads: vec![0; 4],
        };
        assert_eq!(p.relative_balance(), 0.0);
    }

    #[test]
    fn validate_accepts_consistent() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_load_vector() {
        let mut p = sample();
        p.loads = vec![2, 1];
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut p = sample();
        p.assignments[0] = 9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn timings_phase_lookup() {
        let t = Timings {
            total: Duration::from_secs(10),
            phases: vec![("clustering", Duration::from_secs(4))],
        };
        assert_eq!(t.phase("clustering"), Some(Duration::from_secs(4)));
        assert_eq!(t.phase("game"), None);
    }
}
