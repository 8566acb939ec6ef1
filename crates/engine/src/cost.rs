//! Network/compute cost model turning measured execution statistics into
//! wall-clock and volume estimates (the Fig. 8 quantities).
//!
//! The model is deliberately simple and fully documented: per superstep,
//! compute time is the *maximum* per-machine work (BSP barrier), and
//! communication time is two message rounds (gather partials, value sync)
//! of `RTT + max-machine bytes / bandwidth`. Constants approximate the
//! paper's testbed (Xeon cores, dockerized GbE with PUMBA-injected RTT);
//! absolute seconds are indicative, trends are the claim.

use crate::stats::ExecutionStats;
use std::time::Duration;

/// Tunable cost constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Gather cost per scanned edge.
    pub edge_process_ns: f64,
    /// Apply cost per master vertex.
    pub vertex_apply_ns: f64,
    /// Wire size of one mirror↔master message (payload + framing).
    pub bytes_per_message: u64,
    /// Per-machine NIC bandwidth in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Round-trip network latency (the PUMBA knob of Fig. 8(c)).
    pub rtt: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            edge_process_ns: 8.0,
            vertex_apply_ns: 20.0,
            bytes_per_message: 100,
            bandwidth_bytes_per_sec: 125_000_000.0, // 1 Gbps
            rtt: Duration::from_millis(10),
        }
    }
}

/// A cost estimate for one execution.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// Σ over supersteps of the slowest machine's gather+apply time.
    pub compute_secs: f64,
    /// Σ over supersteps of message-round time (2·RTT + max bytes/bw).
    pub communication_secs: f64,
    /// Total bytes moved over the network.
    pub total_bytes: u64,
    /// Total messages.
    pub total_messages: u64,
    /// Number of supersteps.
    pub supersteps: usize,
}

impl CostEstimate {
    /// End-to-end estimated runtime.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.communication_secs
    }
}

impl CostModel {
    /// Estimates runtime and network volume for `stats`.
    pub fn estimate(&self, stats: &ExecutionStats) -> CostEstimate {
        let mut compute = 0.0f64;
        let mut comm = 0.0f64;
        let mut bytes = 0u64;
        let mut messages = 0u64;
        for step in &stats.supersteps {
            // BSP: the barrier waits for the slowest machine.
            let worst_machine = (0..step.gather_edges.len())
                .map(|i| {
                    step.gather_edges[i] as f64 * self.edge_process_ns
                        + step.apply_vertices[i] as f64 * self.vertex_apply_ns
                })
                .fold(0.0, f64::max);
            compute += worst_machine * 1e-9;

            let step_messages = step.total_messages();
            let step_bytes = step_messages * self.bytes_per_message;
            let max_machine_bytes = step.max_machine_messages() * self.bytes_per_message;
            messages += step_messages;
            bytes += step_bytes;
            // Two message rounds per superstep: gather partials, value sync.
            comm += 2.0 * self.rtt.as_secs_f64()
                + max_machine_bytes as f64 / self.bandwidth_bytes_per_sec;
        }
        CostEstimate {
            compute_secs: compute,
            communication_secs: comm,
            total_bytes: bytes,
            total_messages: messages,
            supersteps: stats.supersteps.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SuperstepStats;

    fn one_step() -> ExecutionStats {
        let mut s = SuperstepStats::new(2);
        s.gather_edges = vec![1_000, 3_000];
        s.apply_vertices = vec![100, 50];
        s.gather_messages = vec![10, 20];
        s.sync_messages = vec![5, 5];
        ExecutionStats {
            supersteps: vec![s],
        }
    }

    #[test]
    fn compute_uses_slowest_machine() {
        let model = CostModel {
            edge_process_ns: 10.0,
            vertex_apply_ns: 0.0,
            ..Default::default()
        };
        let est = model.estimate(&one_step());
        // Machine 1 is slowest: 3000 edges × 10ns = 30µs.
        assert!((est.compute_secs - 30e-6).abs() < 1e-9);
    }

    #[test]
    fn bytes_and_messages_counted() {
        let model = CostModel {
            bytes_per_message: 100,
            ..Default::default()
        };
        let est = model.estimate(&one_step());
        assert_eq!(est.total_messages, 40);
        assert_eq!(est.total_bytes, 4_000);
    }

    #[test]
    fn latency_scales_with_supersteps() {
        let stats = ExecutionStats {
            supersteps: vec![SuperstepStats::new(1); 5],
        };
        let model = CostModel {
            rtt: Duration::from_millis(100),
            ..Default::default()
        };
        let est = model.estimate(&stats);
        // 5 supersteps × 2 rounds × 100ms RTT.
        assert!((est.communication_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_rtt_costs_more() {
        let stats = one_step();
        let fast = CostModel {
            rtt: Duration::from_millis(10),
            ..Default::default()
        }
        .estimate(&stats);
        let slow = CostModel {
            rtt: Duration::from_millis(100),
            ..Default::default()
        }
        .estimate(&stats);
        assert!(slow.total_secs() > fast.total_secs());
    }

    #[test]
    fn empty_run_costs_nothing() {
        let est = CostModel::default().estimate(&ExecutionStats::default());
        assert_eq!(est.total_secs(), 0.0);
        assert_eq!(est.total_bytes, 0);
    }
}
