//! Execution statistics: per-superstep and aggregate message/work counts,
//! the raw material for the cost model.

/// Counters for one bulk-synchronous superstep.
#[derive(Debug, Clone, Default)]
pub struct SuperstepStats {
    /// Edges scanned during gather, per machine.
    pub gather_edges: Vec<u64>,
    /// Vertex apply operations, per machine (masters only).
    pub apply_vertices: Vec<u64>,
    /// Gather-accumulator messages sent mirror → master, per source machine.
    pub gather_messages: Vec<u64>,
    /// Value-sync messages sent master → mirror, per source machine.
    pub sync_messages: Vec<u64>,
}

impl SuperstepStats {
    /// Creates zeroed counters for `k` machines.
    pub fn new(k: u32) -> Self {
        SuperstepStats {
            gather_edges: vec![0; k as usize],
            apply_vertices: vec![0; k as usize],
            gather_messages: vec![0; k as usize],
            sync_messages: vec![0; k as usize],
        }
    }

    /// Total messages (gather + sync) this superstep.
    pub fn total_messages(&self) -> u64 {
        self.gather_messages.iter().sum::<u64>() + self.sync_messages.iter().sum::<u64>()
    }

    /// Maximum per-machine messages (the BSP bottleneck machine).
    pub fn max_machine_messages(&self) -> u64 {
        (0..self.gather_messages.len())
            .map(|i| self.gather_messages[i] + self.sync_messages[i])
            .max()
            .unwrap_or(0)
    }

    /// Maximum per-machine gather work (edges scanned).
    pub fn max_machine_edges(&self) -> u64 {
        self.gather_edges.iter().copied().max().unwrap_or(0)
    }
}

/// Aggregate statistics of a full vertex-program execution.
#[derive(Debug, Clone, Default)]
pub struct ExecutionStats {
    /// One entry per executed superstep.
    pub supersteps: Vec<SuperstepStats>,
}

impl ExecutionStats {
    /// Number of supersteps executed.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Total messages over the whole run.
    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.total_messages()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_totals() {
        let mut s = SuperstepStats::new(2);
        s.gather_messages = vec![3, 1];
        s.sync_messages = vec![2, 2];
        assert_eq!(s.total_messages(), 8);
        assert_eq!(s.max_machine_messages(), 5);
    }

    #[test]
    fn max_machine_edges() {
        let mut s = SuperstepStats::new(3);
        s.gather_edges = vec![5, 9, 2];
        assert_eq!(s.max_machine_edges(), 9);
    }

    #[test]
    fn aggregate_over_supersteps() {
        let mut a = SuperstepStats::new(1);
        a.gather_messages = vec![4];
        let mut b = SuperstepStats::new(1);
        b.sync_messages = vec![6];
        let stats = ExecutionStats {
            supersteps: vec![a, b],
        };
        assert_eq!(stats.num_supersteps(), 2);
        assert_eq!(stats.total_messages(), 10);
    }

    #[test]
    fn empty_stats() {
        let s = ExecutionStats::default();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.num_supersteps(), 0);
    }
}
