//! The synchronous GAS engine.
//!
//! One superstep = Gather (each machine scans its local edges, producing
//! partial accumulators; mirrors ship partials to masters), Apply (masters
//! compute new vertex values), Scatter/Sync (masters ship changed values
//! back to mirrors). Computation is exact — results are bit-for-bit
//! deterministic given the placement — while every mirror↔master message is
//! counted for the cost model.

use crate::placement::{DistributedGraph, NOT_LOCAL};
use crate::stats::{ExecutionStats, SuperstepStats};
use clugp_graph::types::VertexId;

/// Which neighbor values a vertex gathers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherDirection {
    /// Gather along in-edges (e.g. PageRank: contributions flow src → dst).
    In,
    /// Gather along both (undirected semantics, e.g. connected components).
    Both,
}

/// Static per-vertex context available to programs.
#[derive(Debug, Clone, Copy)]
pub struct VertexCtx {
    /// Global out-degree.
    pub out_degree: u64,
    /// Global in-degree.
    pub in_degree: u64,
}

/// A GAS vertex program (PowerGraph's abstraction).
pub trait VertexProgram {
    /// Per-vertex state.
    type Value: Clone + PartialEq + Send + Sync;
    /// Gather accumulator (commutative-associative under [`Self::merge`]).
    type Accum: Clone + Send;

    /// Gather direction.
    fn direction(&self) -> GatherDirection;

    /// Initial value of vertex `v`.
    fn init(&self, v: VertexId, ctx: &VertexCtx) -> Self::Value;

    /// Contribution of a neighbor's value along one edge.
    fn gather(&self, neighbor: &Self::Value, neighbor_ctx: &VertexCtx) -> Self::Accum;

    /// Folds `b` into `a`.
    fn merge(&self, a: &mut Self::Accum, b: Self::Accum);

    /// Computes the new value of `v` from the merged accumulator (`None`
    /// when no edge contributed this superstep).
    fn apply(
        &self,
        v: VertexId,
        old: &Self::Value,
        acc: Option<Self::Accum>,
        ctx: &VertexCtx,
    ) -> Self::Value;

    /// Whether to stop as soon as no vertex value changes.
    fn halt_on_fixpoint(&self) -> bool {
        true
    }

    /// Hard cap on supersteps.
    fn max_supersteps(&self) -> usize;
}

/// The engine: binds a placed graph with precomputed degrees.
#[derive(Debug)]
pub struct Engine<'g> {
    graph: &'g DistributedGraph,
    ctx: Vec<VertexCtx>,
    replica_count: Vec<u32>,
}

impl<'g> Engine<'g> {
    /// Prepares an engine over `graph` (one pass to compute degrees and
    /// replica counts).
    pub fn new(graph: &'g DistributedGraph) -> Self {
        let n = graph.num_vertices as usize;
        let mut ctx = vec![
            VertexCtx {
                out_degree: 0,
                in_degree: 0
            };
            n
        ];
        let mut replica_count = vec![0u32; n];
        for m in &graph.machines {
            for &(sl, dl) in &m.edges {
                ctx[m.vertices[sl as usize] as usize].out_degree += 1;
                ctx[m.vertices[dl as usize] as usize].in_degree += 1;
            }
            for &v in &m.vertices {
                replica_count[v as usize] += 1;
            }
        }
        Engine {
            graph,
            ctx,
            replica_count,
        }
    }

    /// Per-vertex static context.
    pub fn vertex_ctx(&self) -> &[VertexCtx] {
        &self.ctx
    }

    /// Runs `program` to completion; returns final vertex values and the
    /// per-superstep statistics.
    pub fn run<P: VertexProgram>(&self, program: &P) -> (Vec<P::Value>, ExecutionStats) {
        let g = self.graph;
        let n = g.num_vertices as usize;
        let mut values: Vec<P::Value> = (0..n as u32)
            .map(|v| program.init(v, &self.ctx[v as usize]))
            .collect();
        let mut stats = ExecutionStats::default();

        for _ in 0..program.max_supersteps() {
            let t_step = if clugp_obs::enabled() {
                clugp_obs::now_us()
            } else {
                0
            };
            let mut step = SuperstepStats::new(g.k);
            // Merged accumulators per global vertex, in deterministic
            // machine order.
            let mut accums: Vec<Option<P::Accum>> = vec![None; n];

            for (mi, m) in g.machines.iter().enumerate() {
                // Local partials per local vertex.
                let mut partial: Vec<Option<P::Accum>> = vec![None; m.vertices.len()];
                let mut scanned = 0u64;
                for &(sl, dl) in &m.edges {
                    scanned += 1;
                    let sg = m.vertices[sl as usize];
                    let dg = m.vertices[dl as usize];
                    match program.direction() {
                        GatherDirection::In => {
                            contribute::<P>(
                                program,
                                &mut partial[dl as usize],
                                &values[sg as usize],
                                &self.ctx[sg as usize],
                            );
                        }
                        GatherDirection::Both => {
                            contribute::<P>(
                                program,
                                &mut partial[dl as usize],
                                &values[sg as usize],
                                &self.ctx[sg as usize],
                            );
                            contribute::<P>(
                                program,
                                &mut partial[sl as usize],
                                &values[dg as usize],
                                &self.ctx[dg as usize],
                            );
                        }
                    }
                }
                step.gather_edges[mi] = scanned;

                // Ship partials: mirrors message their master, master-local
                // partials merge free of charge.
                for (li, part) in partial.into_iter().enumerate() {
                    let Some(part) = part else { continue };
                    let gv = m.vertices[li] as usize;
                    if !m.is_master[li] {
                        step.gather_messages[mi] += 1;
                    }
                    match &mut accums[gv] {
                        Some(acc) => program.merge(acc, part),
                        slot @ None => *slot = Some(part),
                    }
                }
            }

            // Apply at masters; sync changed values to mirrors.
            let mut changed = 0u64;
            for v in 0..n {
                let new = program.apply(v as u32, &values[v], accums[v].take(), &self.ctx[v]);
                if new != values[v] {
                    changed += 1;
                    let master = g.master_of[v];
                    if master != NOT_LOCAL {
                        // One sync message per mirror replica.
                        let mirrors = u64::from(self.replica_count[v]) - 1;
                        step.sync_messages[master as usize] += mirrors;
                    }
                    values[v] = new;
                }
                let master = g.master_of[v];
                if master != NOT_LOCAL {
                    step.apply_vertices[master as usize] += 1;
                }
            }
            step.active_vertices = changed;
            if clugp_obs::enabled() {
                clugp_obs::record_span("superstep", t_step, changed);
            }
            stats.supersteps.push(step);
            if changed == 0 && program.halt_on_fixpoint() {
                break;
            }
        }
        (values, stats)
    }
}

fn contribute<P: VertexProgram>(
    program: &P,
    slot: &mut Option<P::Accum>,
    neighbor: &P::Value,
    ctx: &VertexCtx,
) {
    let c = program.gather(neighbor, ctx);
    match slot {
        Some(acc) => program.merge(acc, c),
        None => *slot = Some(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clugp::Partitioning;
    use clugp_graph::types::Edge;

    /// Sums in-neighbor ids once (1 superstep) — a minimal gather check.
    struct SumInIds;

    impl VertexProgram for SumInIds {
        type Value = u64;
        type Accum = u64;

        fn direction(&self) -> GatherDirection {
            GatherDirection::In
        }

        fn init(&self, v: VertexId, _ctx: &VertexCtx) -> u64 {
            u64::from(v)
        }

        fn gather(&self, neighbor: &u64, _ctx: &VertexCtx) -> u64 {
            *neighbor
        }

        fn merge(&self, a: &mut u64, b: u64) {
            *a += b;
        }

        fn apply(&self, _v: VertexId, _old: &u64, acc: Option<u64>, _ctx: &VertexCtx) -> u64 {
            acc.unwrap_or(0)
        }

        fn max_supersteps(&self) -> usize {
            1
        }
    }

    fn placed(edges: &[Edge], k: u32, assignments: Vec<u32>) -> DistributedGraph {
        let n = clugp_graph::types::implied_num_vertices(edges);
        let mut loads = vec![0u64; k as usize];
        for &p in &assignments {
            loads[p as usize] += 1;
        }
        let p = Partitioning {
            k,
            num_vertices: n,
            assignments,
            loads,
        };
        DistributedGraph::place(edges, &p)
    }

    #[test]
    fn gather_sums_across_machines() {
        // 1→0 on machine 0, 2→0 on machine 1: vertex 0's accumulator must
        // merge partials from both machines.
        let edges = vec![Edge::new(1, 0), Edge::new(2, 0)];
        let d = placed(&edges, 2, vec![0, 1]);
        let engine = Engine::new(&d);
        let (values, stats) = engine.run(&SumInIds);
        assert_eq!(values[0], 1 + 2);
        // Vertex 0 is replicated on both machines: exactly one mirror
        // partial message.
        assert_eq!(stats.supersteps[0].gather_messages.iter().sum::<u64>(), 1);
    }

    #[test]
    fn degrees_computed_globally() {
        let edges = vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)];
        let d = placed(&edges, 2, vec![0, 1, 0]);
        let engine = Engine::new(&d);
        assert_eq!(engine.vertex_ctx()[0].out_degree, 2);
        assert_eq!(engine.vertex_ctx()[2].in_degree, 2);
    }

    #[test]
    fn fixpoint_halts_early() {
        // SumInIds with no edges: values become 0 after step 1, stay 0.
        struct Stable;
        impl VertexProgram for Stable {
            type Value = u64;
            type Accum = u64;
            fn direction(&self) -> GatherDirection {
                GatherDirection::In
            }
            fn init(&self, _v: VertexId, _c: &VertexCtx) -> u64 {
                7
            }
            fn gather(&self, n: &u64, _c: &VertexCtx) -> u64 {
                *n
            }
            fn merge(&self, a: &mut u64, b: u64) {
                *a = (*a).max(b);
            }
            fn apply(&self, _v: VertexId, old: &u64, _acc: Option<u64>, _c: &VertexCtx) -> u64 {
                *old
            }
            fn max_supersteps(&self) -> usize {
                100
            }
        }
        let edges = vec![Edge::new(0, 1)];
        let d = placed(&edges, 1, vec![0]);
        let engine = Engine::new(&d);
        let (_, stats) = engine.run(&Stable);
        assert_eq!(stats.num_supersteps(), 1, "should halt at first fixpoint");
    }

    #[test]
    fn sync_messages_follow_replication() {
        // Vertex 0 on 3 machines: a change to it costs 2 sync messages.
        let edges = vec![Edge::new(1, 0), Edge::new(2, 0), Edge::new(3, 0)];
        let d = placed(&edges, 3, vec![0, 1, 2]);
        let engine = Engine::new(&d);
        let (_, stats) = engine.run(&SumInIds);
        let step = &stats.supersteps[0];
        let total_sync: u64 = step.sync_messages.iter().sum();
        // v0 changed (0 → 6) with 3 replicas (2 mirrors); v1, v2, v3 changed
        // from id → 0 with 1 replica each (0 mirrors).
        assert_eq!(total_sync, 2);
    }
}
