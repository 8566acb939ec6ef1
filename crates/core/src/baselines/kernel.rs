//! The one description every one-pass baseline is written against.
//!
//! Hashing, DBH, Greedy and HDRF all have the same shape: per edge,
//! read a little per-vertex state plus the load vector, pick a partition,
//! update. An [`EdgeKernel`] states exactly that — what the run reports of
//! the vertex tables it keeps, whether it reads the loads, and its
//! per-edge `step` — and one generic driver,
//! monomorphised over the kernel, runs it: [`run_local`], the monolithic
//! `Partitioner::partition` of every baseline.

use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::{PartitionRun, Partitioning, Timings};
use crate::partitioner::{finish_run, start_run};
use crate::state::PartitionLoads;
use clugp_graph::stream::{chunk_edges, try_for_each_chunk, RestreamableStream};
use clugp_graph::types::Edge;

/// A one-pass streaming baseline, reduced to what differs between them.
pub(crate) trait EdgeKernel {
    /// Whether `step` reads `loads` (the memory report then counts them).
    const READS_LOADS: bool;

    /// Adds the heap footprint of each vertex table the kernel keeps to
    /// `memory`, under its name, and returns one past the highest vertex id
    /// the tables cover (0 for a kernel without tables).
    fn report_tables(&self, _memory: &mut MemoryReport) -> u64 {
        0
    }

    /// Places one edge: grows the tables to cover it, updates them, and
    /// returns the partition. Counting the edge is [`Self::step_chunk`]'s.
    fn step(&mut self, e: Edge, loads: &PartitionLoads) -> Result<u32>;

    /// Steps a chunk in stream order, appending each edge's partition to
    /// `assignments` and counting it in `loads`.
    #[inline]
    fn step_chunk(
        &mut self,
        chunk: &[Edge],
        loads: &mut PartitionLoads,
        assignments: &mut Vec<u32>,
    ) -> Result<()> {
        for &e in chunk {
            let p = self.step(e, loads)?;
            assignments.push(p);
            loads.add(p);
        }
        Ok(())
    }
}

/// The local driver: `build(num_vertices_hint)` sizes the kernel's tables
/// in-process and the whole stream is stepped through them.
pub(crate) fn run_local<K: EdgeKernel>(
    stream: &mut dyn RestreamableStream,
    k: u32,
    build: impl FnOnce(u64) -> Result<K>,
) -> Result<PartitionRun> {
    let start = std::time::Instant::now();
    let (n, m) = start_run(stream, k)?;
    let mut kernel = build(n)?;
    let mut assignments = Vec::with_capacity(m as usize);
    let mut loads = PartitionLoads::new(k);
    try_for_each_chunk(stream, chunk_edges(), |chunk| {
        kernel.step_chunk(chunk, &mut loads, &mut assignments)
    })?;
    finish_run(stream, m, assignments.len())?;
    let mut memory = MemoryReport::new();
    let num_vertices = n.max(kernel.report_tables(&mut memory));
    if K::READS_LOADS {
        memory.add("loads", loads.memory_bytes());
    }
    Ok(PartitionRun {
        partitioning: Partitioning {
            k,
            num_vertices,
            assignments,
            loads: loads.into_vec(),
        },
        memory,
        timings: Timings {
            total: start.elapsed(),
            ..Default::default()
        },
    })
}
