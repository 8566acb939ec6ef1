//! The one description every one-pass baseline is written against.
//!
//! Hashing, DBH, Greedy and HDRF all have the same shape: per edge,
//! read a little per-vertex state plus the load vector, pick a partition,
//! update. An [`EdgeKernel`] states exactly that — which vertex tables it
//! shares ([`SharedTable`]: row width, cap, row import/export), whether it
//! reads the loads, and its per-edge `step` — and two generic drivers,
//! monomorphised over the kernel, run it:
//!
//! * [`run_local`] (here): tables in-process — the monolithic
//!   `Partitioner::partition` of every baseline;
//! * the *sequenced* AMPC driver (`ampc::worker`): tables lent by the turn
//!   before — import every row it handed on, step, and hand every non-zero
//!   row on to the next turn.
//!
//! Because both call the same `step`, every configuration the sequenced
//! driver runs is bit-identical to the monolith.

use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::{PartitionRun, Partitioning, Timings};
use crate::partitioner::{finish_run, start_run};
use crate::state::{PartitionLoads, ReplicaTable};
use crate::vertex_table::{check_cap, VertexTable};
use clugp_graph::stream::{chunk_edges, try_for_each_chunk, RestreamableStream};
use clugp_graph::types::{Edge, VertexId};

/// A per-vertex table a kernel shares across workers: rows of `width`
/// words keyed by vertex id.
pub(crate) trait SharedTable {
    /// Words per row.
    fn width(&self) -> usize;
    /// Whether the rows are partial degrees, which each edge bumps at both
    /// ends: a turn state's rows of such a table sum to twice its edges.
    fn counts_degrees(&self) -> bool {
        false
    }
    /// The sizing check the table's constructor applies to a vertex-count
    /// hint, for callers that size nothing (the AMPC coordinator).
    fn check_hint(&self, n: u64) -> Result<()>;
    /// The `max_vertices` cap: `ensure` fails for ids at or past it.
    fn limit(&self) -> u64;
    /// Grows the table to cover `v`.
    fn ensure(&mut self, v: VertexId) -> Result<()>;
    /// Overwrites `v`'s row (`v` must be ensured).
    fn import(&mut self, v: VertexId, row: &[u64]);
    /// Copies `v`'s row into `out` (`v` must be ensured).
    fn export(&self, v: VertexId, out: &mut [u64]);
    /// One past the highest ensured vertex id.
    fn len(&self) -> u64;
    /// Adds the table's heap footprint to `memory` under its name.
    fn report(&self, memory: &mut MemoryReport);
}

/// Partial degrees.
impl SharedTable for VertexTable<u32> {
    fn width(&self) -> usize {
        1
    }
    fn counts_degrees(&self) -> bool {
        true
    }
    fn check_hint(&self, n: u64) -> Result<()> {
        check_cap("num_vertices hint", n, self.limit())
    }
    fn limit(&self) -> u64 {
        VertexTable::limit(self)
    }
    fn ensure(&mut self, v: VertexId) -> Result<()> {
        VertexTable::ensure(self, v)
    }
    fn import(&mut self, v: VertexId, row: &[u64]) {
        self[v] = row[0] as u32;
    }
    fn export(&self, v: VertexId, out: &mut [u64]) {
        out[0] = u64::from(self[v]);
    }
    fn len(&self) -> u64 {
        VertexTable::len(self)
    }
    fn report(&self, memory: &mut MemoryReport) {
        memory.add("degrees", self.memory_bytes());
    }
}

/// Replica masks.
impl SharedTable for ReplicaTable {
    fn width(&self) -> usize {
        self.words_per_row()
    }
    fn check_hint(&self, n: u64) -> Result<()> {
        check_cap("num_vertices", n, self.limit())
    }
    fn limit(&self) -> u64 {
        ReplicaTable::limit(self)
    }
    fn ensure(&mut self, v: VertexId) -> Result<()> {
        self.ensure_vertices(u64::from(v) + 1)
    }
    fn import(&mut self, v: VertexId, row: &[u64]) {
        self.import_row(v, row);
    }
    fn export(&self, v: VertexId, out: &mut [u64]) {
        self.export_row(v, out);
    }
    fn len(&self) -> u64 {
        self.num_vertices()
    }
    fn report(&self, memory: &mut MemoryReport) {
        memory.add("replica-table", self.memory_bytes());
    }
}

/// A one-pass streaming baseline, reduced to what differs between them.
pub(crate) trait EdgeKernel {
    /// Number of shared vertex tables; their AMPC slots are `0..TABLES`.
    const TABLES: usize = 0;
    /// Whether `step` reads `loads` (the memory report then counts them).
    const READS_LOADS: bool;

    /// The shared table in `slot`.
    fn table(&mut self, slot: usize) -> &mut dyn SharedTable {
        unreachable!("kernel declares no table slot {slot}")
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
    let mut num_vertices = n;
    for slot in 0..K::TABLES {
        let table = kernel.table(slot);
        table.report(&mut memory);
        num_vertices = num_vertices.max(table.len());
    }
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
