//! The one description every one-pass baseline is written against.
//!
//! Hashing, Grid, DBH, Greedy and HDRF all have the same shape: per edge,
//! read a little per-vertex state plus the load vector, pick a partition,
//! update. An [`EdgeKernel`] states exactly that — which vertex tables it
//! shares ([`SharedTable`]: row width, relaxed [`MergeOp`], row
//! import/export), whether it reads the loads, and its per-edge `step` —
//! and three generic drivers, monomorphised over the kernel, run it:
//!
//! * [`run_local`] (here): tables in-process — the monolithic
//!   `Partitioner::partition` of every baseline;
//! * the *sequenced* AMPC driver (`ampc::worker`): tables resident for the
//!   stage — import a row from its owning shard at first touch, step, and
//!   export every touched row once at the end;
//! * the *relaxed* AMPC driver (`ampc::worker`): step against local
//!   tables, ship per-epoch deltas merged under each table's `MergeOp`.
//!
//! Because all three call the same `step`, every configuration the
//! sequenced driver runs is bit-identical to the monolith.

use crate::ampc::table::MergeOp;
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
    /// How relaxed workers' rows combine at an epoch barrier. `Add` tables
    /// ship the delta since the last barrier; the idempotent ops ship the
    /// current row.
    fn merge(&self) -> MergeOp;
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

/// Partial degrees: commutative sums.
impl SharedTable for VertexTable<u32> {
    fn width(&self) -> usize {
        1
    }
    fn merge(&self) -> MergeOp {
        MergeOp::Add
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

/// Replica masks: monotone under OR.
impl SharedTable for ReplicaTable {
    fn width(&self) -> usize {
        self.words_per_row()
    }
    fn merge(&self) -> MergeOp {
        MergeOp::BitOr
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
    /// Whether `step` reads `loads` (relaxed mode then has to reconcile the
    /// load vector between chunks even for a kernel with no tables).
    const READS_LOADS: bool;
    /// Whether relaxed AMPC workers have anything to reconcile at epoch
    /// barriers. A kernel that shares nothing runs relaxed exactly as it
    /// runs sequenced.
    const EPOCH_SYNCED: bool = Self::READS_LOADS || Self::TABLES > 0;

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
