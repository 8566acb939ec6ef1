//! Sharded replica scatter: builds the placement replica table through the
//! same keyspace-sharded state service the partitioning engine uses.
//!
//! The vertex keyspace is range-split over shard threads (one
//! [`StateShard`] each, fed by a bounded channel). Replica presence is a
//! bitset row merged with [`MergeOp::BitOr`] — a commutative merge, so the
//! resulting table is independent of batch arrival order (the property
//! `tests/distributed_equivalence.rs` pins) and the scatter can run fully
//! parallel without changing placement results.

use clugp::ampc::{Layout, MergeOp, StateShard};
use clugp::error::{PartitionError, Result};
use clugp::state::ReplicaTable;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

/// One batch of replica-bit updates: parallel `keys`/`rows` arrays, one
/// bitset row (`words_per_row` words) per key.
type Batch = (Vec<u64>, Vec<u64>);

/// A parallel builder for the placement [`ReplicaTable`].
///
/// Feed it `(vertex, partition-bitset)` batches from any thread order;
/// [`ReplicaScatter::finish`] joins the shards and assembles the table by
/// ascending vertex id.
pub struct ReplicaScatter {
    senders: Vec<SyncSender<Batch>>,
    handles: Vec<JoinHandle<StateShard>>,
    layout: Layout,
    k: u32,
    words: usize,
    /// Per-shard staging batches, flushed when they reach `flush_rows`.
    staged: Vec<Batch>,
    flush_rows: usize,
}

impl ReplicaScatter {
    /// Starts `shards` shard threads for an `n_hint`-vertex, `k`-partition
    /// replica table.
    pub fn new(n_hint: u64, k: u32, shards: usize) -> Self {
        let shards = shards.max(1);
        let layout = Layout::range_for(n_hint, shards as u32);
        let words = (k as usize).div_ceil(64).max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for s in 0..shards {
            let (tx, rx) = sync_channel::<Batch>(4);
            let mut shard = StateShard::range(layout.base(s as u32), words);
            handles.push(std::thread::spawn(move || {
                while let Ok((keys, rows)) = rx.recv() {
                    // `insert` routes by the shard's own layout, so no key
                    // is below the base; past the vertex-table limit this
                    // thread dies as it always has.
                    shard
                        .upsert_batch(MergeOp::BitOr, &keys, &rows)
                        .expect("scattered rows fit the owning shard");
                }
                shard
            }));
            senders.push(tx);
        }
        ReplicaScatter {
            senders,
            handles,
            layout,
            k,
            words,
            staged: vec![(Vec::new(), Vec::new()); shards],
            flush_rows: 4096,
        }
    }

    /// Words per bitset row (`ceil(k / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// Records "vertex `v` has a replica on partition `p`".
    pub fn insert(&mut self, v: u64, p: u32) {
        debug_assert!(p < self.k);
        let owner = self.layout.owner(v, self.senders.len() as u32) as usize;
        let (keys, rows) = &mut self.staged[owner];
        keys.push(v);
        let at = rows.len();
        rows.resize(at + self.words, 0);
        rows[at + (p as usize >> 6)] |= 1u64 << (p & 63);
        if keys.len() >= self.flush_rows {
            self.flush(owner);
        }
    }

    fn flush(&mut self, owner: usize) {
        let (keys, rows) = std::mem::take(&mut self.staged[owner]);
        if keys.is_empty() {
            return;
        }
        // A send only fails if the shard thread died; surface that in
        // `finish` where the join error is visible.
        let _ = self.senders[owner].send((keys, rows));
    }

    /// Drains the shards and assembles the replica table (ascending vertex
    /// id, shard by shard — range shards own contiguous key spans).
    pub fn finish(mut self) -> Result<ReplicaTable> {
        for owner in 0..self.staged.len() {
            self.flush(owner);
        }
        drop(std::mem::take(&mut self.senders));
        let mut table = ReplicaTable::new(0, self.k)?;
        for handle in self.handles {
            let shard = handle.join().map_err(|_| {
                PartitionError::InvalidParam("replica scatter shard thread panicked".into())
            })?;
            let mut failed = None;
            shard.scan(|key, row| {
                if failed.is_none() {
                    match table.ensure_vertices(key + 1) {
                        Ok(()) => table.import_row(key as u32, row),
                        Err(e) => failed = Some(e),
                    }
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_replica_table() {
        let k = 5;
        let inserts: Vec<(u64, u32)> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(2654435761) % 997, (i % u64::from(k)) as u32))
            .collect();
        let mut reference = ReplicaTable::new(0, k).unwrap();
        for &(v, p) in &inserts {
            reference.ensure_vertices(v + 1).unwrap();
            reference.insert(v as u32, p);
        }
        for shards in [1usize, 3, 8] {
            let mut scatter = ReplicaScatter::new(997, k, shards);
            for &(v, p) in &inserts {
                scatter.insert(v, p);
            }
            let table = scatter.finish().unwrap();
            assert_eq!(table.num_vertices(), reference.num_vertices());
            for v in 0..reference.num_vertices() as u32 {
                assert_eq!(
                    table.partitions_of(v).collect::<Vec<_>>(),
                    reference.partitions_of(v).collect::<Vec<_>>(),
                    "vertex {v} diverged with {shards} shards"
                );
            }
        }
    }
}
