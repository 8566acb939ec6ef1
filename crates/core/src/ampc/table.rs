//! Keyspace-sharded row tables and the merge ops rows combine under.
//!
//! A [`StateShard`] is one slice of a table whose rows (fixed-width `u64`
//! words) are spread over shards by a range [`Layout`]; the engine's replica
//! scatter builds a placement's replica table on them. [`MergeOp`] is how
//! rows combine, there and at a relaxed epoch barrier. Rows default to
//! all-zero words, so tables encode "absent" as zero.

use crate::error::{PartitionError, Result};
use crate::vertex_table::VertexTable;

/// How a table's key space maps onto shards: contiguous dense ranges, shard
/// `w` owning `[w*span, (w+1)*span)`, the last one open-ended so keys past
/// the vertex-count hint still have an owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Keys per shard (`ceil(max(hint,1)/workers)`).
    pub span: u64,
}

impl Layout {
    /// Range layout sized so `workers` shards cover `hint` keys.
    pub fn range_for(hint: u64, workers: u32) -> Layout {
        let span = hint.max(1).div_ceil(u64::from(workers.max(1))).max(1);
        Layout { span }
    }

    /// The worker that owns `key`.
    pub fn owner(&self, key: u64, workers: u32) -> u32 {
        let w = u64::from(workers.max(1));
        (key / self.span.max(1)).min(w - 1) as u32
    }

    /// The first key of the shard `worker` owns.
    pub fn base(&self, worker: u32) -> u64 {
        u64::from(worker) * self.span
    }
}

/// How an upsert combines an incoming row with the stored row, word by
/// word. `Add`, `Max`, and `BitOr` are commutative and associative, so
/// batches carrying only those ops may be applied in any order without
/// changing the final table — the property the distributed equivalence
/// proptest pins down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// Overwrite the row.
    Put,
    /// Wrapping per-word addition.
    Add,
    /// Per-word maximum.
    Max,
    /// Per-word bitwise OR.
    BitOr,
}

impl MergeOp {
    /// Wire tag for this op.
    pub fn tag(self) -> u8 {
        match self {
            MergeOp::Put => 0,
            MergeOp::Add => 1,
            MergeOp::Max => 2,
            MergeOp::BitOr => 3,
        }
    }

    /// Decodes a wire tag; `None` for unknown tags.
    pub fn from_tag(t: u8) -> Option<MergeOp> {
        Some(match t {
            0 => MergeOp::Put,
            1 => MergeOp::Add,
            2 => MergeOp::Max,
            3 => MergeOp::BitOr,
            _ => return None,
        })
    }

    pub(crate) fn apply(self, dst: &mut [u64], src: &[u64]) {
        match self {
            MergeOp::Put => dst.copy_from_slice(src),
            MergeOp::Add => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = d.wrapping_add(*s);
                }
            }
            MergeOp::Max => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = (*d).max(*s);
                }
            }
            MergeOp::BitOr => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d |= *s;
                }
            }
        }
    }
}

/// One slice of a sharded table: fixed-width rows of `u64` words, keyed by
/// the global key, stored densely in a [`VertexTable`] offset by the shard
/// base.
#[derive(Debug)]
pub struct StateShard {
    width: usize,
    lo: u64,
    rows: VertexTable<u64>,
}

impl StateShard {
    /// Dense shard owning keys `>= lo`, `width` words per row.
    pub fn range(lo: u64, width: usize) -> StateShard {
        StateShard {
            width: width.max(1),
            lo,
            rows: VertexTable::new(0, 0).expect("zero-hint table always fits"),
        }
    }

    /// Merges one row into the shard.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidParam`] if `key` lies below the shard's
    /// base or its row would land past the vertex-table limit.
    pub fn upsert(&mut self, key: u64, merge: MergeOp, vals: &[u64]) -> Result<()> {
        let width = self.width;
        debug_assert_eq!(vals.len(), width);
        let past_limit = || bad_key(key, "is past the vertex-table limit");
        let rel = key
            .checked_sub(self.lo)
            .ok_or_else(|| bad_key(key, &format!("is below the shard base {}", self.lo)))?;
        let end = rel
            .checked_add(1)
            .and_then(|r| r.checked_mul(width as u64))
            .ok_or_else(past_limit)?;
        self.rows.ensure_len(end).map_err(|_| past_limit())?;
        let e = end as usize;
        merge.apply(&mut self.rows.as_mut_slice()[e - width..e], vals);
        Ok(())
    }

    /// Merges a batch: `rows` is `keys.len()` rows of `width` words,
    /// flattened.
    ///
    /// # Errors
    ///
    /// The first [`StateShard::upsert`] failure; rows before it stay merged.
    pub fn upsert_batch(&mut self, merge: MergeOp, keys: &[u64], rows: &[u64]) -> Result<()> {
        debug_assert_eq!(rows.len(), keys.len() * self.width);
        for (&key, row) in keys.iter().zip(rows.chunks_exact(self.width)) {
            self.upsert(key, merge, row)?;
        }
        Ok(())
    }

    /// Visits every stored row in ascending key order; rows never written
    /// below the highest one read as zeros.
    pub fn scan(&self, mut f: impl FnMut(u64, &[u64])) {
        for (r, row) in self.rows.as_slice().chunks_exact(self.width).enumerate() {
            f(self.lo + r as u64, row);
        }
    }

    /// Number of stored rows.
    pub fn rows(&self) -> u64 {
        self.rows.len() / self.width as u64
    }
}

fn bad_key(key: u64, why: &str) -> PartitionError {
    PartitionError::InvalidParam(format!("state key {key} {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanned(shard: &StateShard) -> Vec<(u64, Vec<u64>)> {
        let mut seen = Vec::new();
        shard.scan(|key, row| seen.push((key, row.to_vec())));
        seen
    }

    #[test]
    fn range_owner_covers_tail() {
        let l = Layout::range_for(10, 4);
        assert_eq!(l, Layout { span: 3 });
        assert_eq!(l.owner(0, 4), 0);
        assert_eq!(l.owner(9, 4), 3);
        // Keys past the hint still route to the last shard.
        assert_eq!(l.owner(1_000_000, 4), 3);
        assert_eq!(l.base(2), 6);
    }

    #[test]
    fn absent_rows_read_as_zero() {
        // Rows between the base and the highest written key were never
        // written; the scan still visits them, as zeros of full width.
        let mut shard = StateShard::range(100, 2);
        shard.upsert(103, MergeOp::Put, &[5, 6]).unwrap();
        assert_eq!(shard.rows(), 4);
        assert_eq!(
            scanned(&shard),
            vec![
                (100, vec![0, 0]),
                (101, vec![0, 0]),
                (102, vec![0, 0]),
                (103, vec![5, 6]),
            ]
        );
    }

    #[test]
    fn scan_is_ascending_for_both_stores() {
        // Rows stored one at a time, out of order, scan ascending.
        let mut r = StateShard::range(10, 1);
        r.upsert(12, MergeOp::Put, &[2]).unwrap();
        r.upsert(10, MergeOp::Put, &[1]).unwrap();
        assert_eq!(
            scanned(&r),
            vec![(10, vec![1]), (11, vec![0]), (12, vec![2])]
        );

        // Rows stored as one descending batch scan ascending too.
        let mut b = StateShard::range(8, 2);
        b.upsert_batch(MergeOp::Put, &[10, 9, 8], &[30, 31, 20, 21, 10, 11])
            .unwrap();
        assert_eq!(
            scanned(&b),
            vec![(8, vec![10, 11]), (9, vec![20, 21]), (10, vec![30, 31])]
        );
    }

    #[test]
    fn upsert_merges_per_word() {
        let mut s = StateShard::range(7, 2);
        s.upsert(7, MergeOp::Add, &[3, 1]).unwrap();
        s.upsert(7, MergeOp::Add, &[4, 0]).unwrap();
        s.upsert(7, MergeOp::Max, &[5, 9]).unwrap();
        s.upsert(7, MergeOp::BitOr, &[0b1000, 0]).unwrap();
        assert_eq!(scanned(&s), vec![(7, vec![7 | 0b1000, 9])]);
    }

    #[test]
    fn out_of_range_keys_are_typed_errors_not_panics() {
        let mut shard = StateShard::range(100, 3);
        let below = shard.upsert(99, MergeOp::Put, &[1, 2, 3]).unwrap_err();
        assert!(
            below.to_string().contains("below the shard base"),
            "{below}"
        );
        assert!(shard.upsert(0, MergeOp::Put, &[1, 2, 3]).is_err());
        // Past the limit: cannot be written, and nothing was stored.
        let past = shard
            .upsert(u64::MAX, MergeOp::Put, &[1, 2, 3])
            .unwrap_err();
        assert!(past.to_string().contains("vertex-table limit"), "{past}");
        assert_eq!(shard.rows(), 0);
    }
}
