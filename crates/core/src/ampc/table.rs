//! Keyspace-sharded state tables.
//!
//! A distributed run replaces the monolith's private `VertexTable`s /
//! `ReplicaTable` with named tables whose rows (fixed-width `u64` words)
//! are spread across workers. Each worker holds one [`StateShard`] per
//! table; a [`Layout`] maps every key to its owning worker. Rows default
//! to all-zero words, so tables encode "absent" as zero (e.g. the CLUGP
//! vertex table stores `cluster + 1` in word 0).

use crate::error::{PartitionError, Result};
use crate::vertex_table::VertexTable;
use rustc_hash::FxHashMap;

/// Default stripe length for [`Layout::Striped`] tables.
pub const DEFAULT_STRIPE: u64 = 512;

/// How a table's key space maps onto `workers` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Contiguous dense ranges: worker `w` owns `[w*span, (w+1)*span)`,
    /// with the last worker open-ended so keys past the vertex-count hint
    /// still have an owner.
    Range {
        /// Keys per shard (`ceil(max(hint,1)/workers)`).
        span: u64,
    },
    /// Interleaved stripes of `stripe` consecutive keys, round-robin over
    /// workers. Used for tables keyed by allocation order (cluster ids),
    /// where a dense range split would put all growth on the last worker.
    Striped {
        /// Stripe length in keys.
        stripe: u64,
    },
}

impl Layout {
    /// Range layout sized so `workers` shards cover `hint` keys.
    pub fn range_for(hint: u64, workers: u32) -> Layout {
        let span = hint.max(1).div_ceil(u64::from(workers.max(1))).max(1);
        Layout::Range { span }
    }

    /// The worker that owns `key`.
    pub fn owner(&self, key: u64, workers: u32) -> u32 {
        let w = u64::from(workers.max(1));
        match *self {
            Layout::Range { span } => ((key / span.max(1)).min(w - 1)) as u32,
            Layout::Striped { stripe } => ((key / stripe.max(1)) % w) as u32,
        }
    }

    /// The first key of the shard `worker` owns under a range layout
    /// (striped shards have no single base and return 0).
    pub fn base(&self, worker: u32) -> u64 {
        match *self {
            Layout::Range { span } => u64::from(worker) * span,
            Layout::Striped { .. } => 0,
        }
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

/// One worker's slice of a sharded table: fixed-width rows of `u64`
/// words, keyed by the global key. Range shards store rows densely in a
/// [`VertexTable`] offset by the shard base; striped shards index one flat
/// row vector through a hash map because their key set is interleaved.
#[derive(Debug)]
pub struct StateShard {
    width: usize,
    store: Store,
}

#[derive(Debug)]
enum Store {
    Range {
        lo: u64,
        rows: VertexTable<u64>,
    },
    /// `index[key]` is the word offset of `key`'s row in `rows`.
    Striped {
        index: FxHashMap<u64, usize>,
        rows: Vec<u64>,
    },
}

impl StateShard {
    /// Dense shard owning keys `>= lo`, `width` words per row.
    pub fn range(lo: u64, width: usize) -> StateShard {
        StateShard {
            width: width.max(1),
            store: Store::Range {
                lo,
                rows: VertexTable::new(0, 0).expect("zero-hint table always fits"),
            },
        }
    }

    /// Sparse shard for interleaved stripes, `width` words per row.
    pub fn striped(width: usize) -> StateShard {
        StateShard {
            width: width.max(1),
            store: Store::Striped {
                index: FxHashMap::default(),
                rows: Vec::new(),
            },
        }
    }

    /// Words per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads `key`'s row into `out` (appending `width` words); absent rows
    /// read as zeros.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidParam`] if `key` lies below a range shard's
    /// base — keys arrive off the wire, so a misrouted or forged one must
    /// not abort the worker.
    pub fn get_into(&self, key: u64, out: &mut Vec<u64>) -> Result<()> {
        match &self.store {
            Store::Range { lo, rows } => {
                // A row whose offset overflows cannot be stored: it is absent.
                match row_end(key, *lo, self.width)?.filter(|&end| end <= rows.len()) {
                    Some(end) => {
                        let e = end as usize;
                        out.extend_from_slice(&rows.as_slice()[e - self.width..e]);
                    }
                    None => out.resize(out.len() + self.width, 0),
                }
            }
            Store::Striped { index, rows } => match index.get(&key) {
                Some(&at) => out.extend_from_slice(&rows[at..at + self.width]),
                None => out.resize(out.len() + self.width, 0),
            },
        }
        Ok(())
    }

    /// Merges one row into the shard.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidParam`] if `key` lies below a range shard's
    /// base or its row would land past the vertex-table limit.
    pub fn upsert(&mut self, key: u64, merge: MergeOp, vals: &[u64]) -> Result<()> {
        let width = self.width;
        debug_assert_eq!(vals.len(), width);
        match &mut self.store {
            Store::Range { lo, rows } => {
                let past_limit = || bad_key(key, "is past the vertex-table limit");
                let end = row_end(key, *lo, width)?.ok_or_else(past_limit)?;
                rows.ensure_len(end).map_err(|_| past_limit())?;
                let e = end as usize;
                merge.apply(&mut rows.as_mut_slice()[e - width..e], vals);
            }
            Store::Striped { index, rows } => {
                let at = *index.entry(key).or_insert_with(|| {
                    rows.resize(rows.len() + width, 0);
                    rows.len() - width
                });
                merge.apply(&mut rows[at..at + width], vals);
            }
        }
        Ok(())
    }

    /// Merges a batch: `rows` is `keys.len()` rows of `width` words,
    /// flattened. This is the unit the wire protocol ships.
    ///
    /// # Errors
    ///
    /// The first [`StateShard::upsert`] failure; rows before it stay merged.
    pub fn upsert_batch(&mut self, merge: MergeOp, keys: &[u64], rows: &[u64]) -> Result<()> {
        debug_assert_eq!(rows.len(), keys.len() * self.width);
        for (i, &key) in keys.iter().enumerate() {
            self.upsert(key, merge, &rows[i * self.width..(i + 1) * self.width])?;
        }
        Ok(())
    }

    /// Visits every stored row in ascending key order.
    pub fn scan(&self, mut f: impl FnMut(u64, &[u64])) {
        match &self.store {
            Store::Range { lo, rows } => {
                let n = (rows.len() / self.width as u64) as usize;
                let flat = rows.as_slice();
                for r in 0..n {
                    f(lo + r as u64, &flat[r * self.width..(r + 1) * self.width]);
                }
            }
            Store::Striped { index, rows } => {
                let mut keys: Vec<(u64, usize)> = index.iter().map(|(&k, &at)| (k, at)).collect();
                keys.sort_unstable();
                for (key, at) in keys {
                    f(key, &rows[at..at + self.width]);
                }
            }
        }
    }

    /// Number of stored rows.
    pub fn rows(&self) -> u64 {
        match &self.store {
            Store::Range { rows, .. } => rows.len() / self.width as u64,
            Store::Striped { index, .. } => index.len() as u64,
        }
    }
}

fn bad_key(key: u64, why: &str) -> PartitionError {
    PartitionError::InvalidParam(format!("state key {key} {why}"))
}

/// One past the last word of `key`'s row in a range shard based at `lo`: an
/// error below the base, `None` when the offset does not fit `u64`.
fn row_end(key: u64, lo: u64, width: usize) -> Result<Option<u64>> {
    let rel = key
        .checked_sub(lo)
        .ok_or_else(|| bad_key(key, &format!("is below the shard base {lo}")))?;
    Ok(rel.checked_add(1).and_then(|r| r.checked_mul(width as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_owner_covers_tail() {
        let l = Layout::range_for(10, 4);
        assert_eq!(l, Layout::Range { span: 3 });
        assert_eq!(l.owner(0, 4), 0);
        assert_eq!(l.owner(9, 4), 3);
        // Keys past the hint still route to the last shard.
        assert_eq!(l.owner(1_000_000, 4), 3);
    }

    #[test]
    fn striped_owner_interleaves() {
        let l = Layout::Striped { stripe: 4 };
        assert_eq!(l.owner(0, 2), 0);
        assert_eq!(l.owner(3, 2), 0);
        assert_eq!(l.owner(4, 2), 1);
        assert_eq!(l.owner(8, 2), 0);
    }

    #[test]
    fn absent_rows_read_as_zero() {
        let shard = StateShard::range(100, 2);
        let mut out = Vec::new();
        shard.get_into(105, &mut out).unwrap();
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn upsert_merges_per_word() {
        let mut s = StateShard::striped(2);
        s.upsert(7, MergeOp::Add, &[3, 1]).unwrap();
        s.upsert(7, MergeOp::Add, &[4, 0]).unwrap();
        s.upsert(7, MergeOp::Max, &[5, 9]).unwrap();
        s.upsert(7, MergeOp::BitOr, &[0b1000, 0]).unwrap();
        let mut out = Vec::new();
        s.get_into(7, &mut out).unwrap();
        assert_eq!(out, vec![7 | 0b1000, 9]);
    }

    #[test]
    fn scan_is_ascending_for_both_stores() {
        let mut r = StateShard::range(10, 1);
        r.upsert(12, MergeOp::Put, &[2]).unwrap();
        r.upsert(10, MergeOp::Put, &[1]).unwrap();
        let mut seen = Vec::new();
        r.scan(|k, row| seen.push((k, row[0])));
        assert_eq!(seen, vec![(10, 1), (11, 0), (12, 2)]);

        let mut s = StateShard::striped(1);
        s.upsert(40, MergeOp::Put, &[4]).unwrap();
        s.upsert(8, MergeOp::Put, &[1]).unwrap();
        let mut seen = Vec::new();
        s.scan(|k, row| seen.push((k, row[0])));
        assert_eq!(seen, vec![(8, 1), (40, 4)]);
    }

    #[test]
    fn out_of_range_keys_are_typed_errors_not_panics() {
        let mut shard = StateShard::range(100, 3);
        let mut out = Vec::new();
        let below = shard.get_into(99, &mut out).unwrap_err();
        assert!(
            below.to_string().contains("below the shard base"),
            "{below}"
        );
        assert!(shard.upsert(0, MergeOp::Put, &[1, 2, 3]).is_err());
        // Past the limit: reads as absent, cannot be written.
        shard.get_into(u64::MAX, &mut out).unwrap();
        assert_eq!(out, vec![0, 0, 0]);
        let past = shard
            .upsert(u64::MAX, MergeOp::Put, &[1, 2, 3])
            .unwrap_err();
        assert!(past.to_string().contains("vertex-table limit"), "{past}");
        assert_eq!(shard.rows(), 0);
    }
}
