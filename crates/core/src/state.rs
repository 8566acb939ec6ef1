//! Mutable partitioning state shared by the algorithms: the replica table
//! (`P(v)` sets) and partition load tracking.

use crate::error::Result;
use crate::partition::MAX_PARTITIONS;
use crate::vertex_table::{check_cap, DEFAULT_MAX_VERTICES};
use clugp_graph::types::{Edge, VertexId};
use std::cell::Cell;

/// Tracks, for every vertex, the set of partitions holding a replica of it —
/// the `P(v)` of the paper — as one bitset row of `ceil(k/64)` words per
/// vertex. A row is its own count: `|P(v)|` is its popcount, and the
/// table-wide tallies are one popcount scan, which a run asks for once.
///
/// This is simultaneously (a) the evaluation structure behind the
/// replication factor and (b) the "global status table" that the
/// heuristic-based baselines (Greedy, HDRF) must maintain, which is exactly
/// the state the paper charges them for in the memory experiment (Fig. 6).
///
/// Vertices are compact internal ids (see `clugp_graph::idmap`); sizing is
/// checked (`k × n` cannot overflow into a silent misallocation) and growth
/// is capped by a `max_vertices` limit, so adversarial id/dimension requests
/// fail with a clean error instead of aborting.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    words_per_row: usize,
    k: u32,
    bits: Vec<u64>,
    limit: u64,
}

/// Checked `words_per_row × num_vertices`, failing cleanly when the product
/// exceeds the cap-independent addressable size (the satellite guard for
/// 32-bit-usize targets).
fn checked_words(words_per_row: usize, num_vertices: u64, k: u32) -> Result<usize> {
    (words_per_row as u64)
        .checked_mul(num_vertices)
        .and_then(|w| usize::try_from(w).ok())
        .ok_or_else(|| {
            crate::error::PartitionError::InvalidParam(format!(
                "replica table of k={k} × n={num_vertices} overflows addressable memory"
            ))
        })
}

impl ReplicaTable {
    /// Creates an empty table for `num_vertices` vertices and `k` partitions
    /// with the [`DEFAULT_MAX_VERTICES`] growth limit.
    ///
    /// # Errors
    ///
    /// [`crate::error::PartitionError::InvalidParam`] if `num_vertices`
    /// exceeds the limit or `k × n` overflows addressable memory.
    pub fn new(num_vertices: u64, k: u32) -> Result<Self> {
        Self::with_limit(num_vertices, k, DEFAULT_MAX_VERTICES)
    }

    /// Creates an empty table with an explicit `max_vertices` growth limit.
    pub fn with_limit(num_vertices: u64, k: u32, limit: u64) -> Result<Self> {
        let limit = limit.min(DEFAULT_MAX_VERTICES);
        check_cap("num_vertices", num_vertices, limit)?;
        let words_per_row = (k as usize).div_ceil(64).max(1);
        let words = checked_words(words_per_row, num_vertices, k)?;
        Ok(ReplicaTable {
            words_per_row,
            k,
            bits: vec![0; words],
            limit,
        })
    }

    /// Number of partitions this table was sized for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertices this table was sized for.
    pub fn num_vertices(&self) -> u64 {
        (self.bits.len() / self.words_per_row) as u64
    }

    /// Grows the table to cover at least `num_vertices` vertices.
    ///
    /// # Errors
    ///
    /// [`crate::error::PartitionError::InvalidParam`] if the request exceeds
    /// the `max_vertices` limit or overflows addressable memory.
    #[inline]
    pub fn ensure_vertices(&mut self, num_vertices: u64) -> Result<()> {
        // Per edge on the replay path: a multiply, not `num_vertices()`'s divide.
        if (num_vertices as usize).saturating_mul(self.words_per_row) <= self.bits.len() {
            return Ok(());
        }
        self.grow(num_vertices)
    }

    #[cold]
    fn grow(&mut self, num_vertices: u64) -> Result<()> {
        check_cap("num_vertices", num_vertices, self.limit)?;
        let words = checked_words(self.words_per_row, num_vertices, self.k)?;
        self.bits.resize(words, 0);
        Ok(())
    }

    /// Returns `true` if partition `p` holds a replica of `v`.
    #[inline]
    pub fn contains(&self, v: VertexId, p: u32) -> bool {
        debug_assert!(p < self.k);
        let row = v as usize * self.words_per_row;
        self.bits[row + (p as usize >> 6)] & (1u64 << (p & 63)) != 0
    }

    /// Records a replica of `v` in partition `p`.
    /// Returns `true` if the replica is new.
    #[inline]
    pub fn insert(&mut self, v: VertexId, p: u32) -> bool {
        debug_assert!(p < self.k);
        let row = v as usize * self.words_per_row;
        let word = &mut self.bits[row + (p as usize >> 6)];
        let mask = 1u64 << (p & 63);
        let new = *word & mask == 0;
        *word |= mask;
        new
    }

    /// Records the replicas `edges` place when edge `i` goes to partition
    /// `parts[i]` (both endpoints join it), growing the table to cover each
    /// edge; pairs stop at the shorter slice. The one way a finished
    /// assignment becomes a replica table: quality, the placement directory
    /// and the engine's placement all read theirs off this.
    ///
    /// # Errors
    ///
    /// [`crate::error::PartitionError::InvalidParam`] for an endpoint past
    /// the growth limit; the edges before it stay recorded.
    pub fn record(&mut self, edges: &[Edge], parts: &[u32]) -> Result<()> {
        for (e, &p) in edges.iter().zip(parts) {
            self.ensure_vertices(u64::from(e.src.max(e.dst)) + 1)?;
            self.insert(e.src, p);
            self.insert(e.dst, p);
        }
        Ok(())
    }

    /// `|P(v)|`: the number of partitions holding `v`.
    #[inline]
    pub fn count(&self, v: VertexId) -> u32 {
        self.row(v).iter().map(|w| w.count_ones()).sum()
    }

    /// `Σ_v |P(v)|` over all vertices: a scan of the table.
    pub fn total_replicas(&self) -> u64 {
        self.bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Number of vertices with at least one replica (i.e. that appeared in
    /// the stream): a scan of the table.
    pub fn touched_vertices(&self) -> u64 {
        let rows = self.bits.chunks_exact(self.words_per_row);
        rows.filter(|row| row.iter().any(|&w| w != 0)).count() as u64
    }

    /// Replication factor with the touched-vertex denominator (isolated
    /// vertices never enter any partition; see DESIGN.md). Returns 0.0 if no
    /// vertex was touched.
    pub fn replication_factor(&self) -> f64 {
        match self.touched_vertices() {
            0 => 0.0,
            touched => self.total_replicas() as f64 / touched as f64,
        }
    }

    /// Iterates the partitions holding `v` in ascending order.
    pub fn partitions_of(&self, v: VertexId) -> impl Iterator<Item = u32> + '_ {
        let row = v as usize * self.words_per_row;
        let words = &self.bits[row..row + self.words_per_row];
        let k = self.k;
        words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| BitIter { word: w }.map(move |b| (wi as u32) * 64 + b))
            .filter(move |&p| p < k)
    }

    /// Bitset words per row (`ceil(k/64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// `v`'s bitset row: bit `p` of the row is set iff partition `p` holds
    /// a replica of `v`, and no bit at a position `>= k` is ever set
    /// (`insert` takes `p < k`, `import_row` clears the rest).
    #[inline]
    pub(crate) fn row(&self, v: VertexId) -> &[u64] {
        let row = v as usize * self.words_per_row;
        &self.bits[row..row + self.words_per_row]
    }

    /// Copies `v`'s bitset row into `out` (`words_per_row()` words).
    ///
    /// # Panics
    ///
    /// Panics if `v` is beyond the table or `out` is too short.
    pub fn export_row(&self, v: VertexId, out: &mut [u64]) {
        let row = v as usize * self.words_per_row;
        out[..self.words_per_row].copy_from_slice(&self.bits[row..row + self.words_per_row]);
    }

    /// Overwrites `v`'s bitset row with `words`. This is the bulk ingress used
    /// by the AMPC turn state and the placement snapshot loader, which read
    /// rows off a wire or a file, so bits at positions `>= k` are cleared on
    /// the way in: no reader of a row ever sees a partition that does not
    /// exist.
    ///
    /// # Panics
    ///
    /// Panics if `v` is beyond the table or `words` is too short.
    pub fn import_row(&mut self, v: VertexId, words: &[u64]) {
        let row = v as usize * self.words_per_row;
        let dst = &mut self.bits[row..row + self.words_per_row];
        dst.copy_from_slice(&words[..self.words_per_row]);
        let tail_bits = self.k as usize - (self.words_per_row - 1) * 64;
        if tail_bits < 64 {
            dst[self.words_per_row - 1] &= (1u64 << tail_bits) - 1;
        }
    }

    /// Bytes of heap memory held by the table.
    pub fn memory_bytes(&self) -> usize {
        self.bits.capacity() * 8
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(b)
    }
}

/// Per-partition edge counts with O(1) `max` / `min` / `argmin` queries.
///
/// [`add`](Self::add) is the only mutator and raises one load by one, so
/// the maximum is a compare there. The minimum costs `add` nothing: the
/// tracker remembers the first minimum-load partition it last reported,
/// and because loads only grow, that answer is still right for as long as
/// that partition still holds that load — one compare per query. Once it
/// has moved on, every lower index was already above the minimum, so the
/// search resumes behind it, and only when no partition is left at the old
/// minimum is the vector rescanned. The minimum rises at most `total / k`
/// times over a run, so queries are amortised O(1) however they interleave
/// with `add`, and a caller that never asks pays nothing.
#[derive(Debug, Clone)]
pub struct PartitionLoads {
    loads: Vec<u64>,
    total: u64,
    max: u64,
    /// `(min, lowest index holding it)` as of the last query (`(0, 0)`
    /// when there are no partitions).
    first_min: Cell<(u64, u32)>,
}

/// Bits of a class key below its load: every partition index is below
/// [`MAX_PARTITIONS`] = 2^20.
const KEY_PARTITION_BITS: u32 = MAX_PARTITIONS.trailing_zeros();

/// Loads below this pack into a class key, and every packed key is below
/// [`NO_MEMBER`].
pub(crate) const KEY_LOAD_LIMIT: u64 = u64::MAX >> KEY_PARTITION_BITS;

/// [`PartitionLoads::class_min`] of a class without members. Its load,
/// [`KEY_LOAD_LIMIT`], is above every packed one.
pub(crate) const NO_MEMBER: u64 = u64::MAX;

/// The class key of partition `p` at `load`: ordered by load, then index.
#[inline(always)]
pub(crate) fn class_key(load: u64, p: u32) -> u64 {
    load << KEY_PARTITION_BITS | u64::from(p)
}

/// The load a class key was packed from.
#[inline(always)]
pub(crate) fn key_load(key: u64) -> u64 {
    key >> KEY_PARTITION_BITS
}

/// The partition a class key was packed from.
#[inline(always)]
pub(crate) fn key_partition(key: u64) -> u32 {
    (key & u64::from(MAX_PARTITIONS - 1)) as u32
}

/// `(min, lowest index holding it)` of `loads`; `(0, 0)` when empty.
fn first_min(loads: &[u64]) -> (u64, u32) {
    let min = loads.iter().copied().min().unwrap_or(0);
    let argmin = loads.iter().position(|&l| l == min).unwrap_or(0);
    (min, argmin as u32)
}

impl PartitionLoads {
    /// Creates `k` empty partitions.
    pub fn new(k: u32) -> Self {
        Self::from_vec(vec![0; k as usize])
    }

    /// Rebuilds the tracker from a load vector (one entry per partition),
    /// e.g. when a distributed worker resumes from a token's loads.
    pub(crate) fn from_vec(loads: Vec<u64>) -> Self {
        PartitionLoads {
            total: loads.iter().sum(),
            max: loads.iter().copied().max().unwrap_or(0),
            first_min: Cell::new(first_min(&loads)),
            loads,
        }
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.loads.len() as u32
    }

    /// Adds one edge to partition `p`.
    #[inline]
    pub fn add(&mut self, p: u32) {
        let load = self.loads[p as usize] + 1;
        self.loads[p as usize] = load;
        self.total += 1;
        self.max = self.max.max(load);
    }

    /// Edge count of partition `p`.
    #[inline]
    pub fn get(&self, p: u32) -> u64 {
        self.loads[p as usize]
    }

    /// Total number of assigned edges.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Maximum partition load.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Minimum partition load.
    #[inline]
    pub fn min(&self) -> u64 {
        self.current_first_min().0
    }

    /// Index of a least-loaded partition (lowest id wins ties).
    #[inline]
    pub fn argmin(&self) -> u32 {
        self.current_first_min().1
    }

    #[inline]
    fn current_first_min(&self) -> (u64, u32) {
        let (min, at) = self.first_min.get();
        if self.loads.get(at as usize) == Some(&min) {
            return (min, at);
        }
        self.advance_first_min(min, at as usize)
    }

    /// The remembered first minimum-load partition `at` has left `min`.
    fn advance_first_min(&self, min: u64, at: usize) -> (u64, u32) {
        let behind = self.loads.get(at + 1..).unwrap_or_default();
        let found = match behind.iter().position(|&l| l == min) {
            Some(offset) => (min, (at + 1 + offset) as u32),
            None => first_min(&self.loads),
        };
        self.first_min.set(found);
        found
    }

    /// Whether every partition's `(load, index)` packs into a class key
    /// (see [`class_min`](Self::class_min)). Loads below 2^44 − 1 do; a
    /// caller that gets `false` decides the edge by another rule.
    #[inline]
    pub(crate) fn packs_class_keys(&self) -> bool {
        self.max < KEY_LOAD_LIMIT && self.loads.len() <= MAX_PARTITIONS as usize
    }

    /// The class key `load << 20 | p` of the least-loaded, then
    /// lowest-index, partition `p` of the replica class whose members hold
    /// the row `row_u`'s vertex iff `holds_u` and `row_v`'s iff `holds_v`;
    /// [`NO_MEMBER`] for an empty class. Read it with [`key_load`] and
    /// [`key_partition`]. Only meaningful while
    /// [`packs_class_keys`](Self::packs_class_keys) holds, and not for
    /// "neither": a complemented word has bits set at and past `k`.
    ///
    /// A hand-rolled walk on purpose: through `partitions_of`-style
    /// iterator chains the loop, HDRF's hottest, ran 1.4–1.6x slower. One
    /// integer minimum per set bit, so the load compare is a select and
    /// the member order decides nothing: equal loads fall to the lower
    /// index inside the key.
    #[inline(always)]
    pub(crate) fn class_min(
        &self,
        row_u: &[u64],
        row_v: &[u64],
        (holds_u, holds_v): (bool, bool),
    ) -> u64 {
        // XOR with `!0` complements an endpoint's row.
        let flip = |holds: bool| if holds { 0 } else { !0 };
        let (flip_u, flip_v) = (flip(holds_u), flip(holds_v));
        let mut least = NO_MEMBER;
        for (word, (&a, &b)) in row_u.iter().zip(row_v).enumerate() {
            let mut bits = (a ^ flip_u) & (b ^ flip_v);
            while bits != 0 {
                let p = word as u32 * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                least = least.min(class_key(self.loads[p as usize], p));
            }
        }
        least
    }

    /// Immutable view of the raw load array.
    pub fn as_slice(&self) -> &[u64] {
        &self.loads
    }

    /// Consumes self, returning the load vector.
    pub fn into_vec(self) -> Vec<u64> {
        self.loads
    }

    /// Bytes of heap memory held.
    pub fn memory_bytes(&self) -> usize {
        self.loads.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_count() {
        let mut t = ReplicaTable::new(4, 8).unwrap();
        assert!(t.insert(0, 3));
        assert!(!t.insert(0, 3));
        assert!(t.insert(0, 7));
        assert_eq!(t.count(0), 2);
        assert_eq!(t.count(1), 0);
        assert_eq!(t.total_replicas(), 2);
        assert_eq!(t.touched_vertices(), 1);
    }

    #[test]
    fn contains_matches_insert() {
        let mut t = ReplicaTable::new(2, 130).unwrap();
        assert!(!t.contains(1, 129));
        t.insert(1, 129);
        assert!(t.contains(1, 129));
        assert!(!t.contains(1, 64));
    }

    #[test]
    fn partitions_of_iterates_in_order() {
        let mut t = ReplicaTable::new(1, 200).unwrap();
        for p in [5u32, 64, 130, 199] {
            t.insert(0, p);
        }
        let got: Vec<u32> = t.partitions_of(0).collect();
        assert_eq!(got, vec![5, 64, 130, 199]);
    }

    #[test]
    fn replication_factor_touched_denominator() {
        let mut t = ReplicaTable::new(10, 4).unwrap();
        t.insert(0, 0);
        t.insert(0, 1);
        t.insert(1, 2);
        // 3 replicas over 2 touched vertices; 8 isolated vertices ignored.
        assert!((t.replication_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_table_rf_zero() {
        let t = ReplicaTable::new(5, 4).unwrap();
        assert_eq!(t.replication_factor(), 0.0);
    }

    #[test]
    fn ensure_vertices_grows() {
        let mut t = ReplicaTable::new(1, 4).unwrap();
        t.ensure_vertices(10).unwrap();
        t.insert(9, 3);
        assert!(t.contains(9, 3));
        assert_eq!(t.num_vertices(), 10);
    }

    #[test]
    fn k_one_uses_single_word() {
        let mut t = ReplicaTable::new(3, 1).unwrap();
        t.insert(2, 0);
        assert_eq!(t.count(2), 1);
        assert_eq!(t.partitions_of(2).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn memory_bytes_nonzero() {
        // The rows are all there is: a row is its own count, so a table
        // built at its final size holds rows × ⌈k/64⌉ words and nothing else.
        for (rows, k) in [(100u64, 64u32), (100, 65), (7, 130), (1, 1)] {
            let t = ReplicaTable::new(rows, k).unwrap();
            let words = rows as usize * (k as usize).div_ceil(64);
            assert_eq!(t.memory_bytes(), words * 8, "{rows} rows, k = {k}");
        }
    }

    #[test]
    fn count_survives_k_beyond_u16() {
        // A u16 count silently wrapped once |P(v)| exceeded 65535; with
        // k > u16::MAX a single vertex can legitimately reach such counts.
        // A popcount of the row has no width to outgrow.
        let k = u32::from(u16::MAX) + 5;
        let mut t = ReplicaTable::new(1, k).unwrap();
        for p in 0..k {
            assert!(t.insert(0, p));
        }
        assert_eq!(t.count(0), k);
        assert_eq!(t.total_replicas(), u64::from(k));
        assert_eq!(t.partitions_of(0).count(), k as usize);
    }

    #[test]
    fn oversized_dimension_requests_fail_cleanly() {
        use crate::error::PartitionError;
        // A stream lying about its vertex count (u64::MAX) used to abort or
        // OOM in the `words_per_row * n as usize` sizing; now it is a clean
        // InvalidParam at construction and at growth.
        assert!(matches!(
            ReplicaTable::new(u64::MAX, 8),
            Err(PartitionError::InvalidParam(_))
        ));
        let mut t = ReplicaTable::new(4, 8).unwrap();
        assert!(matches!(
            t.ensure_vertices(u64::MAX),
            Err(PartitionError::InvalidParam(_))
        ));
        // The table stays usable after a rejected growth.
        assert!(t.insert(3, 1));
    }

    #[test]
    fn configurable_cap_bounds_growth() {
        let mut t = ReplicaTable::with_limit(4, 8, 100).unwrap();
        t.ensure_vertices(100).unwrap();
        assert!(t.ensure_vertices(101).is_err());
        assert!(ReplicaTable::with_limit(101, 8, 100).is_err());
    }

    #[test]
    fn loads_track_and_argmin() {
        let mut l = PartitionLoads::new(3);
        l.add(1);
        l.add(1);
        l.add(2);
        assert_eq!(l.get(0), 0);
        assert_eq!(l.get(1), 2);
        assert_eq!(l.total(), 3);
        assert_eq!(l.max(), 2);
        assert_eq!(l.min(), 0);
        assert_eq!(l.argmin(), 0);
    }

    /// `max`, `min` and the lowest index holding `min`, from scratch.
    fn extrema(loads: &[u64]) -> (u64, u64, u32) {
        let max = loads.iter().copied().max().unwrap_or(0);
        let min = loads.iter().copied().min().unwrap_or(0);
        let argmin = loads.iter().position(|&l| l == min).unwrap_or(0);
        (max, min, argmin as u32)
    }

    fn assert_extrema(l: &PartitionLoads) {
        assert_eq!(
            (l.max(), l.min(), l.argmin()),
            extrema(l.as_slice()),
            "{:?}",
            l.as_slice()
        );
        assert_eq!(l.total(), l.as_slice().iter().sum::<u64>());
    }

    #[test]
    fn extrema_equal_a_recomputation_however_queries_interleave_with_adds() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        // The minimum is settled at query time, so query after every add
        // and after runs of adds that may move it several times over.
        for query_every in [1u32, 7] {
            for k in [1u32, 2, 3, 7, 64, 65] {
                let mut l = PartitionLoads::new(k);
                assert_extrema(&l);
                let mut least = 0;
                for step in 0..40 * k {
                    // Thirds: uniform adds, adds to the last reported
                    // arg-min (what moves it), adds piled on one partition.
                    let p = match step % 3 {
                        0 => rng.gen_range(0..k),
                        1 => least,
                        _ => k - 1,
                    };
                    l.add(p);
                    if step % query_every == 0 {
                        assert_extrema(&l);
                        least = l.argmin();
                    }
                }
            }
        }
    }

    #[test]
    fn from_vec_recomputes_the_extrema() {
        for loads in [
            vec![],
            vec![9],
            vec![4, 4, 4, 4],
            vec![5, 2, 8, 2, 2],
            vec![7, 6, 5, 0],
        ] {
            let mut l = PartitionLoads::from_vec(loads.clone());
            assert_eq!(l.k() as usize, loads.len());
            assert_extrema(&l);
            // ... and stays right when the run continues from there.
            for p in 0..l.k() {
                l.add(p);
                l.add(l.argmin());
                assert_extrema(&l);
            }
        }
    }

    #[test]
    fn import_row_clears_bits_beyond_k() {
        // Rows arrive off the wire and from snapshot files; a set bit past
        // k would name a partition that does not exist.
        let mut t = ReplicaTable::new(2, 70).unwrap();
        t.import_row(1, &[u64::MAX, u64::MAX]);
        assert_eq!(t.count(1), 70);
        assert_eq!(t.row(1), &[u64::MAX, (1u64 << 6) - 1]);
        assert_eq!((t.total_replicas(), t.touched_vertices()), (70, 1));
        // Overwriting: the tallies follow the rows, up and down.
        t.import_row(1, &[0, 0]);
        t.import_row(0, &[0b101, 0]);
        assert_eq!((t.total_replicas(), t.touched_vertices()), (2, 1));
        let mut full = ReplicaTable::new(1, 64).unwrap();
        full.import_row(0, &[u64::MAX]);
        assert_eq!(full.count(0), 64);
    }

    #[test]
    fn class_min_is_the_least_loaded_then_lowest_member() {
        // Rows of two words: u holds {1, 3, 64, 66}, v holds {3, 5, 66}.
        let (row_u, row_v) = ([0b1010u64, 0b101], [0b10_1000u64, 0b100]);
        let mut l = PartitionLoads::new(70);
        for (p, times) in [(1, 2), (3, 4), (5, 1), (64, 1), (66, 4)] {
            (0..times).for_each(|_| l.add(p));
        }
        let min = |holds| {
            let key = l.class_min(&row_u, &row_v, holds);
            (key != NO_MEMBER).then(|| (key_load(key), key_partition(key)))
        };
        // Both: 3 and 66 tie at 4, the lower index wins.
        assert_eq!(min((true, true)), Some((4, 3)));
        assert_eq!(min((true, false)), Some((1, 64)));
        assert_eq!(min((false, true)), Some((1, 5)));
        assert_eq!(l.class_min(&[0, 0], &row_v, (true, true)), NO_MEMBER);
    }

    #[test]
    fn class_keys_pack_below_the_load_limit_only() {
        let top = MAX_PARTITIONS - 1;
        let key = class_key(KEY_LOAD_LIMIT - 1, top);
        assert!(key < NO_MEMBER);
        assert_eq!(
            (key_load(key), key_partition(key)),
            (KEY_LOAD_LIMIT - 1, top)
        );
        assert_eq!(key_load(NO_MEMBER), KEY_LOAD_LIMIT);
        for (load, packs) in [(KEY_LOAD_LIMIT - 1, true), (KEY_LOAD_LIMIT, false)] {
            let l = PartitionLoads::from_vec(vec![0, load]);
            assert_eq!(l.packs_class_keys(), packs, "max load {load}");
        }
    }
}
