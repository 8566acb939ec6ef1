//! [`VertexTable`]: the dense per-vertex state array every partitioner
//! keys by compact internal [`VertexId`]s.
//!
//! Before this layer, per-vertex state was grow-on-demand `Vec`s indexed by
//! raw stream ids: one adversarial (or merely sparse) id forced a dense
//! allocation out to that id, and nothing bounded the growth. `VertexTable`
//! centralizes the policy:
//!
//! * indices are internal `u32` ids — sparse external ids must come through
//!   `clugp_graph::idmap` first, so the table's length tracks the *distinct*
//!   vertex count, not the id range;
//! * growth past a configurable `max_vertices` limit is a clean
//!   [`PartitionError::InvalidParam`], never an abort or OOM;
//! * sizing arithmetic is checked, so oversized requests fail cleanly on
//!   32-bit-usize targets too;
//! * [`VertexTable::memory_bytes`] gives the honest capacity-based footprint
//!   the Fig. 6 memory experiment charges.

use crate::error::{PartitionError, Result};
use clugp_graph::types::VertexId;

/// Default limit on internal vertex ids: the full `u32` index space minus
/// the sentinel value (`u32::MAX` marks "no cluster" / "not assigned"
/// across the workspace). Production deployments with a memory budget
/// configure a smaller cap per partitioner.
pub const DEFAULT_MAX_VERTICES: u64 = u32::MAX as u64;

/// Builds the `InvalidParam` error for an id/count that exceeds a cap.
pub(crate) fn cap_error(what: &str, value: u64, limit: u64) -> PartitionError {
    PartitionError::InvalidParam(format!(
        "{what} {value} exceeds the max_vertices cap {limit}; \
         remap sparse external ids through clugp_graph::idmap or raise the cap"
    ))
}

/// Rejects a vertex count `n` above `limit` (itself clamped to
/// [`DEFAULT_MAX_VERTICES`]): the sizing check every per-vertex table
/// applies before it allocates.
pub(crate) fn check_cap(what: &str, n: u64, limit: u64) -> Result<()> {
    let limit = limit.min(DEFAULT_MAX_VERTICES);
    if n > limit {
        return Err(cap_error(what, n, limit));
    }
    Ok(())
}

/// Dense per-vertex state keyed by internal [`VertexId`], with pre-sizing
/// from stream hints, capped grow-on-demand, and honest memory accounting.
#[derive(Debug, Clone)]
pub struct VertexTable<T> {
    data: Vec<T>,
    fill: T,
    limit: u64,
}

impl<T: Clone> VertexTable<T> {
    /// Creates a table pre-sized to `hint` entries of `fill`, limited to
    /// [`DEFAULT_MAX_VERTICES`].
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidParam`] if `hint` exceeds the limit.
    pub fn new(hint: u64, fill: T) -> Result<Self> {
        Self::with_limit(hint, fill, DEFAULT_MAX_VERTICES)
    }

    /// Creates a table with an explicit `max_vertices` limit (clamped to
    /// [`DEFAULT_MAX_VERTICES`] — internal ids are `u32`).
    pub fn with_limit(hint: u64, fill: T, limit: u64) -> Result<Self> {
        let limit = limit.min(DEFAULT_MAX_VERTICES);
        check_cap("num_vertices hint", hint, limit)?;
        // hint <= limit <= u32::MAX always fits usize on supported targets,
        // but keep the conversion checked for 16/32-bit-usize safety.
        let len = usize::try_from(hint).map_err(|_| cap_error("num_vertices hint", hint, limit))?;
        Ok(VertexTable {
            data: vec![fill.clone(); len],
            fill,
            limit,
        })
    }

    /// Ensures index `v` is valid, growing with the fill value if needed.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidParam`] if `v` is at or past the limit.
    #[inline]
    pub fn ensure(&mut self, v: VertexId) -> Result<()> {
        if (v as usize) < self.data.len() {
            return Ok(());
        }
        self.grow(v)
    }

    #[cold]
    fn grow(&mut self, v: VertexId) -> Result<()> {
        if u64::from(v) >= self.limit {
            return Err(cap_error("vertex id", u64::from(v), self.limit));
        }
        self.data.resize(v as usize + 1, self.fill.clone());
        Ok(())
    }

    /// Grows the table to at least `n` entries (hint-driven growth).
    pub fn ensure_len(&mut self, n: u64) -> Result<()> {
        check_cap("num_vertices", n, self.limit)?;
        if n as usize > self.data.len() {
            self.data.resize(n as usize, self.fill.clone());
        }
        Ok(())
    }

    /// Number of entries (= one past the highest ensured id).
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// `true` if no vertex has been ensured.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The configured growth limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Borrow the dense state slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the dense state slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterates the dense state.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Consumes the table, returning the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Heap bytes held (capacity-based, the Fig. 6 quantity).
    pub fn memory_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> std::ops::Index<VertexId> for VertexTable<T> {
    type Output = T;

    #[inline]
    fn index(&self, v: VertexId) -> &T {
        &self.data[v as usize]
    }
}

impl<T> std::ops::IndexMut<VertexId> for VertexTable<T> {
    #[inline]
    fn index_mut(&mut self, v: VertexId) -> &mut T {
        &mut self.data[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presizes_and_indexes() {
        let mut t: VertexTable<u32> = VertexTable::new(3, 7).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t[2], 7);
        t[1] = 9;
        assert_eq!(t.as_slice(), &[7, 9, 7]);
        assert_eq!(t.into_vec(), vec![7, 9, 7]);
    }

    #[test]
    fn grows_on_demand_with_fill() {
        let mut t: VertexTable<bool> = VertexTable::new(0, false).unwrap();
        t.ensure(4).unwrap();
        assert_eq!(t.len(), 5);
        assert!(!t[4]);
        t.ensure(2).unwrap(); // no-op
        assert_eq!(t.len(), 5);
        t.ensure_len(10).unwrap();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn cap_rejects_growth_cleanly() {
        let mut t: VertexTable<u32> = VertexTable::with_limit(0, 0, 100).unwrap();
        t.ensure(99).unwrap();
        let err = t.ensure(100).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidParam(_)));
        assert!(err.to_string().contains("max_vertices cap 100"));
        assert!(t.ensure_len(101).is_err());
        // The table is still usable below the cap.
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn oversized_hint_rejected_at_construction() {
        assert!(VertexTable::<u32>::new(u64::MAX, 0).is_err());
        assert!(VertexTable::<u32>::with_limit(11, 0, 10).is_err());
    }

    #[test]
    fn default_limit_reserves_the_sentinel() {
        let mut t: VertexTable<u32> = VertexTable::new(0, 0).unwrap();
        // u32::MAX is the workspace-wide sentinel; it must never be a valid
        // index even under the default limit.
        assert!(t.ensure(u32::MAX).is_err());
    }

    #[test]
    fn memory_is_capacity_based() {
        let t: VertexTable<u64> = VertexTable::new(100, 0).unwrap();
        assert!(t.memory_bytes() >= 800);
        assert_eq!(t.iter().count(), 100);
        assert!(!t.is_empty());
        assert_eq!(t.limit(), DEFAULT_MAX_VERTICES);
    }
}
