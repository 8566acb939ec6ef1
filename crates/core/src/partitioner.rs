//! The common partitioner interface and small shared helpers.

use crate::error::{PartitionError, Result};
use crate::partition::PartitionRun;
use clugp_graph::stream::RestreamableStream;

/// A vertex-cut streaming partitioner.
///
/// Implementations reset the stream themselves before the first pass, so a
/// stream can be reused across algorithms. One-pass algorithms read the
/// stream once; CLUGP restreams it three times.
pub trait Partitioner {
    /// Short identifier used in experiment tables (e.g. `"HDRF"`).
    fn name(&self) -> &'static str;

    /// Partitions the streamed edges into `k` parts.
    ///
    /// # Errors
    ///
    /// Fails if `k == 0`, on stream errors, or on invalid algorithm
    /// parameters.
    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun>;
}

/// Validates `k` and resets the stream; returns `(num_vertices_hint,
/// len_hint)`.
pub(crate) fn start_run(stream: &mut dyn RestreamableStream, k: u32) -> Result<(u64, u64)> {
    if k == 0 {
        return Err(PartitionError::InvalidParam("k must be at least 1".into()));
    }
    stream.reset()?;
    let n = stream.num_vertices_hint().unwrap_or(0);
    let m = stream.len_hint().unwrap_or(0);
    Ok((n, m))
}

/// Closes a run after the drain of its last pass. A stream that meets a
/// decode or I/O error ends early and parks the error for its next `reset`,
/// so a run that never resets again would hand back a short `Ok`: this is
/// that reset. A stream that announced its length (`len_hint`, 0 = none) must
/// also have delivered exactly that many edges.
pub(crate) fn finish_run(
    stream: &mut dyn RestreamableStream,
    len_hint: u64,
    assigned: usize,
) -> Result<()> {
    stream.reset()?;
    if len_hint != 0 && assigned as u64 != len_hint {
        return Err(PartitionError::InvalidParam(format!(
            "the stream announced {len_hint} edges and delivered {assigned}"
        )));
    }
    Ok(())
}

/// 64-bit mix (splitmix64 finalizer) used by the hashing-based partitioners;
/// seedable so that Hashing runs are reproducible but not trivially aligned
/// with vertex ids.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clugp_graph::stream::{EdgeStream, InMemoryStream};
    use clugp_graph::types::Edge;

    #[test]
    fn start_run_rejects_zero_k() {
        let mut s = InMemoryStream::from_edges(vec![Edge::new(0, 1)]);
        assert!(matches!(
            start_run(&mut s, 0),
            Err(PartitionError::InvalidParam(_))
        ));
    }

    #[test]
    fn start_run_resets_and_reports_hints() {
        let mut s = InMemoryStream::new(5, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        // Drain the stream first; start_run must rewind it.
        while !s.next_chunk(1).is_empty() {}
        let (n, m) = start_run(&mut s, 4).unwrap();
        assert_eq!((n, m), (5, 2));
        assert_eq!(s.next_chunk(1), [Edge::new(0, 1)]);
    }

    #[test]
    fn finish_run_holds_the_stream_to_its_hint() {
        let mut s = InMemoryStream::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2)]);
        finish_run(&mut s, 2, 2).unwrap();
        finish_run(&mut s, 0, 5).unwrap(); // no hint, nothing to hold it to
        let err = finish_run(&mut s, 2, 1).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidParam(_)), "{err}");
        assert!(err
            .to_string()
            .contains("announced 2 edges and delivered 1"));
    }

    #[test]
    fn mix64_spreads_small_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff, b & 0xffff, "low bits should differ too");
    }
}
