//! Decode prefetch-stall accounting.
//!
//! The pipelined pack decoder hands blocks to its consumer through a ring;
//! whenever the consumer arrives before the decode thread has the next
//! block ready, it waits. That wait always happens *on the
//! consumer's own thread* — in AMPC runs, the worker serve loop — so a
//! thread-local accumulator attributes stall time exactly, in both
//! in-process (thread-per-worker) and multi-process (process-per-worker)
//! topologies. A process-wide atomic mirror feeds single-actor consumers
//! like `clugp-pack` that never sample per thread.
//!
//! Recording is unconditional but nearly free (one TLS add + two relaxed
//! atomic adds per *stall*, not per block); stalls are rare on healthy
//! runs and the cost is dwarfed by the wait itself.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static THREAD_STALL_NS: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_STALL_NS: AtomicU64 = AtomicU64::new(0);
static PROCESS_STALLS: AtomicU64 = AtomicU64::new(0);

/// Charge `ns` nanoseconds of decode stall to the calling thread and to the
/// process-wide totals.
pub fn add_decode_stall(ns: u64) {
    THREAD_STALL_NS.with(|c| c.set(c.get().saturating_add(ns)));
    PROCESS_STALL_NS.fetch_add(ns, Ordering::Relaxed);
    PROCESS_STALLS.fetch_add(1, Ordering::Relaxed);
}

/// Take and reset the calling thread's accumulated stall nanoseconds.
/// Actors call this at region boundaries to get per-stage attribution.
pub fn take_thread_ns() -> u64 {
    THREAD_STALL_NS.with(|c| c.replace(0))
}

/// Total decode-stall nanoseconds recorded by this process.
pub fn process_ns() -> u64 {
    PROCESS_STALL_NS.load(Ordering::Relaxed)
}

/// Number of individual stalls recorded by this process.
pub fn process_stalls() -> u64 {
    PROCESS_STALLS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_local_attribution() {
        assert_eq!(take_thread_ns(), 0);
        add_decode_stall(1_500);
        add_decode_stall(500);
        // The other thread's stalls must not leak into this thread's tally.
        std::thread::spawn(|| {
            add_decode_stall(9_999);
            assert_eq!(take_thread_ns(), 9_999);
        })
        .join()
        .unwrap();
        assert_eq!(take_thread_ns(), 2_000);
        assert_eq!(take_thread_ns(), 0);
        assert!(process_ns() >= 11_999);
        assert!(process_stalls() >= 3);
    }
}
