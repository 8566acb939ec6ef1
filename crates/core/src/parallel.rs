//! The crate's one parallel operation: map a closure over independent items
//! (the game's batches, §V-D, and Mint's wave games) on scoped OS threads
//! that claim index chunks from an atomic cursor, results in input order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Threads a `threads` knob stands for: `0` is the machine's available
/// parallelism, any other `n` is `n`.
pub(crate) fn width(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Maps `f` over `items` on at most [`width`]`(threads)` threads and returns
/// the results in input order. One thread (or one item) runs inline. A
/// panic in any worker is re-raised on the caller with its payload once
/// every worker has joined.
pub(crate) fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    let threads = width(threads).min(len);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Four chunks per worker balances uneven item costs at few claims.
    let chunk = (len / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                return local;
            }
            let end = (start + chunk).min(len);
            for (i, item) in (start..end).zip(&items[start..end]) {
                local.push((i, f(i, item)));
            }
        }
    };
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::map;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn results_keep_input_order_under_contention() {
        // Early items sleep longest, so completion order reverses them.
        let v: Vec<u64> = (0..48).collect();
        let out = map(8, &v, |i, &x| {
            std::thread::sleep(Duration::from_millis(8u64.saturating_sub(x)));
            (i, x * 10)
        });
        assert_eq!(out, (0..48).map(|x| (x, x as u64 * 10)).collect::<Vec<_>>());
        assert!(map(8, &[] as &[u32], |_, &x| x).is_empty());
    }

    #[test]
    fn work_runs_on_multiple_os_threads() {
        let ids = Mutex::new(std::collections::HashSet::new());
        map(4, &[(); 16], |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(5));
        });
        let distinct = ids.lock().unwrap().len();
        assert!(distinct >= 2, "expected >1 OS thread, saw {distinct}");
    }

    #[test]
    fn threads_bound_concurrency() {
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        map(2, &[(); 32], |_, _| {
            peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(3));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        // Only the upper bound: demanding overlap flakes on a busy host.
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "2 threads ran {peak} items concurrently");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let v: Vec<u32> = (0..64).collect();
        let payload = std::panic::catch_unwind(|| map(4, &v, |_, &x| assert_ne!(x, 33, "boom")))
            .expect_err("a worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
    }
}
