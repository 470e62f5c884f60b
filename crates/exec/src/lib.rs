#![warn(missing_docs)]
//! Structured parallelism for query execution.
//!
//! The engine answers independent queries over shared immutable
//! structures, so batch throughput is an embarrassingly parallel map.
//! The vendored dependency registry has no real `rayon`, and the work
//! here does not need one. This crate provides two things, built from
//! `std` alone:
//!
//! * [`par_map`], a scoped, chunk-claiming fork/join over a batch of
//!   queries, from `std::thread::scope`, an atomic work cursor and an
//!   `mpsc` channel;
//! * [`Helpers`], work sharing *inside* one query: parked helper threads
//!   that take jobs of an [`Offer`] while the query's thread does other
//!   work, gated by a process-wide [`Busy`] count so they only run on
//!   cores no query holds. The query's thread never waits on a helper
//!   (see the [`share`] module).
//!
//! `par_map`'s design points:
//!
//! * **Scoped**: workers borrow the items and the closure directly; no
//!   `'static` bounds, no `Arc` wrapping of the engine.
//! * **Chunk-claiming**: workers grab contiguous index ranges from a
//!   shared atomic cursor. Chunks keep the cursor traffic negligible
//!   while still load-balancing uneven per-item costs (sk-NN query times
//!   vary by an order of magnitude with terrain locality).
//! * **Order-preserving**: results are returned in item order no matter
//!   which worker computed them, so a parallel map over a query batch is
//!   output-identical to the sequential loop.
//! * **Panic-transparent**: a panicking item panics the caller (via the
//!   scope join), it is not swallowed.

pub mod share;

pub use share::{on_helper, Busy, Done, Helpers, Offer};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Threads the host offers (`available_parallelism`), at least 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Map `f` over `items` on `threads` scoped workers (clamped to at least
/// 1 and at most one per item), returning the results in item order.
/// Equivalent to `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`
/// — the sequential loop is exactly what runs on one thread (or one
/// item), so the two paths are trivially result-identical. Threads live
/// only for the duration of the call.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Chunks of ~len/(4*threads) balance cursor traffic against skewed
    // per-item costs; the `.max(1)` floor keeps short batches correct.
    let chunk = (items.len() / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                s.spawn(move || loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        // A send can only fail if the receiver is gone,
                        // which means the caller is already unwinding.
                        let _ = tx.send((i, f(i, item)));
                    }
                })
            })
            .collect();
        // Join explicitly so a worker panic resurfaces with its original
        // payload instead of the scope's generic one.
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("worker produced every claimed item")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn matches_sequential_map_in_order() {
        let items: Vec<u64> = (0..103).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let par = par_map(threads, &items, |i, x| x * 3 + i as u64);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(4, &[7u32], |i, x| *x + i as u32), vec![7]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(32, &[1u32, 2, 3], |_, x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let hits = Mutex::new(vec![0u32; 257]);
        par_map(5, &[(); 257], |i, ()| {
            hits.lock().unwrap()[i] += 1;
        });
        assert!(hits.lock().unwrap().iter().all(|&h| h == 1));
    }

    /// Two items rendezvous through channels: each sends to the other and
    /// waits for the other's message. This only completes if the pool
    /// really runs items on concurrently live threads.
    #[test]
    fn items_run_concurrently() {
        let (tx_a, rx_a) = mpsc::channel::<()>();
        let (tx_b, rx_b) = mpsc::channel::<()>();
        let chans = [(tx_b, Mutex::new(rx_a)), (tx_a, Mutex::new(rx_b))];
        let oks = par_map(2, &chans, |_, (tx, rx)| {
            tx.send(()).unwrap();
            rx.lock().unwrap().recv_timeout(Duration::from_secs(10))
        });
        assert!(oks.iter().all(|r| !matches!(r, Err(RecvTimeoutError::Timeout))));
    }

    #[test]
    fn zero_threads_clamp_to_one_and_map() {
        assert_eq!(par_map(0, &[1u8, 2, 3], |_, x| x + 1), vec![2, 3, 4]);
        assert_eq!(par_map(4, &[1u8, 2, 3], |_, x| x + 1), vec![2, 3, 4]);
        assert!(available_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        par_map(2, &[0u32, 1, 2, 3], |i, _| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
