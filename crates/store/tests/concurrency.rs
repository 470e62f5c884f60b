//! Concurrency semantics of the sharded buffer pool.
//!
//! Three guarantees are pinned down here:
//!
//! 1. **No page latch, exact windows**: N threads missing the same cold
//!    page each pay their own physical read and stall, each in its own
//!    window; the windows sum to the pager's lifetime deltas, and the
//!    stalls overlap rather than queue. (Loading a missing key once across
//!    threads is the cut caches' job, `SingleFlightCache`.)
//! 2. **Eviction at capacity**: the pool never holds more pages than its
//!    configured capacity, for any shard count and any interleaving of
//!    single-page and batched reads (eviction happens *before* insert).
//! 3. **Batched reads**: a cold `with_pages` batch pays one stall for all
//!    its misses.

use proptest::prelude::*;
use sknn_store::{IoStats, Pager};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Four threads miss the same cold page at once. Each pays its own
/// physical read and stall, charged to its own window; the four windows
/// sum to the pager's lifetime deltas, and the stalls overlap: the wall
/// time is about one stall, not four.
#[test]
fn concurrent_misses_each_pay_their_own_read_and_stall_in_their_own_window() {
    const THREADS: usize = 4;
    const STALL: Duration = Duration::from_millis(200);

    let pager = Pager::new(8);
    let page = pager.alloc();
    pager.set_read_stall(STALL);
    pager.clear_pool();
    let io_before = pager.lifetime_stats();
    let (batches_before, stall_before) = (pager.lifetime_stalled_batches(), pager.stall_ns());
    let coalesced_before = pager.lifetime_concurrency_stats().coalesced_misses;

    let barrier = Barrier::new(THREADS);
    let start = Instant::now();
    let windows: Vec<(IoStats, u64, u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    pager.reset_stats();
                    barrier.wait();
                    pager.with_page(page, |_| ()).unwrap();
                    let coalesced = pager.concurrency_stats().coalesced_misses;
                    (pager.stats(), pager.stalled_batches(), pager.window_stall_ns(), coalesced)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    for &(io, batches, stall_ns, coalesced) in &windows {
        assert_eq!((io.logical_reads, io.physical_reads), (1, 1), "every reader reads the page");
        assert_eq!(batches, 1, "in a stalled batch of its own");
        assert!(stall_ns >= STALL.as_nanos() as u64, "and pays its own stall");
        assert_eq!(coalesced, 0, "a batch of one coalesces nothing");
    }
    let io = pager.lifetime_stats();
    let sum = |f: fn(&(IoStats, u64, u64, u64)) -> u64| windows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|w| w.0.logical_reads), io.logical_reads - io_before.logical_reads);
    assert_eq!(sum(|w| w.0.physical_reads), io.physical_reads - io_before.physical_reads);
    assert_eq!(sum(|w| w.1), pager.lifetime_stalled_batches() - batches_before);
    assert_eq!(sum(|w| w.2), pager.stall_ns() - stall_before);
    assert_eq!(pager.lifetime_concurrency_stats().coalesced_misses, coalesced_before);
    // The stalls overlapped: total wall time is ~one stall, not N stalls.
    assert!(
        elapsed < STALL * 3,
        "stalls were serialised: {elapsed:?} for {THREADS} threads at {STALL:?} each"
    );
    assert_eq!(pager.cached_pages(), 1, "the page is admitted once");
}

/// A cold `with_pages` batch pays one stall for the whole run, not one per
/// page, and every member beyond the first counts as a coalesced miss.
#[test]
fn batched_cold_read_pays_a_single_stall() {
    const STALL: Duration = Duration::from_millis(50);

    let pager = Pager::new(16);
    let ids: Vec<_> = (0..5).map(|_| pager.alloc()).collect();
    pager.set_read_stall(STALL);
    pager.clear_pool();
    pager.reset_stats();

    let start = Instant::now();
    let mut seen = 0usize;
    pager.with_pages(&ids, |_, _| seen += 1).unwrap();
    let elapsed = start.elapsed();

    assert_eq!(seen, ids.len());
    let io = pager.stats();
    let conc = pager.concurrency_stats();
    assert_eq!(io.physical_reads, ids.len() as u64);
    assert_eq!(conc.coalesced_misses, (ids.len() - 1) as u64);
    assert!(elapsed < STALL * 2, "batch paid per-page stalls: {elapsed:?} for {} pages", ids.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pool never exceeds its capacity — across shard counts, for any
    /// interleaving of single-page reads and sorted batch reads.
    #[test]
    fn pool_never_exceeds_capacity(
        shards in 1usize..9,
        cap in 1usize..20,
        ops in proptest::collection::vec((any::<u64>(), 0usize..6), 1..120),
    ) {
        const N_PAGES: usize = 40;
        let pager = Pager::with_shards(cap, shards);
        let ids: Vec<_> = (0..N_PAGES).map(|_| pager.alloc()).collect();
        pager.reset_stats();

        for &(seed, batch) in &ops {
            if batch == 0 {
                pager.with_page(ids[(seed as usize) % N_PAGES], |_| ()).unwrap();
            } else {
                // Build a sorted, deduplicated batch from the seed.
                let mut picks: Vec<_> = (0..batch)
                    .map(|j| {
                        let x = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(j as u64 * 1442695040888963407);
                        ids[(x as usize) % N_PAGES]
                    })
                    .collect();
                picks.sort();
                picks.dedup();
                pager.with_pages(&picks, |_, _| ()).unwrap();
            }
            prop_assert!(
                pager.cached_pages() <= cap,
                "pool holds {} pages with capacity {} ({} shards)",
                pager.cached_pages(), cap, shards,
            );
        }
        let io = pager.stats();
        prop_assert_eq!(io.hits() + io.physical_reads, io.logical_reads);
        prop_assert_eq!(pager.num_shards(), shards.min(cap));
    }
}
