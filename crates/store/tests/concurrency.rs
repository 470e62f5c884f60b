//! Concurrency semantics of the pager's per-thread windows.
//!
//! Three guarantees are pinned down here:
//!
//! 1. **No page latch, exact windows**: N threads missing the same cold
//!    page each pay their own physical read and stall, each in its own
//!    window; the windows sum to the pager's lifetime deltas, and the
//!    stalls overlap rather than queue. (Loading a missing key once across
//!    threads is the cut caches' job, `SingleFlightCache`.)
//! 2. **Each page once per window**: a window's physical reads are the
//!    distinct pages it was served since its last reset, for any mix of
//!    single reads, sorted batches and resets on one thread, and for any
//!    interleaving of threads reading overlapping page sets.
//! 3. **Batched reads**: a cold `with_pages` batch pays one stall for all
//!    its misses.

use proptest::prelude::*;
use sknn_store::{IoStats, PageId, Pager};
use std::collections::BTreeSet;
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
    pager.reset_stats();
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
}

/// Four threads read overlapping random page sets at once, in single
/// reads and batches. However the reads interleave, each window's
/// physical reads are its own distinct pages, and the windows sum to the
/// lifetime delta: no thread's read serves or evicts another's.
#[test]
fn overlapping_readers_each_charge_their_own_distinct_pages() {
    const THREADS: u64 = 4;
    const N_PAGES: u64 = 48;
    let pager = Pager::new(8);
    let ids: Vec<PageId> = (0..N_PAGES).map(|_| pager.alloc()).collect();
    let before = pager.lifetime_stats().physical_reads;
    let barrier = Barrier::new(THREADS as usize);
    let reads: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pager, ids, barrier) = (&pager, &ids, &barrier);
                s.spawn(move || {
                    pager.reset_stats();
                    barrier.wait();
                    let mut distinct = BTreeSet::new();
                    for (i, batch) in batches(t, 60).into_iter().enumerate() {
                        let picks: Vec<PageId> = batch.iter().map(|&p| ids[p]).collect();
                        if i % 3 == 0 {
                            pager.with_page(picks[0], |_| ()).unwrap();
                            distinct.insert(picks[0]);
                        } else {
                            pager.with_pages(&picks, |_, _| ()).unwrap();
                            distinct.extend(picks);
                        }
                        std::thread::yield_now();
                    }
                    let io = pager.stats();
                    assert_eq!(io.physical_reads, distinct.len() as u64, "thread {t}");
                    assert_eq!(io.hits() + io.physical_reads, io.logical_reads);
                    io.physical_reads
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(reads.iter().sum::<u64>(), pager.lifetime_stats().physical_reads - before);
}

/// `n` sorted, de-duplicated batches of page indices below 48 drawn from
/// `seed`, each of one to six pages.
fn batches(seed: u64, n: usize) -> Vec<Vec<usize>> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|_| {
            let len = 1 + (next() % 6) as usize;
            let set: BTreeSet<usize> = (0..len).map(|_| (next() % 48) as usize).collect();
            set.into_iter().collect()
        })
        .collect()
}

/// A cold `with_pages` batch pays one stall for the whole run, not one per
/// page, and every member beyond the first counts as a coalesced miss.
#[test]
fn batched_cold_read_pays_a_single_stall() {
    const STALL: Duration = Duration::from_millis(50);

    let pager = Pager::new(16);
    let ids: Vec<_> = (0..5).map(|_| pager.alloc()).collect();
    pager.set_read_stall(STALL);
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

    /// The window against its model, a set of served pages: over any mix
    /// of single reads, sorted batches and resets, a window's physical
    /// reads are its distinct pages since the last reset, its stalled
    /// batches are the calls that read a page new to it, and every read is
    /// a hit or a physical read.
    #[test]
    fn a_window_charges_each_page_once(
        ops in proptest::collection::vec((any::<u64>(), 0usize..7), 1..120),
    ) {
        const N_PAGES: usize = 40;
        let pager = Pager::new(8);
        let ids: Vec<_> = (0..N_PAGES).map(|_| pager.alloc()).collect();
        pager.reset_stats();
        let (mut served, mut stalled) = (BTreeSet::new(), 0u64);

        for &(seed, batch) in &ops {
            if batch == 6 {
                pager.reset_stats();
                served.clear();
                stalled = 0;
                continue;
            }
            // A sorted, deduplicated batch from the seed; 0 is a single read.
            let mut picks: Vec<_> = (0..batch.max(1))
                .map(|j| {
                    let x = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(j as u64 * 1442695040888963407);
                    ids[(x as usize) % N_PAGES]
                })
                .collect();
            picks.sort();
            picks.dedup();
            if picks.iter().any(|p| !served.contains(p)) {
                stalled += 1;
            }
            served.extend(picks.iter().copied());
            if batch == 0 {
                pager.with_page(picks[0], |_| ()).unwrap();
            } else {
                pager.with_pages(&picks, |_, _| ()).unwrap();
            }
            let io = pager.stats();
            prop_assert_eq!(io.physical_reads, served.len() as u64);
            prop_assert_eq!(pager.stalled_batches(), stalled);
            prop_assert_eq!(io.hits() + io.physical_reads, io.logical_reads);
        }
    }
}
