//! Concurrency semantics of the sharded single-flight buffer pool.
//!
//! Three guarantees are pinned down here:
//!
//! 1. **Single-flight**: N threads missing the same cold page pay exactly
//!    one physical read and one stall between them; the N-1 losers block on
//!    the in-flight latch instead of issuing duplicate reads.
//! 2. **Eviction at capacity**: the pool never holds more pages than its
//!    configured capacity, for any shard count and any interleaving of
//!    single-page and batched reads (eviction happens *before* insert).
//! 3. **Batched reads**: `BPlusTree::get_many` returns exactly what a loop
//!    of `get` calls returns — including values spanning several overflow
//!    pages — while never charging more physical reads.

use proptest::prelude::*;
use sknn_store::{BPlusTree, Pager, PAGE_SIZE};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Four threads miss the same cold page at once: one leader pays the stall
/// and the physical read, the other three wait on the in-flight latch and
/// are recorded as coalesced misses. The reads happen on the worker
/// threads, so the counts are lifetime deltas, not this thread's window.
#[test]
fn concurrent_misses_pay_one_stall_and_one_physical_read() {
    const THREADS: usize = 4;
    const STALL: Duration = Duration::from_millis(200);

    let pager = Pager::new(8);
    let page = pager.alloc();
    pager.set_read_stall(STALL);
    pager.clear_pool();
    let (io_before, conc_before) = (pager.lifetime_stats(), pager.lifetime_concurrency_stats());

    let barrier = Barrier::new(THREADS);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                pager.with_page(page, |_| ()).unwrap();
            });
        }
    });
    let elapsed = start.elapsed();

    let (io, conc) = (pager.lifetime_stats(), pager.lifetime_concurrency_stats());
    let logical = io.logical_reads - io_before.logical_reads;
    let physical = io.physical_reads - io_before.physical_reads;
    assert_eq!(logical, THREADS as u64);
    assert_eq!(physical, 1, "only the leader performs the read");
    assert_eq!(logical - physical, (THREADS - 1) as u64, "every other reader hits");
    assert_eq!(
        conc.singleflight_waits - conc_before.singleflight_waits,
        (THREADS - 1) as u64,
        "every non-leader blocks on the in-flight latch"
    );
    assert_eq!(conc.coalesced_misses - conc_before.coalesced_misses, (THREADS - 1) as u64);
    // The stalls overlapped: total wall time is ~one stall, not N stalls.
    assert!(
        elapsed < STALL * 3,
        "stalls were serialised: {elapsed:?} for {THREADS} threads at {STALL:?} each"
    );
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

/// `get_many` on values long enough to spill over several overflow pages
/// agrees with a loop of `get` calls and never reads more pages.
#[test]
fn get_many_matches_get_loop_on_overflow_values() {
    let pager = Pager::new(256);
    // Values > MAX_INLINE spill to overflow pages; make them span two
    // full pages and a partial third so the run assembly is exercised.
    let records: Vec<(u64, Vec<u8>)> =
        (0..40u64).map(|k| (k * 3, vec![(k & 0xff) as u8; PAGE_SIZE * 2 + 123])).collect();
    let tree = BPlusTree::bulk_build(&pager, &records);

    // Mix of present (multiples of 3) and absent keys, strictly increasing.
    let keys: Vec<u64> = (0..90u64).collect();

    pager.clear_pool();
    pager.reset_stats();
    let looped: Vec<Option<Vec<u8>>> = keys.iter().map(|&k| tree.get(&pager, k).unwrap()).collect();
    let loop_io = pager.stats();

    pager.clear_pool();
    pager.reset_stats();
    let mut batched: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
    let found = tree.get_many(&pager, &keys, |k, v| batched[k as usize] = Some(v)).unwrap();
    let batch_io = pager.stats();

    assert_eq!(batched, looped);
    assert_eq!(found, looped.iter().filter(|v| v.is_some()).count());
    assert!(
        batch_io.physical_reads <= loop_io.physical_reads,
        "batched lookups re-read pages: {} > {}",
        batch_io.physical_reads,
        loop_io.physical_reads
    );
    assert!(
        batch_io.logical_reads < loop_io.logical_reads,
        "batched lookups should read each shared leaf once"
    );
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
