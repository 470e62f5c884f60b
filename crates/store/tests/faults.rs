//! Deterministic fault-injection suite for the physical read path.
//!
//! The concurrent scenarios run under a watchdog so a reader left waiting
//! on another can only *fail* the suite, never hang it. The scripted
//! [`FaultInjector`] rules make each scenario exact: the same attempts
//! fault on every run, at any thread count.

use sknn_store::{FaultInjector, FaultKind, Pager, RetryPolicy, StoreError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Barrier;
use std::time::Duration;

/// Run `f` on its own thread and fail — don't hang — if it is not done
/// within the deadline. A scenario panic propagates through the join.
fn bounded(name: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Err(RecvTimeoutError::Timeout) => panic!("fault scenario {name:?} hung past the watchdog"),
        _ => handle.join().unwrap(),
    }
}

/// A pager with no retry backoff (tests should not sleep) and one
/// allocated page holding a known pattern.
fn pager_with_page() -> (Pager, sknn_store::PageId) {
    let pager = Pager::new(8);
    pager.set_retry_policy(RetryPolicy { max_retries: 3, backoff: Duration::ZERO });
    let id = pager.alloc();
    pager.write(id, 0, &[0xAB; 64]);
    pager.reset_stats();
    (pager, id)
}

/// A transient fault scripted to fire twice is retried exactly twice and
/// the third attempt serves the correct bytes; the retry budget is not
/// exhausted and the paper's physical-read metric charges one read.
#[test]
fn transient_fault_retried_then_succeeds() {
    let (pager, id) = pager_with_page();
    pager.set_fault_injector(Some(FaultInjector::script().fail_page(
        id.0,
        FaultKind::Transient,
        Some(2),
    )));

    let first = pager.with_page(id, |b| b[..64].to_vec()).unwrap();
    assert_eq!(first, vec![0xAB; 64], "retried read must serve the stored bytes");

    let fs = pager.fault_stats();
    assert_eq!(fs.injected, 2, "exactly the two scripted faults fire");
    assert_eq!(fs.retries, 2, "one retry per scripted fault");
    assert_eq!(fs.exhausted, 0);
    assert_eq!(pager.stats().physical_reads, 1, "failed attempts are not charged");
}

/// A transient fault that never clears exhausts the retry budget and
/// surfaces a typed error carrying the true attempt count.
#[test]
fn transient_fault_exhausts_retry_budget() {
    let (pager, id) = pager_with_page();
    pager.set_fault_injector(Some(FaultInjector::script().fail_page(
        id.0,
        FaultKind::Transient,
        None,
    )));

    let err = pager.with_page(id, |_| ()).unwrap_err();
    assert_eq!(err, StoreError::TransientRead { page: id.0, attempts: 4 }, "1 initial + 3 retries");
    assert!(matches!(err, StoreError::TransientRead { .. }));

    let fs = pager.fault_stats();
    assert_eq!(fs.injected, 4);
    assert_eq!(fs.retries, 3);
    assert_eq!(fs.exhausted, 1);
    assert_eq!(pager.stats().physical_reads, 0, "nothing was served");
}

/// Latent corruption of the stored bytes is detected by the checksum
/// sidecar *before* the page is admitted: the caller sees a typed error
/// and the corrupt bytes are never handed to a callback.
#[test]
fn latent_corruption_is_detected_before_serve() {
    let (pager, id) = pager_with_page();
    // Warm read proves the page is fine, then corrupt one stored byte.
    assert_eq!(pager.with_page(id, |b| b[3]).unwrap(), 0xAB);
    pager.corrupt_byte(id, 3);
    pager.reset_stats();

    let mut served = false;
    let err = pager.with_page(id, |_| served = true).unwrap_err();
    match err {
        StoreError::Checksum { page, stored, computed } => {
            assert_eq!(page, id.0);
            assert_ne!(stored, computed);
        }
        other => panic!("expected a checksum error, got {other:?}"),
    }
    assert!(!served, "corrupt bytes must never reach the caller");
    assert_eq!(pager.fault_stats().checksum_failures, 1);
    // Rereading identical corrupt bytes cannot help: no retries burned.
    assert_eq!(pager.fault_stats().retries, 0);
}

/// A wire-level bit flip (bad read, good stored bytes) is caught by the
/// same checksum and retried like a transient fault: the next attempt
/// serves the correct bytes.
#[test]
fn bit_flip_caught_and_retried() {
    let (pager, id) = pager_with_page();
    pager.set_fault_injector(Some(FaultInjector::script().fail_page(
        id.0,
        FaultKind::BitFlip,
        Some(1),
    )));

    let byte = pager.with_page(id, |b| b[0]).unwrap();
    assert_eq!(byte, 0xAB);
    let fs = pager.fault_stats();
    assert_eq!(fs.checksum_failures, 1, "the flip was detected");
    assert_eq!(fs.retries, 1, "and recovered on the retry");
}

/// Four threads read one permanently failing page at once: each reads it
/// itself, and every one gets the typed error instead of hanging or
/// seeing stale bytes.
#[test]
fn permanent_failure_surfaces_to_all_coalesced_readers() {
    bounded("permanent-coalesced", || {
        const THREADS: usize = 4;
        let (pager, id) = pager_with_page();
        pager.set_fault_injector(Some(FaultInjector::script().fail_page(
            id.0,
            FaultKind::Permanent,
            None,
        )));

        let physical_before = pager.lifetime_stats().physical_reads;
        let barrier = Barrier::new(THREADS);
        let errs: Vec<StoreError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        pager.with_page(id, |_| ()).unwrap_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for e in &errs {
            assert_eq!(*e, StoreError::PermanentRead { page: id.0 });
        }
        assert_eq!(pager.fault_stats().permanent_failures, THREADS as u64);
        // The readers are the worker threads: a lifetime delta, not this
        // thread's window, sees their reads.
        assert_eq!(pager.lifetime_stats().physical_reads - physical_before, 0);
    });
}

/// One reader's failure is its own. Scripted so only the very first
/// physical attempt (counted across threads) faults: exactly one of four
/// concurrent readers observes the error, and the others' reads — each
/// its own — are served.
#[test]
fn failed_leader_wakes_waiters_who_reclaim() {
    bounded("failed-leader", || {
        const THREADS: usize = 4;
        let (pager, id) = pager_with_page();
        // Permanent is never retried, so the first read fails fast and
        // the others are served by their own attempts.
        let inj = FaultInjector::script().fail_nth_read(1, FaultKind::Permanent);
        pager.set_fault_injector(Some(inj));

        let barrier = Barrier::new(THREADS);
        let results: Vec<Result<u8, StoreError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        pager.with_page(id, |b| b[0])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let failed = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 1, "exactly the first reader fails: {results:?}");
        for r in results.iter().filter(|r| r.is_ok()) {
            assert_eq!(*r.as_ref().unwrap(), 0xAB);
        }
        assert_eq!(
            results.iter().find(|r| r.is_err()).unwrap().as_ref().unwrap_err(),
            &StoreError::PermanentRead { page: id.0 }
        );
    });
}

/// A reader that *panics* mid-read leaves the pager usable: it holds
/// nothing the other readers wait on, so exactly one thread panics and
/// every other thread is served.
#[test]
fn panicking_leader_does_not_strand_waiters() {
    bounded("panicking-leader", || {
        const THREADS: usize = 4;
        let (pager, id) = pager_with_page();
        pager.set_fault_injector(Some(FaultInjector::script().fail_nth_read(1, FaultKind::Panic)));

        let barrier = Barrier::new(THREADS);
        let results: Vec<Result<u8, ()>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        catch_unwind(AssertUnwindSafe(|| pager.with_page(id, |b| b[0]).unwrap()))
                            .map_err(|_| ())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let panicked = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(panicked, 1, "exactly the first reader panics: {results:?}");
        assert_eq!(results.iter().filter(|r| matches!(r, Ok(0xAB))).count(), THREADS - 1);
    });
}

/// A batched read whose run contains a permanently failing member
/// surfaces that member's error instead of serving a partial batch.
#[test]
fn batched_read_surfaces_member_failure() {
    let pager = Pager::new(16);
    pager.set_retry_policy(RetryPolicy { max_retries: 3, backoff: Duration::ZERO });
    let ids: Vec<_> = (0..5).map(|_| pager.alloc()).collect();
    pager.reset_stats();
    pager.set_fault_injector(Some(FaultInjector::script().fail_page(
        ids[2].0,
        FaultKind::Permanent,
        None,
    )));

    let err = pager.with_pages(&ids, |_, _| ()).unwrap_err();
    assert_eq!(err, StoreError::PermanentRead { page: ids[2].0 });
    // The same batch with the fault cleared serves every member.
    pager.set_fault_injector(None);
    let mut seen = 0;
    pager.with_pages(&ids, |_, _| seen += 1).unwrap();
    assert_eq!(seen, ids.len());
}

/// Rate-driven transient profiles — the CLI's `--fault-profile` — always
/// recover within the default retry budget, for any page and seed: this
/// is the contract that makes query results bit-identical under
/// transient fault injection.
#[test]
fn rate_driven_transient_profile_never_exhausts_default_budget() {
    for seed in [1u64, 7, 42, 1234] {
        let pager = Pager::new(32);
        pager.set_retry_policy(RetryPolicy { max_retries: 3, backoff: Duration::ZERO });
        let ids: Vec<_> = (0..24).map(|_| pager.alloc()).collect();
        pager.reset_stats();
        pager.set_fault_injector(Some(FaultInjector::seeded(seed, 1.0, FaultKind::Transient)));
        for (i, &id) in ids.iter().enumerate() {
            pager.write(id, 0, &[i as u8; 16]);
            let got = pager.with_page(id, |b| b[0]).unwrap();
            assert_eq!(got, i as u8, "seed {seed} page {i}");
        }
        assert_eq!(pager.fault_stats().exhausted, 0, "seed {seed}");
    }
}

/// The recovery bound holds per read, however the attempts of concurrent
/// reads of one page interleave: four threads read the same page at rate
/// 1.0, every read faults on its first two attempts and is served on its
/// third, and no read exhausts the budget. The retry backoff keeps each
/// read in flight long enough for the others' attempts to land between
/// its own; the counts hold under any interleaving.
#[test]
fn concurrent_reads_of_one_page_each_recover_within_three_attempts() {
    bounded("concurrent-transient", || {
        const THREADS: usize = 4;
        for seed in [1u64, 7, 42, 1234] {
            let (pager, id) = pager_with_page();
            pager.set_retry_policy(RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_millis(5),
            });
            pager.set_fault_injector(Some(FaultInjector::seeded(seed, 1.0, FaultKind::Transient)));
            let physical_before = pager.lifetime_stats().physical_reads;
            let barrier = Barrier::new(THREADS);
            let bytes: Vec<u8> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            pager.with_page(id, |b| b[0]).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(bytes, vec![0xAB; THREADS], "seed {seed}");
            let reads = pager.lifetime_stats().physical_reads - physical_before;
            let fs = pager.fault_stats();
            assert_eq!(fs.exhausted, 0, "seed {seed}");
            assert_eq!(fs.retries, 2 * reads, "seed {seed}: every read cleared on attempt 3");
        }
    });
}
